"""Workload registry: the 14 benchmark programs of the paper's Table 3.

Each workload is a scaled-down MiniC analogue of the original proxy app /
NAS benchmark, chosen to preserve the *instruction mix* that drives its
outcome distribution in Figure 4 (FP-heavy force loops, pointer-chasing
table lookups, integer aggregation, branchy solvers, ...).  Inputs are
deterministic so the golden-output comparison is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark program."""

    name: str
    description: str
    #: the paper's Table 3 "input" column for the original program
    paper_input: str
    #: our scaled-down input description
    input_desc: str
    source: str


_REGISTRY: dict[str, WorkloadSpec] = {}


def register(spec: WorkloadSpec) -> WorkloadSpec:
    if spec.name in _REGISTRY:
        raise WorkloadError(f"duplicate workload {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def get_workload(name: str) -> WorkloadSpec:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_workloads() -> dict[str, WorkloadSpec]:
    _ensure_loaded()
    return dict(_REGISTRY)


def workload_names() -> list[str]:
    _ensure_loaded()
    return list(_REGISTRY)


def workload_sources() -> dict[str, str]:
    """name -> MiniC source, for campaign matrices."""
    _ensure_loaded()
    return {name: spec.source for name, spec in _REGISTRY.items()}


_LOADED = False


def _ensure_loaded() -> None:
    """Import all workload modules (each self-registers)."""
    global _LOADED
    if _LOADED:
        return
    from repro.workloads import (  # noqa: F401
        amg2013,
        comd,
        hpccg,
        lulesh,
        minife,
        nas_bt,
        nas_cg,
        nas_dc,
        nas_ep,
        nas_ft,
        nas_lu,
        nas_sp,
        nas_ua,
        xsbench,
    )
    _LOADED = True
