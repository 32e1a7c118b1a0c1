"""The one campaign rule: ``describe`` a request, ``populate`` its cells.

Every campaign the service runs is a request dict — ``workloads``,
``tools``, ``n``, optional inline ``sources`` and any
:class:`~repro.campaign.cell.CampaignSpec` field.  :func:`describe` checks
it at submit time; :func:`populate` expands it into one spec per
(workload, tool) cell at admission.  The coordinator serves those cells
and, when they drain, validates them against their pinned baselines
(:mod:`repro.service.validate`).  There is no per-campaign behaviour to
select: a queue row's ``lifecycle`` column, written by older services,
is ignored.
"""

from __future__ import annotations

from repro.campaign.cell import CampaignSpec
from repro.errors import DistError, ServiceError, WorkloadError
from repro.workloads import workload_names, workload_sources


def describe(request: dict) -> dict:
    """Summarize (and structurally check) a campaign request.

    Called at submit time so an unworkable request is rejected at the
    wire instead of failing in the pump later.  Returns the summary dict
    the submit reply carries.
    """
    workloads = request.get("workloads")
    tools = request.get("tools")
    n = request.get("n")
    if (
        not isinstance(workloads, list) or not workloads
        or not all(isinstance(w, str) for w in workloads)
    ):
        raise ServiceError("request needs a non-empty 'workloads' list")
    if (
        not isinstance(tools, list) or not tools
        or not all(isinstance(t, str) for t in tools)
    ):
        raise ServiceError("request needs a non-empty 'tools' list")
    if not isinstance(n, int) or n < 1:
        raise ServiceError("request needs an integer 'n' >= 1")
    sources = request.get("sources", {})
    if not isinstance(sources, dict):
        raise ServiceError("'sources' must map workload name -> MiniC")
    unknown = [
        w for w in workloads if w not in sources and w not in workload_names()
    ]
    if unknown:
        raise ServiceError(
            f"unknown workloads (not registered, no inline source): "
            f"{unknown}"
        )
    return {
        "workloads": list(workloads),
        "tools": list(tools),
        "cells": len(workloads) * len(tools),
        "n": n,
        "experiments": len(workloads) * len(tools) * n,
    }


def _sources_for(request: dict) -> dict[str, str]:
    """workload name -> MiniC source for this request: inline ``sources``
    override (custom programs, fuzz cases) falling back to the workload
    registry."""
    inline = request.get("sources", {})
    out: dict[str, str] = {}
    registry: dict[str, str] | None = None
    for name in request["workloads"]:
        if name in inline:
            out[name] = inline[name]
            continue
        if registry is None:
            registry = workload_sources()
        if name not in registry:
            raise WorkloadError(
                f"unknown workload {name!r} (not registered, no inline "
                f"source in the request)"
            )
        out[name] = registry[name]
    return out


def populate(request: dict) -> list[CampaignSpec]:
    """Expand a request into one :class:`CampaignSpec` per cell.

    Raises :class:`ServiceError` (wrapping spec validation) on a request
    that cannot be populated — the pump marks the campaign ``failed`` with
    the message.
    """
    describe(request)
    sources = _sources_for(request)
    specs = []
    for workload in request["workloads"]:
        for tool in request["tools"]:
            try:
                # The request spells the spec's own fields; any other key
                # is ignored, never an error (``from_dict``: queue rows that
                # name an engine, a schedule or a validation knob of an
                # older service must still run).
                specs.append(CampaignSpec.from_dict({
                    **request, "workload": workload,
                    "source": sources[workload], "tool_name": tool,
                }))
            except DistError as exc:
                raise ServiceError(
                    f"cannot populate {workload}/{tool}: {exc}"
                ) from exc
    return specs
