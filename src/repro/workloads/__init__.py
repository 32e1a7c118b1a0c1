"""The 14 benchmark programs of the paper's Table 3, as MiniC workloads."""

from repro.workloads.registry import (
    WorkloadSpec,
    all_workloads,
    get_workload,
    workload_names,
    workload_sources,
)

__all__ = [
    "WorkloadSpec",
    "all_workloads",
    "get_workload",
    "workload_names",
    "workload_sources",
]
