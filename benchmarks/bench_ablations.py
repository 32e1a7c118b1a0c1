"""Ablation benches for the design choices DESIGN.md calls out.

* **PINFI detach-after-injection** — the optimization the authors added to
  PINFI (Section 5.2): without detaching, the DBI factor applies to the
  whole run.  We recompute PINFI campaign time under both policies.
* **REFINE instrumentation granularity** — `-fi-instrs` classes change the
  candidate population size (Table 2's knob).
* **Optimization level** — FI results are a property of the *optimized*
  binary; O0 inflates the candidate population.
* **VM throughput** — raw simulator speed, the practical limit on campaign
  scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fi import (
    FIConfig,
    PIN_ATTACH_COST,
    PIN_CALLBACK_COST,
    PIN_DBI_FACTOR,
    PinfiTool,
    RefineTool,
)
from repro.machine import CPU, load_binary
from repro.workloads import get_workload

from benchmarks.conftest import emit_artifact

SPEC = get_workload("miniFE")


def test_ablation_pinfi_detach(benchmark):
    """Campaign time with vs without PINFI's detach optimization."""
    tool = PinfiTool(SPEC.source, SPEC.name)
    _ = tool.profile
    costs = np.asarray(tool.program.cost)

    def one(seed):
        run = tool.inject(seed)
        res = run.result
        attached = np.asarray(res.counts_attached)
        if res.counts_attached is res.counts:
            detached = np.zeros_like(attached)
        else:
            detached = np.asarray(res.counts)
        with_detach = (
            PIN_ATTACH_COST
            + PIN_DBI_FACTOR * float(attached @ costs)
            + PIN_CALLBACK_COST * res.attached_candidates
            + float(detached @ costs)
        )
        full = attached + detached
        total_cands = sum(
            int(full[pc]) for pc in range(len(full)) if tool.program.is_candidate[pc]
        )
        without_detach = (
            PIN_ATTACH_COST
            + PIN_DBI_FACTOR * float(full @ costs)
            + PIN_CALLBACK_COST * total_cands
        )
        return with_detach, without_detach

    with_d = 0.0
    without_d = 0.0
    for seed in range(40):
        a, b = one(seed)
        with_d += a
        without_d += b
    benchmark(one, 0)

    speedup = without_d / with_d
    emit_artifact(
        "ablation_pinfi_detach.txt",
        "PINFI detach-after-injection ablation (miniFE, 40 runs)\n"
        f"  with detach:    {with_d:14.0f} cycles\n"
        f"  without detach: {without_d:14.0f} cycles\n"
        f"  detach speedup: {speedup:.2f}x",
    )
    assert speedup > 1.05


@pytest.mark.parametrize("instrs", ["stack", "mem", "arithm", "all"])
def test_ablation_refine_instr_classes(benchmark, instrs):
    """Candidate population per -fi-instrs class (Table 2 knob)."""
    def profile():
        tool = RefineTool(
            SPEC.source, SPEC.name, config=FIConfig(instrs=instrs)
        )
        return tool.profile

    result = benchmark(profile)
    assert result.total_candidates > 0


def test_ablation_instr_class_partition(benchmark):
    """stack + mem + arithm partition the 'all' candidate stream."""
    totals = {}
    for instrs in ("stack", "mem", "arithm", "all"):
        tool = RefineTool(SPEC.source, SPEC.name, config=FIConfig(instrs=instrs))
        totals[instrs] = tool.profile.total_candidates
    # The timed kernel: re-profiling a cached tool (pure campaign overhead).
    cached = RefineTool(SPEC.source, SPEC.name, config=FIConfig(instrs="all"))
    _ = cached.profile
    benchmark(lambda: cached.plan_from_seed(1))
    emit_artifact(
        "ablation_instr_classes.txt",
        "REFINE candidate population by -fi-instrs class (miniFE)\n"
        + "\n".join(f"  {k:7s} {v:8d}" for k, v in totals.items()),
    )
    assert totals["stack"] + totals["mem"] + totals["arithm"] == totals["all"]


@pytest.mark.parametrize("opt", ["O0", "O2"])
def test_ablation_opt_level_population(benchmark, opt):
    """O0 binaries have far more dynamic candidates than O2."""
    def profile():
        return PinfiTool(SPEC.source, SPEC.name, opt_level=opt).profile

    result = benchmark(profile)
    assert result.total_candidates > 0


def test_vm_throughput(benchmark):
    """Raw simulator speed in instructions per second."""
    from repro.backend import compile_minic
    from repro.backend.compiler import CompileOptions

    binary = compile_minic(SPEC.source, "vm", CompileOptions())
    program = load_binary(binary)

    def run():
        return CPU(program).run()

    result = benchmark(run)
    assert result.exit_code == 0
