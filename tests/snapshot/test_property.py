"""Property test: snapshot/restore is invisible on arbitrary programs.

Reuses the fuzzing harness's IR program generator — the same programs the
differential oracles chew on — and demands that for any generated program
and any snapshot boundary, ``restore(snapshot(cpu))`` reproduces the exact
architectural state and the resumed run's ``ExecutionResult`` equals the
uninterrupted run's.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend.compiler import CompileOptions, compile_ir
from repro.ir import clone_module
from repro.machine.cpu import CPU
from repro.machine.loader import load_binary
from repro.snapshot import (
    base_pages,
    capture_snapshot,
    cpu_state_digest,
    restore_snapshot,
)
from repro.testing.generator import GenConfig, generate_module

#: Small programs keep each example fast; shapes still cover loops, calls,
#: floats, arrays and globals.
CONFIG = GenConfig(max_insts=40, helpers=1)
INTERVAL = 64
BUDGET = 20_000_000

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _compile(seed: int):
    module = generate_module(seed, CONFIG)
    binary = compile_ir(clone_module(module), CompileOptions(opt_level="O2"))
    return load_binary(binary)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(**SETTINGS)
def test_restore_reproduces_state_and_resume_matches(seed):
    program = _compile(seed)
    base = base_pages(program)
    snaps, digests = [], []

    cpu = CPU(program)

    def hook(cpu, pc):
        prev = snaps[-1] if snaps else None
        snaps.append(capture_snapshot(cpu, pc, prev=prev, base=base))
        digests.append(cpu_state_digest(cpu))

    cpu.record_snapshots(INTERVAL, hook)
    full = cpu.run(budget=BUDGET)

    # Programs shorter than one interval simply never snapshot; the
    # property is vacuous but the run must still succeed.
    for snap, digest in zip(snaps, digests):
        fresh = CPU(program)
        restore_snapshot(fresh, snap)
        assert cpu_state_digest(fresh) == digest

        resumed = fresh.resume(snap.pc, budget=BUDGET)
        assert resumed.output == full.output
        assert resumed.exit_code == full.exit_code
        assert resumed.trap == full.trap
        assert resumed.steps == full.steps
        assert resumed.half_cycles == full.half_cycles
