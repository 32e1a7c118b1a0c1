"""The engine's cycle totals, recounted from the pcs a run executes.

A run's simulated cycles are ``half_cycles / 2``: the fast engine adds one
static total per block, an interpreted stride adds instruction by
instruction, a block that traps adds the prefix it ran, and PINFI's detach
freezes the attached part.  Here every total is recounted independently:
the interpreter loop's snapshot hook, called after every instruction
(``CPU.record_snapshots(1, hook)``, as ``pc_trace`` arms it), names each pc
the run executes, and the engine's totals must equal ``sum(2 * cost[pc])``
over them — on the demo program and two workloads, for each tool.
"""

import pytest

from repro.campaign import make_tool
from repro.engine import FastEngine
from repro.machine.registers import RBP_IDX, RSP_IDX
from repro.testing.oracles import pc_trace
from repro.workloads import workload_sources

from tests.conftest import DEMO_SOURCE

PROGRAMS = ("demo", "lulesh", "EP")
TOOLS = ("REFINE", "PINFI", "LLFI")


def _tool(program: str, tool_name: str):
    source = DEMO_SOURCE if program == "demo" else workload_sources()[program]
    return make_tool(tool_name, source, program)


def half_cycles(program, pcs) -> int:
    total = sum(2 * program.cost[pc] for pc in pcs)
    assert total == int(total)
    return int(total)


def assert_recounted(tool, plan_of, budget):
    """The engine's run of a CPU armed by ``plan_of`` against the recount of
    a second one's run on the interpreter loop."""
    cpu = tool._make_cpu(plan_of())
    result = tool.engine.run(cpu, budget=budget)
    reference, trace = pc_trace(tool._make_cpu(plan_of()), budget)
    assert (result.steps, result.trap) == (reference.steps, reference.trap)
    assert len(trace) == result.steps
    assert result.half_cycles == half_cycles(tool.program, trace)
    return result, trace


@pytest.mark.parametrize("tool_name", TOOLS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_golden_run(program, tool_name):
    tool = _tool(program, tool_name)
    result, _ = assert_recounted(tool, lambda: None, None)
    assert result.trap is None
    if tool_name == "PINFI":
        # attached from the first instruction to the last
        assert result.half_cycles_attached == result.half_cycles
        assert result.attached_candidates == tool.profile.total_candidates
    else:
        assert tool.profile.cycles == result.half_cycles / 2
        assert result.half_cycles_attached == result.attached_candidates == 0


@pytest.mark.parametrize("tool_name", TOOLS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_budget_timeout(program, tool_name):
    tool = _tool(program, tool_name)
    budget = tool.profile.steps // 3 + 7
    result, _ = assert_recounted(tool, lambda: None, budget)
    assert result.trap == "timeout" and result.steps == budget


@pytest.mark.parametrize("program", PROGRAMS)
def test_pinfi_plan_that_fires(program):
    """Attached through the instruction that is the plan's candidate, then
    detached: the split is where the trace reaches that candidate."""
    tool = _tool(program, "PINFI")
    for seed in range(64):
        plan = tool.plan_from_seed(seed)
        result = tool.engine.run(tool._make_cpu(plan), budget=tool.timeout_budget)
        if result.trap != "timeout" and result.half_cycles > result.half_cycles_attached:
            break
    else:
        raise AssertionError("no seed ran on past its fault")
    result, trace = assert_recounted(
        tool, lambda: tool.plan_from_seed(seed), tool.timeout_budget)
    assert result.fault is not None
    target = result.fault.dynamic_index
    is_candidate = tool.program.is_candidate
    seen = 0
    for split, pc in enumerate(trace, 1):
        seen += is_candidate[pc]
        if seen == target:
            break
    assert result.attached_candidates == target
    assert result.half_cycles_attached == half_cycles(tool.program, trace[:split])
    assert result.half_cycles - result.half_cycles_attached == half_cycles(
        tool.program, trace[split:])


#: What every integer register but ``rsp`` and ``rbp`` is poisoned with: an
#: address far past memory, so that an access through it, or through an
#: address computed from it, segfaults.  (A block's frame guards refuse an
#: access through a poisoned base register before the block runs: the
#: interpreter loop runs that block instead.)
UNMAPPED = 1 << 40


def poison(cpu) -> None:
    for reg in range(len(cpu.iregs)):
        if reg not in (RSP_IDX, RBP_IDX):
            cpu.iregs[reg] = UNMAPPED


@pytest.mark.parametrize("tool_name", TOOLS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_block_that_traps_mid_way(program, tool_name, monkeypatch):
    """A golden run whose registers, poisoned at a block entry, segfault an
    access inside that block: the engine accounts the prefix the block ran,
    not the block — and the interpreter loop, poisoned at the same step,
    executes exactly that prefix."""
    tool = _tool(program, tool_name)
    unwound = []
    real = FastEngine._unwind_trap

    def spied(self, cpu, FL, steps, hc, rc, pin, lc, entry, trap_pc):
        unwound.append((entry, trap_pc))
        return real(self, cpu, FL, steps, hc, rc, pin, lc, entry, trap_pc)

    monkeypatch.setattr(FastEngine, "_unwind_trap", spied)
    golden = tool.profile.steps
    for at in range(1, golden, -(-golden // 256)):
        poisoned = []

        def poison_here(cpu, pc, reach):
            poison(cpu)
            poisoned.append(cpu.steps)
            return False

        unwound.clear()
        cpu = tool._make_cpu(None)
        result = tool.engine.resume(cpu, cpu.prepare_entry(), None, [at],
                                    poison_here)
        if unwound and unwound[-1][1] > unwound[-1][0]:
            break
    else:
        raise AssertionError("no poisoned block trapped past its entry")
    step = poisoned[0]

    cpu = tool._make_cpu(None)
    trace = [cpu.prepare_entry()]

    def hook(c, pc):
        trace.append(pc)
        if c.steps == step:
            poison(c)

    cpu.record_snapshots(1, hook)
    reference = cpu.resume(trace[0])
    trace.pop()  # the trapping access
    assert result.trap == reference.trap == "segfault"
    assert result.trap_pc == reference.trap_pc == unwound[-1][1]
    assert result.steps == reference.steps == len(trace)
    assert result.half_cycles == half_cycles(tool.program, trace)
    if tool_name == "PINFI":
        assert result.half_cycles_attached == result.half_cycles
        assert result.attached_candidates == sum(
            tool.program.is_candidate[pc] for pc in trace)
