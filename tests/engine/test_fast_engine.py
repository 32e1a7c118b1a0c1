"""Unit tests for the fast block-compiled execution engine.

Every test here states the same invariant from a different angle: whatever
the fast engine does internally (batched accounting, mid-block entries
finished by the interpreter, careful windows), its observable
:class:`ExecutionResult` is bit-identical to the reference interpreter loop.
"""

import builtins
from bisect import bisect_left

import pytest

from repro.backend import compile_minic
from repro.campaign import CampaignSpec, make_tool, resolve_trigger_order, run_cell
from repro.campaign.schedule import TriggerScheduler
from repro.engine import FastEngine
from repro.engine import cache as cache_module
from repro.engine import fast as fast_module
from repro.engine.blocks import discover_blocks, is_llfi_visit
from repro.engine.cache import TranslationCache, translation_fingerprint
from repro.machine import CPU, load_binary
from repro.machine import opcodes as O
from repro.machine.registers import RSP_IDX
from repro.snapshot import base_pages, capture_snapshot, restore_snapshot
from repro.testing import ReferenceEngine
from repro.workloads import workload_sources

from tests.conftest import DEMO_SOURCE


@pytest.fixture(scope="module")
def program():
    return load_binary(compile_minic(DEMO_SOURCE, "demo"))


def assert_same_result(a, b):
    assert a.output == b.output
    assert a.exit_code == b.exit_code
    assert a.trap == b.trap
    assert a.trap_pc == b.trap_pc
    assert a.steps == b.steps
    assert a.half_cycles == b.half_cycles
    # PINFI's attached-phase accounting (what its cycle model reads)
    assert a.attached_candidates == b.attached_candidates
    assert a.half_cycles_attached == b.half_cycles_attached


def golden_states(cpu):
    """The state after every instruction of ``cpu``'s run on the reference
    loop (index ``k - 1`` holds step ``k``), and the run's result."""
    base = base_pages(cpu.program)
    snaps = []

    def hook(c, pc):
        snaps.append(capture_snapshot(
            c, pc, prev=snaps[-1] if snaps else None, base=base))

    cpu.record_snapshots(1, hook)
    return snaps, cpu.run()


class TestSelection:
    def test_default_is_fast(self):
        assert make_tool("REFINE", DEMO_SOURCE, "demo").engine.name == "fast"

    def test_environment_is_ignored(self, monkeypatch):
        # REPRO_ENGINE used to pick the engine; it is no longer read.
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert make_tool("REFINE", DEMO_SOURCE, "demo").engine.name == "fast"


class TestRunEquivalence:
    def test_full_run(self, program):
        ref = CPU(program).run()
        fast = FastEngine().run(CPU(program))
        assert_same_result(ref, fast)

    @pytest.mark.parametrize("budget", [1, 17, 500, 710, 711, 712])
    def test_timeout_at_any_budget(self, program, budget):
        # 711 is the demo program's exact step count: the halt-vs-timeout
        # boundary must agree with the reference loop on both sides of it.
        ref = CPU(program).run(budget=budget)
        fast = FastEngine().run(CPU(program), budget=budget)
        assert_same_result(ref, fast)

    def test_trap_mid_block(self):
        # Division by a runtime zero traps partway through a basic block;
        # the fast engine must account only the executed prefix (trapping
        # instruction itself not counted).
        src = """
        int zero = 0;
        int main() { int a = 7; return a / zero; }
        """
        prog = load_binary(compile_minic(src, "trap"))
        ref = CPU(prog).run()
        fast = FastEngine().run(CPU(prog))
        assert ref.trap == "divide-by-zero"
        assert_same_result(ref, fast)

    def test_stack_overflow_trap(self):
        src = "int f(int n) { return f(n + 1); } int main() { return f(0); }"
        prog = load_binary(compile_minic(src, "so"))
        ref = CPU(prog).run(budget=50_000_000)
        fast = FastEngine().run(CPU(prog), budget=50_000_000)
        assert ref.trap == "stack-overflow"
        assert_same_result(ref, fast)

    def test_mid_block_resume(self, program):
        # Continue from the state after EVERY instruction of the golden run
        # (most are block interiors, which have no translated entry: the
        # engine finishes the block on the interpreter loop), fast engine
        # vs reference loop.
        snaps, full = golden_states(CPU(program))
        assert len(snaps) == full.steps - 1 == 710
        leaders = set(discover_blocks(program)[0])
        assert sum(s.pc not in leaders for s in snaps) > len(snaps) // 2
        for snap in snaps:
            ref_cpu, fast_cpu = CPU(program), CPU(program)
            restore_snapshot(ref_cpu, snap)
            restore_snapshot(fast_cpu, snap)
            ref = ref_cpu.resume(snap.pc)
            fast = FastEngine().resume(fast_cpu, snap.pc)
            assert_same_result(ref, fast)
            assert fast.steps == full.steps

    def test_golden_recording_delegates(self, program):
        # Recording snapshots every k steps is the interpreter loop's job
        # (``CPU.run``); the fast engine's run of the same program, with no
        # hook, is the same result.
        calls = []
        ref_cpu = CPU(program)
        ref_cpu.record_snapshots(100, lambda c, pc: calls.append((c.steps, pc)))
        ref = ref_cpu.run()
        fast = FastEngine().run(CPU(program))
        assert_same_result(ref, fast)
        assert [steps for steps, _ in calls] == list(range(100, ref.steps, 100))

    def test_a_cpu_recording_its_site_trace_is_refused(self, program):
        # blocks count trigger sites in bulk: residency is recorded on
        # CPU.run, one site at a time
        for run in (lambda e, c: e.run(c), lambda e, c: e.run_cursor(c)):
            cpu = CPU(program)
            cpu._site_trace = []
            with pytest.raises(ValueError, match="site trace"):
                run(FastEngine(), cpu)

    @pytest.mark.parametrize(
        "engine", [FastEngine(), ReferenceEngine()], ids=lambda e: e.name
    )
    def test_budget_on_snapshot_boundary(self, program, engine):
        # Budget landing exactly on a snapshot boundary: the timeout wins
        # and the hook is not called — on every engine.
        calls = []
        cpu = CPU(program)
        cpu.record_snapshots(500, lambda c, pc: calls.append(c.steps))
        result = engine.run(cpu, budget=500)
        assert result.trap == "timeout"
        assert result.steps == 500
        assert calls == []


def mid_block_states(tool):
    """``(snap, end)`` for every golden state of ``tool`` that sits in a
    block interior; ``end`` is the first pc past that block."""
    snaps, _ = golden_states(tool._make_cpu(None))
    leaders, end_of = discover_blocks(tool.program)
    leaders = set(leaders)
    return [(s, end_of[s.pc]) for s in snaps if s.pc not in leaders]


def resume_pair(tool, snap, plan_of=lambda: None, budget=None, poke=None):
    """Resume ``snap`` on the reference loop and on the fast engine, each
    on its own CPU armed with its own ``plan_of()`` (and ``poke``d, if the
    restored state is to be tampered with); returns both results after
    asserting they (and the fault logs) agree.  A faulty run gets the
    campaign's timeout unless ``budget`` says otherwise."""
    if budget is None:
        budget = tool.timeout_budget
    results = []
    for resume in (lambda c: c.resume(snap.pc, budget),
                   lambda c: FastEngine().resume(c, snap.pc, budget)):
        cpu = tool._make_cpu(plan_of())
        restore_snapshot(cpu, snap)
        if poke is not None:
            poke(cpu)
        results.append(resume(cpu))
    assert_same_result(*results)
    assert results[0].fault == results[1].fault
    return results


class TestMidBlockEntry:
    """A pc that is not a block entry is interpreted to the end of its
    block.  Everything that can happen inside that finishing stride —
    trigger, dwell window, timeout, sync point, a wild ``ret`` landing in
    one — against ``CPU.resume`` from the same state."""

    @staticmethod
    def retargeted(tool, seed, target, dwell=1):
        plan = tool.plan_from_seed(seed)
        plan.target_index = target
        plan.last_index = target + dwell - 1
        return plan

    @staticmethod
    def sites_in(tool, snap, end):
        """Trigger sites of ``tool`` in the finishing stride of ``snap``."""
        program = tool.program
        if tool.name == "REFINE":
            return sum(program.code[p][0] == O.FI_CHECK
                       for p in range(snap.pc, end))
        return sum(program.is_candidate[p] for p in range(snap.pc, end))

    @pytest.mark.parametrize("tool_name", ["REFINE", "PINFI"])
    def test_trigger_inside_the_stride(self, tool_name):
        tool = make_tool(tool_name, DEMO_SOURCE, "demo")
        counter = type(tool)._SNAPSHOT_COUNTER
        fired = 0
        for i, (snap, end) in enumerate(mid_block_states(tool)[::2]):
            sites = self.sites_in(tool, snap, end)
            # the first and the last site of the stride, if it has any
            for nth in {min(1, sites), sites} - {0}:
                target = snap.counter(counter) + nth
                ref, _ = resume_pair(
                    tool, snap,
                    lambda: self.retargeted(tool, seed=i, target=target))
                assert ref.fault is not None
                assert ref.fault.dynamic_index == target
                assert snap.pc <= ref.fault.pc < end
                fired += 1
        assert fired > 100

    @pytest.mark.parametrize("tool_name", ["REFINE", "PINFI", "LLFI"])
    def test_dwell_window_spans_the_stride(self, tool_name, monkeypatch):
        # A short watcher window makes the engine leave the reference loop
        # mid-block again and again while the stuck-at window is still
        # open: each exit is a finishing stride inside the window.
        monkeypatch.setattr(fast_module, "CAREFUL_WINDOW", 5)
        tool = make_tool(tool_name, DEMO_SOURCE, "demo",
                         fault_model="stuck-at:dwell=24")
        counter = type(tool)._SNAPSHOT_COUNTER
        states = mid_block_states(tool)
        total = tool.profile.total_candidates
        for i, (snap, _) in enumerate(states[::9]):
            target = min(snap.counter(counter) + 1 + i % 3, total)
            resume_pair(
                tool, snap,
                lambda: self.retargeted(tool, seed=i, target=target, dwell=24))

    def test_budget_inside_the_stride(self):
        tool = make_tool("PINFI", DEMO_SOURCE, "demo")  # the clean binary
        total = tool.profile.steps
        snaps, _ = golden_states(tool._make_cpu(None))
        end_of = discover_blocks(tool.program)[1]
        timeouts = 0
        for snap, end in mid_block_states(tool):
            stride_end = snap.steps + end - snap.pc
            budgets = {snap.steps + 1, stride_end - 1, stride_end,
                       stride_end + 1}
            if stride_end >= total:  # the halting block: timeout vs halt
                budgets |= {total - 1, total, total + 1}
            else:  # ... and the far boundary of the block after the stride
                after = snaps[stride_end - 1].pc
                budgets.add(stride_end + end_of[after] - after)
            for budget in sorted(b for b in budgets if b > snap.steps):
                ref, _ = resume_pair(tool, snap, budget=budget)
                timeouts += ref.trap == "timeout"
        assert timeouts > 500

    def test_sync_points_inside_the_stride(self):
        """A point inside the finishing stride is dropped; one at its end,
        or past it, is observed at the first stop at or past it — the end
        of the stride or a block entry — in the golden state there."""
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        snaps, full = golden_states(tool._make_cpu(None))
        base = base_pages(tool.program)
        leaders = set(discover_blocks(tool.program)[0])
        entries = [k for k in range(1, full.steps) if snaps[k - 1].pc in leaders]
        observed = 0
        for snap, end in mid_block_states(tool)[::5]:
            stride = end - snap.pc
            stride_end = snap.steps + stride
            # two in the entry block, the block boundary, one far beyond
            syncs = sorted({snap.steps + 1, snap.steps + max(1, stride - 1),
                            stride_end, stride_end + 40})
            syncs = [s for s in syncs if s < full.steps]
            stops = [stride_end, *(k for k in entries if k > stride_end)]
            want = []
            for point in syncs:
                i = bisect_left(stops, point)
                if point >= stride_end and i < len(stops) and stops[i] not in want:
                    want.append(stops[i])
            seen = []

            def on_sync(cpu, pc, reach):
                assert capture_snapshot(cpu, pc, base=base) == snaps[cpu.steps - 1]
                seen.append(cpu.steps)
                return False

            cpu = tool._make_cpu(None)
            restore_snapshot(cpu, snap)
            fast = FastEngine().resume(
                cpu, snap.pc, None, syncs, on_sync)
            assert seen == want
            assert_same_result(full, fast)
            if not want:
                continue
            observed += 1

            # a truthy return hands the run back at exactly that state
            cpu = tool._make_cpu(None)
            restore_snapshot(cpu, snap)
            assert FastEngine().resume(
                cpu, snap.pc, None, syncs, lambda c, pc, reach: True) is None
            assert cpu.steps == want[0]
        assert observed > 20

    def test_ret_into_a_block_interior(self):
        # A corrupted return address makes ``ret`` land on a pc no
        # translated block starts at.
        tool = make_tool("PINFI", DEMO_SOURCE, "demo")  # the clean binary
        program = tool.program
        snaps, full = golden_states(tool._make_cpu(None))
        leaders = set(discover_blocks(program)[0])
        interiors = [pc for pc in range(len(program.code))
                     if pc not in leaders]
        at_ret = [s for s in snaps if program.code[s.pc][0] == O.RET
                  and s.steps < full.steps - 1]
        assert at_ret and interiors
        outcomes = set()
        for snap in at_ret[:3]:
            for target in interiors[::5]:
                def smash_return_address(cpu):
                    sp = cpu.iregs[RSP_IDX]
                    cpu.mem[sp:sp + 8] = target.to_bytes(8, "little")

                ref, _ = resume_pair(tool, snap, budget=4000,
                                     poke=smash_return_address)
                outcomes.add(ref.trap)
        assert len(outcomes) > 1  # some crash, some run on


class TestSyncPointsCostNoStride:
    """Sync points are observed where execution already stops: the golden
    cursor records its states at block entries, and a tail in one of those
    states reaches the next without interpreting an instruction."""

    @staticmethod
    def spy_strides(monkeypatch):
        """Every ``_interpret`` call's ``(pc, k)``, while ``on[0]``."""
        strides, on = [], [True]
        real = FastEngine._interpret

        def spied(self, cpu, FL, steps, hc, rc, pin, lc, pc, k, syncs):
            if on[0]:
                strides.append((pc, k))
            return real(self, cpu, FL, steps, hc, rc, pin, lc, pc, k, syncs)

        monkeypatch.setattr(FastEngine, "_interpret", spied)
        return strides, on

    @pytest.mark.parametrize("tool_name", ["REFINE", "PINFI", "LLFI"])
    def test_cursor_passes_interpret_nothing(self, tool_name, monkeypatch):
        """The full pass that records the timeline, and a later batch's
        window replay from one of its states, run blocks only."""
        tool = make_tool(tool_name, workload_sources()["EP"], "EP")
        sched = TriggerScheduler(tool, 24)
        strides, on = self.spy_strides(monkeypatch)
        advance = sched._advance_cursor

        def cursor_only():
            on[0] = True
            advance()
            on[0] = False

        sched._advance_cursor = cursor_only
        order = [i for _, i in resolve_trigger_order(tool, 1, range(24))]
        list(sched.run_batch(1, order[:12]))
        assert sched.stats.sync_states > 10 and strides == []
        list(sched.run_batch(1, order[12:]))
        assert sched.stats.cursor_steps < tool.profile.steps
        assert strides == []

    def test_resuming_a_timeline_state_meets_every_later_one(self, monkeypatch):
        """A disarmed run from a sync state stops at each later sync state's
        step, in that state, and interprets nothing on the way."""
        tool = make_tool("REFINE", workload_sources()["EP"], "EP")
        sched = TriggerScheduler(tool, 24)
        list(sched.run_batch(1, range(24)))
        timeline = sched._timeline
        base = base_pages(tool.program)
        start = timeline.sync_states[timeline.sync_steps[1]]
        later = timeline.sync_steps[2:]
        seen = []

        def on_sync(cpu, pc, reach):
            assert capture_snapshot(cpu, pc, base=base) == (
                timeline.sync_states[cpu.steps])
            seen.append(cpu.steps)
            return False

        strides, _ = self.spy_strides(monkeypatch)
        cpu = tool._make_cpu(None)
        restore_snapshot(cpu, start)
        result = FastEngine().resume(
            cpu, start.pc, None, later, on_sync)
        assert seen == later and len(later) > 10
        assert strides == []
        assert result.steps == timeline.steps
        assert result.half_cycles == timeline.ending.half_cycles


class TestRewritingHook:
    """A sync hook may move the run: it rewrites the CPU and returns the pc
    to go on from."""

    def test_a_hook_that_moves_the_run_is_followed(self):
        """A hook at one sync state puts the CPU in a later one and returns
        its pc: the run goes on from there and ends as the golden run
        does."""
        tool = make_tool("REFINE", workload_sources()["EP"], "EP")
        sched = TriggerScheduler(tool, 24)
        list(sched.run_batch(1, range(24)))
        timeline = sched.timeline
        steps = timeline.sync_steps
        start = timeline.sync_states[steps[1]]
        there = timeline.sync_states[steps[-2]]
        seen = []

        def on_sync(cpu, pc, reach):
            seen.append(cpu.steps)
            if cpu.steps == steps[2]:
                restore_snapshot(cpu, there)
                return there.pc
            return False

        cpu = tool._make_cpu(None)
        restore_snapshot(cpu, start)
        result = FastEngine().resume(cpu, start.pc, None, steps[2:], on_sync)
        assert seen == [steps[2], steps[-1]]
        assert result.steps == timeline.steps
        assert result.output == list(timeline.ending.output)
        assert result.half_cycles == timeline.ending.half_cycles


class TestLLFIVisits:
    """An LLFI visit is counted like a ``fi_check``: a block renders it as
    its value passing through and the trampoline adds the block's visits in
    bulk, so the visit a plan fires at is found statically and
    interpreted."""

    def test_trap_after_a_visit(self):
        src = """
        int zero = 0;
        int main() { int a = zero + 7; return a / zero; }
        """
        program = make_tool("LLFI", src, "trap").program
        ref_cpu, fast_cpu = CPU(program), CPU(program)
        ref = ref_cpu.run()
        fast = FastEngine().run(fast_cpu)
        assert ref.trap == "divide-by-zero"
        leaders = discover_blocks(program)[0]
        entry = max(p for p in leaders if p <= ref.trap_pc)
        assert any(is_llfi_visit(program.code[p])
                   for p in range(entry, ref.trap_pc))
        assert_same_result(ref, fast)
        assert fast_cpu._llfi_count == ref_cpu._llfi_count > 0

    def test_fault_at_a_blocks_first_and_last_visit(self):
        # from the program entry, so the blocks before the one that fires
        # run free under the horizon
        tool = make_tool("LLFI", DEMO_SOURCE, "demo")
        program = tool.program
        leaders, end_of = discover_blocks(program)
        leaders = set(leaders)
        snaps, _ = golden_states(tool._make_cpu(None))
        before = {}  # block entry -> visits before its first execution
        for snap in snaps:
            if snap.pc in leaders:
                before.setdefault(snap.pc, snap.counter("llfi_count"))
        fired = set()
        for i, (entry, count) in enumerate(sorted(before.items())):
            visits = [p for p in range(entry, end_of[entry])
                      if is_llfi_visit(program.code[p])]
            for nth in {min(1, len(visits)), len(visits)} - {0}:
                target = count + nth
                results = []
                for run in (lambda c: c.run(tool.timeout_budget),
                            lambda c: FastEngine().run(c, tool.timeout_budget)):
                    plan = TestMidBlockEntry.retargeted(tool, seed=i, target=target)
                    results.append(run(tool._make_cpu(plan)))
                ref, fast = results
                assert_same_result(ref, fast)
                assert ref.fault == fast.fault
                assert ref.fault.dynamic_index == target
                assert ref.fault.pc == visits[nth - 1]
                fired.add(nth > 1)
        assert fired == {False, True}  # a first visit, and a last one after it


class TestOneCompilePerBinary:
    """Translation is the engine's only code generation: a whole cell —
    profile run, cursor, every fork, fire point and rejoin check — byte-
    compiles one code object per binary."""

    @pytest.mark.parametrize("tool_name", ["REFINE", "PINFI", "LLFI"])
    def test_cell_compiles_once(self, tool_name, monkeypatch):
        compiled = []

        def counting_compile(source, filename, mode, *args, **kwargs):
            compiled.append(filename)
            return builtins.compile(source, filename, mode, *args, **kwargs)

        monkeypatch.setattr(cache_module, "compile", counting_compile,
                            raising=False)
        # a cache nothing has warmed: this binary is translated here
        monkeypatch.setattr(FastEngine, "cache", TranslationCache())
        spec = CampaignSpec(workload="EP", source=workload_sources()["EP"],
                            tool_name=tool_name, n=24)
        result = run_cell(spec)
        assert sum(result.counts.values()) == 24
        assert len(compiled) == 1, compiled

    def test_refine_shares_the_compile_of_the_binary_it_instruments(
        self, monkeypatch
    ):
        # generated code names no pc: REFINE's binary (PINFI's plus a check
        # after each candidate) translates to PINFI's source
        compiled = []

        def counting_compile(source, filename, mode, *args, **kwargs):
            compiled.append(filename)
            return builtins.compile(source, filename, mode, *args, **kwargs)

        monkeypatch.setattr(cache_module, "compile", counting_compile,
                            raising=False)
        cache = TranslationCache()
        source = workload_sources()["EP"]
        refine, pinfi, llfi = (
            cache.translation_for(make_tool(name, source, "EP").program)
            for name in ("REFINE", "PINFI", "LLFI")
        )
        assert len(compiled) == 2
        assert refine._factory is pinfi._factory is not llfi._factory
        assert refine.program.code != pinfi.program.code


class TestToolEquivalence:
    @pytest.mark.parametrize("tool_name", ["REFINE", "LLFI", "PINFI"])
    def test_injection_matches_reference(self, tool_name):
        # the reference campaign's tool: same build, interpreter loop
        ref_tool = make_tool(tool_name, DEMO_SOURCE, "demo")
        ref_tool.engine = ReferenceEngine()
        fast_tool = make_tool(tool_name, DEMO_SOURCE, "demo")
        assert ref_tool.profile.golden_output == fast_tool.profile.golden_output
        assert ref_tool.profile.steps == fast_tool.profile.steps
        assert (
            ref_tool.profile.total_candidates
            == fast_tool.profile.total_candidates
        )
        for seed in range(8):
            a = ref_tool.inject(seed)
            b = fast_tool.inject(seed)
            assert_same_result(a.result, b.result)
            assert a.result.fault == b.result.fault


class TestTranslationCache:
    def test_fingerprint_stable_and_content_sensitive(self, program):
        other = load_binary(compile_minic("int main() { return 1; }", "o"))
        assert translation_fingerprint(program) == translation_fingerprint(program)
        assert translation_fingerprint(program) != translation_fingerprint(other)

    def test_in_memory_reuse(self, program):
        cache = TranslationCache()
        assert cache.translation_for(program) is cache.translation_for(program)


class TestBlockDiscovery:
    def test_blocks_partition_the_code(self, program):
        leaders, end_of = discover_blocks(program)
        assert leaders[0] == 0 or 0 in program.func_entry.values()
        covered = set()
        for start in leaders:
            rng = range(start, end_of[start])
            assert rng, "empty block"
            covered.update(rng)
        assert covered == set(range(len(program.code)))

    def test_terminators_end_blocks(self, program):
        leaders, end_of = discover_blocks(program)
        terminators = {O.JMP, O.JCC, O.CALL, O.RET}
        for start in leaders:
            end = end_of[start]
            for pc in range(start, end - 1):
                assert program.code[pc][0] not in terminators
