"""Unit tests for the fast block-compiled execution engine.

Every test here states the same invariant from a different angle: whatever
the fast engine does internally (batched accounting, lazy suffixes,
careful windows), its observable :class:`ExecutionResult` is bit-identical
to the reference interpreter loop.
"""

import pytest

from repro.backend import compile_minic
from repro.campaign import make_tool
from repro.engine import FastEngine
from repro.engine.blocks import discover_blocks
from repro.engine.cache import TranslationCache, translation_fingerprint
from repro.machine import CPU, load_binary
from repro.machine import opcodes as O
from repro.testing import ReferenceEngine

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
    assert list(a.counts) == list(b.counts)


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
        # the fast engine must rewind its batched counts to the executed
        # prefix (trapping instruction itself not counted).
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
        # Drive the reference loop to an arbitrary step count (not a block
        # leader), then continue with the fast engine vs the reference:
        # exercises the lazy suffix-translation path.
        from repro.snapshot import capture_snapshot, restore_snapshot

        snaps = []
        cpu = CPU(program)
        cpu.record_snapshots(97, lambda c, pc: snaps.append(
            capture_snapshot(c, pc)))
        full = cpu.run()
        assert len(snaps) >= 2
        for snap in snaps:
            ref_cpu, fast_cpu = CPU(program), CPU(program)
            restore_snapshot(ref_cpu, snap)
            restore_snapshot(fast_cpu, snap)
            ref = ref_cpu.resume(snap.pc)
            fast = FastEngine().resume(fast_cpu, snap.pc)
            assert_same_result(ref, fast)
            assert fast.steps == full.steps

    def test_golden_recording_delegates(self, program):
        # A snapshot-recording run through the fast engine is executed by
        # the reference loop: hooks fire at exactly the same steps.
        ref_calls, fast_calls = [], []
        ref_cpu, fast_cpu = CPU(program), CPU(program)
        ref_cpu.record_snapshots(100, lambda c, pc: ref_calls.append((c.steps, pc)))
        fast_cpu.record_snapshots(100, lambda c, pc: fast_calls.append((c.steps, pc)))
        ref = ref_cpu.run()
        fast = FastEngine().run(fast_cpu)
        assert_same_result(ref, fast)
        assert ref_calls == fast_calls

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
