"""Tests for the differential oracles, including the zero-interference one."""

from __future__ import annotations

import re

import pytest

from repro.fi.config import FIConfig
from repro.ir import parse_module
from repro.testing.generator import generate_module
from repro.testing.oracles import (
    ORACLES,
    InterpOracle,
    PipelineOracle,
    ZeroInterferenceOracle,
    check_workload_equivalence,
    check_workload_zero_interference,
    compiled_outcome,
    interp_outcome,
)

PRINTING_MODULE = """
@arr = global [4 x i64] [3, 1, 4, 1]
declare void @print_int(i64 %x)
declare void @print_double(f64 %x)

define i64 @main() {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %n, %loop ]
  %p = getelementptr [4 x i64]* @arr, i64 %i
  %v = load i64, i64* %p
  call void @print_int(i64 %v)
  %n = add i64 %i, 1
  %c = icmp slt i64 %n, 4
  br i1 %c, label %loop, label %done
done:
  call void @print_double(f64 2.5)
  ret i64 0
}
"""


class TestRegistry:
    def test_all_oracles_registered(self):
        assert set(ORACLES) == {
            "interp", "pipeline", "zero", "engine", "scheduler"
        }

    def test_oracles_pass_on_clean_module(self):
        module = parse_module(PRINTING_MODULE)
        for oracle in ORACLES.values():
            assert oracle.check(module) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_oracles_pass_on_generated_programs(self, seed):
        module = generate_module(seed)
        for oracle in ORACLES.values():
            assert oracle.check(module) is None

    @pytest.mark.parametrize("budget", [150, 333])
    def test_engine_oracle_passes_runs_cut_by_the_budget(self, budget):
        """A run to the budget stops only a sixteenth of it apart, and both
        engines must still time out at the same step, in the same state."""
        from repro.testing.oracles import EngineOracle

        assert EngineOracle(budget=budget).check(generate_module(0)) is None


class TestOutcomes:
    def test_interp_and_machine_agree_on_output(self):
        module = parse_module(PRINTING_MODULE)
        expected = interp_outcome(module)
        actual = compiled_outcome(module, "O2")
        assert expected.output == actual.output == (
            "3", "1", "4", "1", "2.500000e+00",
        )

    def test_check_does_not_mutate_module(self):
        # compile_ir mutates its input; the oracles must clone first so one
        # oracle's run does not corrupt the next one's view of the module.
        from repro.ir import format_module

        module = parse_module(PRINTING_MODULE)
        before = format_module(module)
        InterpOracle().check(module)
        PipelineOracle().check(module)
        ZeroInterferenceOracle().check(module)
        assert format_module(module) == before


def test_states_compare_bit_for_bit():
    """Every bit of a state counts: a default NaN's sign in a float register
    or a memory word, and two NaN patterns of a memory word (-1 and -7)."""
    import struct

    from repro.backend import compile_minic
    from repro.machine import CPU, load_binary
    from repro.snapshot.state import base_pages, capture_snapshot
    from repro.testing.oracles import comparable

    from tests.conftest import DEMO_SOURCE

    program = load_binary(compile_minic(DEMO_SOURCE, "demo"))
    base = base_pages(program)
    word = program.mem_size - 64

    def state(freg_bits: int, memory_word: int):
        cpu = CPU(program)
        cpu.fregs[3] = struct.unpack("<d", struct.pack("<Q", freg_bits))[0]
        struct.pack_into("<q", cpu.mem, word, memory_word)
        return comparable(capture_snapshot(cpu, 0, base=base), base)

    negated, default = 0xFFF8000000000000, 0x7FF8000000000000
    as_int = struct.unpack("<q", struct.pack("<Q", negated))[0]
    assert state(negated, 5) != state(default, 5)
    assert state(0, as_int) != state(0, default)
    assert state(0, -1) != state(0, -7)
    assert state(default, 5) == state(default, 5)


def _fuzz_program(base_seed: int, index: int):
    """Program ``index`` of ``refine-fuzz --seed base_seed``."""
    from repro.utils.rng import derive_seed

    return generate_module(derive_seed(base_seed, "refine-fuzz", index))


class TestTwoNaNRegressions:
    """Fuzz programs whose float ops meet two different NaNs: their results
    once depended on how warm CPython's bytecode was."""

    @pytest.mark.parametrize("index", [158, 920, 976])
    def test_scheduler_oracle_passes_each_build_in_one_pass(self, index, monkeypatch):
        """Once each program's third fast run ended in a default NaN of the
        other sign, so a first, cold pass over either build failed."""
        from repro.testing.oracles import SchedulerOracle

        real = SchedulerOracle._check_build
        verdicts = []

        def one_pass(self, *args):
            verdicts.append(real(self, *args))
            return verdicts[-1]

        monkeypatch.setattr(SchedulerOracle, "_check_build", one_pass)
        assert ORACLES["scheduler"].check(_fuzz_program(4, index)) is None
        assert verdicts == [None, None]

    def test_blocks_and_the_loop_end_bit_for_bit_alike(self):
        """Seed 2's program 463 once ended with float registers that a block
        and the interpreter loop left as NaNs of different signs."""
        from repro.backend.compiler import CompileOptions, compile_ir
        from repro.engine import FastEngine
        from repro.machine import CPU, load_binary
        from repro.snapshot.state import CleanMemory, base_pages, capture_snapshot
        from repro.testing.oracles import comparable

        module = _fuzz_program(2, 463)
        assert ORACLES["engine"].check(module) is None
        program = load_binary(compile_ir(module, CompileOptions(opt_level="O2")))
        base = base_pages(program)
        ends = []
        for run in (FastEngine().run, CPU.run):
            cpu = CPU(program)
            assert run(cpu).trap is None
            ends.append(comparable(capture_snapshot(cpu, -1, base=CleanMemory(base)), base))
        assert ends[0] == ends[1]


class TestDivergenceDetection:
    def test_interp_oracle_detects_planted_miscompile(self, monkeypatch):
        # Corrupt the backend deliberately; the oracle must notice.
        import repro.backend.compiler as compiler
        from repro.backend.mir import Imm

        real = compiler.run_peephole

        def broken(mf):
            n = real(mf)
            for block in mf.blocks:
                for instr in block.instructions:
                    if instr.opcode == "add":
                        for i, op in enumerate(instr.operands):
                            if isinstance(op, Imm) and op.value == 1:
                                instr.operands[i] = Imm(2)
            return n

        monkeypatch.setattr(compiler, "run_peephole", broken)
        module = parse_module(PRINTING_MODULE)
        divergence = InterpOracle(opt_level="O0").check(module)
        assert divergence is not None
        assert divergence.oracle == "interp"
        assert "disagree" in divergence.describe()

    def test_zero_oracle_detects_behaviour_change(self, monkeypatch):
        # An "instrumentation" that edits a constant is exactly the kind of
        # perturbation the zero-interference property must reject.
        def hostile(binary, config=None):
            from repro.backend.mir import Imm

            for mf in binary.functions.values():
                for block in mf.blocks:
                    for instr in block.instructions:
                        for i, op in enumerate(instr.operands):
                            if isinstance(op, Imm) and op.value == 4:
                                instr.operands[i] = Imm(3)
            return 0

        import repro.testing.oracles as oracles_mod

        monkeypatch.setattr(oracles_mod, "refine_instrument", hostile)
        module = parse_module(PRINTING_MODULE)
        divergence = ZeroInterferenceOracle().check(module)
        assert divergence is not None
        assert divergence.oracle == "zero"

    def test_scheduler_oracle_catches_reach_off_the_wrong_counter(
        self, monkeypatch
    ):
        """A cursor whose sync states report ``refine_count`` whatever the
        tool's counter is exact on a REFINE build; the LLFI build, forked
        on ``llfi_count``, shows the window replay starting too late."""
        from repro.engine import FastEngine

        real = FastEngine.run_cursor

        def refine_reach(self, cpu, *, counter="refine_count", sync_hook=None,
                         **kwargs):
            if sync_hook is not None and counter != "refine_count":
                hook = sync_hook

                def sync_hook(c, pc, reach):
                    return hook(c, pc, c._refine_count)

            return real(self, cpu, counter=counter, sync_hook=sync_hook,
                        **kwargs)

        monkeypatch.setattr(FastEngine, "run_cursor", refine_reach)
        divergence = ORACLES["scheduler"].check(generate_module(0))
        assert divergence is not None
        assert "window replay" in divergence.detail
        assert "(LLFI build)" in divergence.detail

    def test_scheduler_oracle_compares_window_forks_bit_for_bit(
        self, monkeypatch
    ):
        """A window fork at the full pass's pc and step whose memory holds
        -1 where the full pass's fork holds 0 is a different state.  (The
        word is the one above the entry's sentinel return address, which no
        program reads; -1 has a NaN's bit pattern.  Only window forks are
        touched: a full pass or a tail that held the word would end in
        another state than the plain run, which the oracle catches first.)"""
        import struct

        from repro.engine import FastEngine

        real = FastEngine.run_cursor

        def word_at_forks(self, cpu, *, start_pc=None, fork_hook=None,
                          **kwargs):
            hook = fork_hook
            if start_pc is None:
                return real(self, cpu, fork_hook=fork_hook, **kwargs)

            def fork_hook(c, pc, upto):
                struct.pack_into("<q", c.mem, len(c.mem) - 8, -1)
                return hook(c, pc, upto)

            return real(self, cpu, start_pc=start_pc, fork_hook=fork_hook,
                        **kwargs)

        monkeypatch.setattr(FastEngine, "run_cursor", word_at_forks)
        divergence = ORACLES["scheduler"].check(generate_module(0))
        assert divergence is not None
        assert "window replay" in divergence.detail

    @staticmethod
    def _caught_by_state_alone(divergence) -> None:
        """``divergence`` names a state that differs, with equal step and
        cycle totals and equal behaviour."""
        assert divergence is not None
        assert ("end state differs" in divergence.detail
                or re.search(r"state: step \d|sync state at steps \[\d",
                             divergence.detail))
        steps = re.search(r"steps (\d+) vs (\d+)", divergence.detail)
        cycles = re.search(r"half-cycles (\d+) vs (\d+)", divergence.detail)
        for totals in (steps, cycles):
            assert totals is None or totals[1] == totals[2]
        assert divergence.expected is None or divergence.actual is None or (
            divergence.expected.behaviour() == divergence.actual.behaviour())

    def test_stale_exit_flags_are_caught_with_equal_totals(self, monkeypatch):
        """A block that takes its exit flags for unobserved drops its last
        flag write when nothing inside it reads the flags: no step, no
        cycle and no output changes (every reader is in the writer's
        block), so end-of-run counts could not see it — the engine
        oracle's complete states where the fast engine stops do."""
        from repro.engine import FastEngine, blocks
        from repro.engine.cache import TranslationCache
        from repro.machine.semantics import FLAG_READERS, FLAG_WRITERS

        def exit_unobserved(code, start, end):
            live = [True] * (end - start)
            observed = False  # the planted fault: True, at the block's exit
            for pc in range(end - 1, start - 1, -1):
                live[pc - start] = observed
                op = code[pc][0]
                if op in FLAG_READERS and not blocks.is_llfi_visit(code[pc]):
                    observed = True
                elif op in FLAG_WRITERS:
                    observed = False
            return live

        monkeypatch.setattr(blocks, "flag_liveness", exit_unobserved)
        monkeypatch.setattr(FastEngine, "cache", TranslationCache())
        self._caught_by_state_alone(ORACLES["engine"].check(generate_module(0)))

    def test_a_restore_writing_an_unread_word_is_caught_with_equal_totals(
        self, monkeypatch
    ):
        """A restore that leaves -1 in a word no program reads (the one
        above the entry's sentinel return address) changes no step, no
        cycle and no output, so end-of-run counts could not see it — the
        scheduler oracle's complete states of the tails do."""
        import struct

        from repro.snapshot import state

        real = state.restore_snapshot

        def restore(cpu, snap):
            real(cpu, snap)
            struct.pack_into("<q", cpu.mem, len(cpu.mem) - 8, -1)

        monkeypatch.setattr(state, "restore_snapshot", restore)
        self._caught_by_state_alone(
            ORACLES["scheduler"].check(generate_module(0)))

    def test_scheduler_ride_pass_catches_an_unaligned_read_noted_low_only(
        self, monkeypatch
    ):
        """A build whose array load reads 4 bytes past each element's start
        (the high half of one word, the low half of the next) is recorded
        exactly by the access log; a log that notes such a read as its low
        word only lets the ride pass perturb the high word, which the
        interval does read."""
        import dataclasses

        import repro.testing.oracles as oracles_mod
        from repro.backend.mir import Mem
        from repro.campaign import schedule

        real_instrument = oracles_mod.refine_instrument

        def unaligned(binary, config=None):
            sites = real_instrument(binary, config)
            for mf in binary.functions.values():
                for block in mf.blocks:
                    for instr in block.instructions:
                        for i, op in enumerate(instr.operands):
                            if (instr.opcode == "load" and isinstance(op, Mem)
                                    and op.base is not None and op.frame_slot is None):
                                instr.operands[i] = dataclasses.replace(op, disp=op.disp + 4)
            return sites

        real_accesses = schedule._accesses

        def low_word_only(notes):
            return real_accesses([a & ~7 if a >= 0 else a for a in notes])

        module = parse_module(PRINTING_MODULE)
        oracle = ORACLES["scheduler"]
        monkeypatch.setattr(schedule, "_accesses", low_word_only)
        assert oracle.check(module) is None  # every access aligned: no mutant
        monkeypatch.setattr(oracles_mod, "refine_instrument", unaligned)
        divergence = oracle.check(module)
        assert divergence is not None
        assert "ride pass" in divergence.detail
        assert "(REFINE build)" in divergence.detail
        monkeypatch.setattr(schedule, "_accesses", real_accesses)
        assert oracle.check(module) is None


class TestCampaignDivergenceDetection:
    """``check_workload_equivalence`` is the one referee between production
    campaigns and the oracle, so it must be shown to bite: a fault planted
    in each production-only mechanism yields a divergence that names the
    cell, the experiment and the field.  (That an unplanted tree passes the
    same check is ``tests/campaign/test_schedule.py``'s business.)"""

    CELL = re.compile(
        r"EP/(LLFI|REFINE|PINFI): production campaign \((whole|sharded)\) "
        r"diverged from the reference campaign at experiment \d+, "
        r"field '(\w+)'"
    )

    def _caught(self, field, how=None):
        divergence = check_workload_equivalence("EP", n=12)
        assert divergence is not None
        assert divergence.oracle == "campaign"
        match = self.CELL.search(divergence.detail)
        assert match, divergence.detail
        assert match[3] == field
        assert how is None or match[2] == how
        assert divergence.seed is not None

    def test_splice_dropping_a_golden_line_is_caught(self, monkeypatch):
        from repro.campaign.schedule import TriggerScheduler

        real = TriggerScheduler._splice

        def lossy(self, cpu, at, ending):
            result = real(self, cpu, at, ending)
            if len(result.output) > len(cpu.output):
                result.output.pop()
            return result

        monkeypatch.setattr(TriggerScheduler, "_splice", lossy)
        self._caught("outcome")

    def test_window_starting_one_state_late_is_caught(self, monkeypatch):
        from bisect import bisect_left

        from repro.campaign.schedule import GoldenTimeline

        def late(self, trigger):
            i = min(bisect_left(self.reaches, trigger), len(self.reaches) - 1)
            return self.sync_states[self.sync_steps[i]]

        monkeypatch.setattr(GoldenTimeline, "start_below", late)
        # only a lease replaying a window asks where to start
        self._caught("outcome", how="sharded")

    def test_block_emitter_skewing_a_flag_is_caught(self, monkeypatch):
        """A skew in how blocks render an entry — their flag writes never
        set OF — leaves the interpreter loop, rendered from the same entry
        by its own context, exact; the referee sees the two disagree.  The
        skews also count the flag writes blocks render: only live ones."""
        from collections import OrderedDict

        import repro.engine.blocks as blocks
        from repro.engine.cache import GLOBAL_CACHE
        from repro.machine.semantics import SEMANTICS, Flags

        real = blocks._Block.emit
        skewed, writers = [], []

        def never_overflows(self, op, t, out, i=None, live=True):
            start = len(out)
            real(self, op, t, out, i, live)
            if any(isinstance(item, Flags) and "|= 2048" in item.text
                   for item in SEMANTICS[op].code):
                writers.append(live)
            skewed.extend(text for text in out[start:] if "\n    fl |= 2048" in text)
            out[start:] = [text.replace("\n    fl |= 2048", "\n    pass")
                           for text in out[start:]]

        monkeypatch.setattr(blocks._Block, "emit", never_overflows)
        # translate afresh, and leave no skewed translation behind
        monkeypatch.setattr(GLOBAL_CACHE, "_mem", OrderedDict())
        monkeypatch.setattr(GLOBAL_CACHE, "_factories", OrderedDict())
        self._caught("steps")
        # only a flag write a reader or the block's exit observes is
        # rendered: one skew per live writer, and none for the dead ones
        assert False in writers
        assert len(skewed) == writers.count(True) > 0

    def test_a_flip_that_makes_a_nan_is_not_a_divergence(self):
        """Found at n = 320 on lulesh: bit 62 of 1.4 is a NaN, and two
        records that agree on it compared unequal (``nan != nan``)."""
        import dataclasses
        import struct
        from types import SimpleNamespace

        from repro.campaign import make_tool, run_campaign
        from repro.testing.oracles import _first_mismatch
        from tests.conftest import DEMO_SOURCE

        result = run_campaign(
            make_tool("REFINE", DEMO_SOURCE, "demo"), 4, keep_records=True
        )

        def with_value_after(bits):
            (value,) = struct.unpack("<d", struct.pack("<Q", bits))
            records = [dataclasses.replace(r) for r in result.records]
            records[2].fault = dataclasses.replace(
                records[2].fault, value_after=value
            )
            return SimpleNamespace(records=records)

        quiet, other = 0x7FF8000000000000, 0x7FF8000000000001
        assert _first_mismatch(with_value_after(quiet), with_value_after(quiet)) is None
        # ... and the comparison is still of the bits, not of "some NaN"
        assert _first_mismatch(with_value_after(quiet), with_value_after(other)) == (
            result.records[2].index, "fault"
        )


class TestZeroInterference:
    def test_real_instrumentation_is_invisible(self):
        module = parse_module(PRINTING_MODULE)
        assert ZeroInterferenceOracle().check(module) is None

    @pytest.mark.parametrize("instrs", ["stack", "arithm", "mem", "all"])
    def test_every_candidate_class_is_invisible(self, instrs):
        module = parse_module(PRINTING_MODULE)
        oracle = ZeroInterferenceOracle(
            config=FIConfig(enabled=True, instrs=instrs)
        )
        assert oracle.check(module) is None

    def test_workload_helper(self):
        assert check_workload_zero_interference("CoMD") is None
