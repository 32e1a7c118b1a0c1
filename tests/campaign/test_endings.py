"""Overrun -> known ending: a tail still running at the golden length is
spliced onto the recorded ending of an earlier tail that was in exactly its
state (step 6 of :mod:`repro.campaign.schedule`); and rides: a tail that
differs from the golden run only in memory the golden run does not read
jumps along the golden timeline (step 7).

The equivalence matrices elsewhere run n = 4..24, where no hang repeats, so
they would pass with this mechanism broken.  Here the program is built to
hang and to hang *again*: its loop bound is one of four global words, so the
memory fault models (704 EP-style (cell, bit) pairs shrunk to 256 / 64) hit
it over and over at n = 160, and every cell asserts ``ending_hits > 0`` next
to the record-for-record comparison with the oracle.
"""

import dataclasses
import functools
import random
import struct

import pytest

from repro.campaign import (
    EventLog,
    make_tool,
    read_events,
    resolve_trigger_order,
    run_campaign,
)
from repro.campaign import schedule
from repro.campaign.io import experiment_event_fields
from repro.campaign.schedule import TriggerScheduler
from repro.engine import fast as fast_module
from repro.fi.tools import TOOL_CLASSES
from repro.snapshot import restore_snapshot
from repro.snapshot.state import PAGE_SIZE
from repro.testing import reference_campaign

#: Golden run: 10 iterations, a few hundred steps.  A fault that makes LIMIT
#: huge never fails ``k < LIMIT`` again and burns the 10x budget; ``k``,
#: ``seed`` and ``acc`` advance every iteration, so no state ever recurs
#: *within* a tail — but two tails that flipped the same bits at different
#: iterations are the same machine from the later fire point on.
HANG_SOURCE = """
int LIMIT = 10;
int acc[3];

int main() {
  int seed = 7;
  for (int k = 0; k < LIMIT; k = k + 1) {
    seed = (seed * 1103515245 + 12345) % 2147483648;
    acc[k % 3] = acc[k % 3] + seed % 10;
  }
  print_int(acc[0] + acc[1] + acc[2]);
  return 0;
}
"""

N = 160
SEED = 0xC0FFEE
MODELS = ("memory-cell", "cache-line")
TOOLS = sorted(TOOL_CLASSES)


@functools.lru_cache(maxsize=None)
def _tool(tool_name, model):
    return make_tool(tool_name, HANG_SOURCE, "hang", fault_model=model)


def _fields(rec):
    """Everything a record says, minus the provenance pair."""
    fields = experiment_event_fields(rec)
    del fields["engine"], fields["snapshot_hit"]
    return fields


@functools.lru_cache(maxsize=None)
def _oracle(tool_name, model):
    """The cell's reference campaign (read-only: shared by tests)."""
    result = reference_campaign(
        tool_name, HANG_SOURCE, "hang", N, SEED, fault_model=model
    )
    return {rec.index: _fields(rec) for rec in result.records}


def _run(sched, indices=range(N)):
    return {rec.index: _fields(rec) for rec in sched.run_batch(SEED, indices)}


class TestProductionVsOracle:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("tool_name", TOOLS)
    def test_records_equal_the_oracle_and_endings_are_reused(
        self, tool_name, model
    ):
        sched = TriggerScheduler(_tool(tool_name, model), N)
        assert _run(sched) == _oracle(tool_name, model)
        # the comparison above is not vacuous: endings were spliced
        assert sched.stats.ending_hits > 0 and sched.stats.endings > 0

    def test_tail_steps_saved_is_steps_not_executed(self, monkeypatch):
        """perfbench derives ``campaign.tail_steps`` as record steps minus
        the two ``*_steps_saved`` counters: a reused ending and a ride must
        be in them, or a traced lap charges its time to steps nobody ran.
        A ride moves ``cpu.steps`` inside ``resume``, so each ride's jump is
        measured on its own and taken off what ``resume`` moved."""
        for tool, reused in (
            (_tool("REFINE", "cache-line"), "ending"),
            (make_tool("REFINE", RIDE_SOURCE, "ride", fault_model="memory-cell"),
             "ride"),
        ):
            resume = tool.engine.resume
            executed = []

            def counting(cpu, *args):
                before = cpu.steps
                result = resume(cpu, *args)
                executed.append(cpu.steps - before)
                return result

            monkeypatch.setattr(tool.engine, "resume", counting)
            sched = TriggerScheduler(tool, N)
            real_ride = sched._ride

            def ride(cpu, j):
                before = cpu.steps
                went = real_ride(cpu, j)
                executed.append(before - cpu.steps)
                return went

            sched._ride = ride
            got = _run(sched)
            stats = sched.stats
            if reused == "ending":
                assert stats.ending_hits > 0
            else:
                assert stats.rides > 0 and stats.ridden_steps > 0
            assert sum(executed) == (
                sum(rec["steps"] for rec in got.values())
                - stats.prefix_steps_saved - stats.tail_steps_saved
            )

    @pytest.mark.parametrize("tool_name", TOOLS)
    def test_shards_in_any_order_on_one_scheduler_or_many(self, tool_name):
        """Which batch recorded an ending — or whether any did — never
        shows in a record; only ``ending_hits`` may differ."""
        tool = _tool(tool_name, "cache-line")
        want = _oracle(tool_name, "cache-line")
        order = [i for _, i in resolve_trigger_order(tool, SEED, range(N))]
        shards = [order[lo:lo + 40] for lo in range(0, N, 40)]
        shuffled = list(shards)
        random.Random(7).shuffle(shuffled)
        hits = []
        for arrival in (shards, shards[::-1], shuffled):
            sched = TriggerScheduler(tool, N)
            got, reused = {}, 0
            for shard in arrival:
                got.update(_run(sched, shard))
                reused += sched.stats.ending_hits
            assert got == want
            hits.append(reused)
        got, reused = {}, 0
        for shard in shards:  # each on a scheduler that has seen nothing
            sched = TriggerScheduler(tool, N)
            got.update(_run(sched, shard))
            reused += sched.stats.ending_hits
        assert got == want
        assert all(h > reused > 0 for h in hits), (hits, reused)


class TestTelemetry:
    def test_events_carry_both_counters(self, tmp_path):
        with EventLog(tmp_path / "events.jsonl") as log:
            run_campaign(_tool("REFINE", "cache-line"), N, SEED, events=log)
        events = read_events(tmp_path / "events.jsonl")
        finish = [e for e in events if e["event"] == "campaign_finish"][0]
        scheduler = finish["scheduler"]
        assert scheduler["ending_hits"] > 0 and scheduler["endings"] > 0
        last = [e for e in events if e["event"] == "scheduler_stats"][-1]
        assert all(last[k] == scheduler[k] for k in scheduler)


@pytest.fixture(scope="module")
def cell():
    """A REFINE x memory-cell scheduler with endings on record, one of
    them, and a fault record to mark a restored CPU as "fault fired"."""
    sched = TriggerScheduler(_tool("REFINE", "memory-cell"), N)
    fault = list(sched.run_batch(SEED, range(N)))[0].fault
    ref, ending = sched._endings[0]
    assert sched.tool.profile.steps <= ref.steps < ending.steps
    return sched, ref, fault


def _paused_in(sched, ref, fault):
    """The pooled CPU as a tail paused in state ``ref`` at its step, the
    first stop at or past G."""
    cpu = sched._cpu_for(None)
    restore_snapshot(cpu, ref)
    cpu.fault = fault
    sched._tail_plan = None
    return cpu


def _spy(sched, name, note):
    """Call ``note(cpu)`` ahead of every ``sched.<name>(cpu, pc, ...)``."""
    real = getattr(sched, name)

    def spied(cpu, *args):
        note(cpu)
        return real(cpu, *args)

    setattr(sched, name, spied)


def _nan(payload):
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8 << 48 | payload))[0]


def _untouched_page(sched, ref):
    """A page neither the golden run nor the recorded tail ever dirtied."""
    dirty = set(ref.pages)
    for state in sched._timeline.sync_states.values():
        dirty |= set(state.pages)
    return next(i for i in range(len(sched._clean.pages)) if i not in dirty)


def _flip_byte_in_clean_page(sched, cpu, ref):
    cpu.mem[_untouched_page(sched, ref) * PAGE_SIZE + 17] ^= 1


def _negate_a_zero(sched, cpu, ref):
    i = next(i for i, f in enumerate(ref.fregs) if struct.pack("<d", f) == bytes(8))
    cpu.fregs[i] = -0.0
    assert cpu.fregs[i] == ref.fregs[i], "equal as floats, not as bits"


def _flip_a_flag(sched, cpu, ref):
    cpu.flags ^= 1


def _flip_an_ireg(sched, cpu, ref):
    cpu.iregs[3] ^= 1 << 40


def _stay_attached(sched, cpu, ref):
    cpu._attached = True


def _unfire(sched, cpu, ref):
    cpu.fault = None


def _shift_the_step(sched, cpu, ref):
    cpu.steps += 1


def _hold_the_dwell_window_open(sched, cpu, ref):
    plan = sched.tool.plan_from_seed(1)
    plan.target_index, plan.last_index = 1, cpu._refine_count + 1
    sched._tail_plan = plan


class TestNearMisses:
    """Each state below is a recorded reference state with one thing
    changed; none may be spliced."""

    def test_the_recorded_state_itself_splices(self, cell):
        sched, ref, fault = cell
        cpu = _paused_in(sched, ref, fault)
        assert sched._on_sync(cpu, ref.pc, 0)
        assert sched._spliced[0] is ref
        assert not sched._on_sync(cpu, ref.pc + 1, 0)
        # a window that closed on the last candidate before G is closed
        plan = sched.tool.plan_from_seed(1)
        plan.target_index, plan.last_index = 1, cpu._refine_count
        sched._tail_plan = plan
        assert sched._on_sync(cpu, ref.pc, 0)

    @pytest.mark.parametrize("perturb", [
        _flip_byte_in_clean_page, _negate_a_zero, _flip_a_flag,
        _flip_an_ireg, _stay_attached, _unfire, _hold_the_dwell_window_open,
        _shift_the_step,
    ])
    def test_one_difference_is_a_miss(self, cell, perturb):
        sched, ref, fault = cell
        cpu = _paused_in(sched, ref, fault)
        perturb(sched, cpu, ref)
        hits = sched.stats.ending_hits
        assert not sched._on_sync(cpu, ref.pc, 0)
        assert sched.stats.ending_hits == hits

    def test_nan_payloads_compare_bitwise(self, cell):
        sched, ref, fault = cell
        fregs = (_nan(1),) + ref.fregs[1:]
        sched._endings.appendleft(
            (dataclasses.replace(ref, fregs=fregs), sched._endings[0][1])
        )
        try:
            cpu = _paused_in(sched, ref, fault)
            cpu.fregs[0] = _nan(1)  # same bits, and NaN != NaN as floats
            assert sched._on_sync(cpu, ref.pc, 0)
            cpu.fregs[0] = _nan(2)
            assert not sched._on_sync(cpu, ref.pc, 0)
        finally:
            sched._endings.popleft()

    def test_a_tail_that_halts_exactly_at_the_golden_length_never_pauses(self):
        tool = _tool("REFINE", "memory-cell")
        sched = TriggerScheduler(tool, N)
        paused = []
        _spy(sched, "_on_overrun", lambda cpu: paused.append(cpu.steps))
        steps = [rec["steps"] for rec in _run(sched).values()]
        golden = tool.profile.steps
        # each tail that overran pauses once, at its first stop at or past G
        assert len(paused) == sum(s > golden for s in steps)
        assert all(p >= golden for p in paused)
        # ... and most tails are exactly that long without having rejoined
        assert steps.count(golden) > sched.stats.rejoins + N // 2

    @pytest.mark.parametrize("tool_name", ["REFINE", "PINFI"])
    def test_open_dwell_windows_drop_the_point_or_fail_the_gate(
        self, tool_name, monkeypatch
    ):
        """Under a stuck-at window longer than the run, the engine strides
        in careful windows, and a stride's end is the only stop there is.
        A window that overshoots G drops the point (the tail runs on); a
        tail whose window ends at G does pause there, with its dwell window
        still open: nothing is recorded, nothing reused, every record
        exact.  (Short windows, so that some of them end at G.)"""
        monkeypatch.setattr(fast_module, "CAREFUL_WINDOW", 5)
        model = "stuck-at:dwell=100000"
        tool = _tool(tool_name, model)
        sched = TriggerScheduler(tool, N)
        golden = tool.profile.steps
        at_golden = []
        _spy(sched, "_on_sync", lambda cpu: at_golden.append(cpu.steps >= golden))
        got = _run(sched)
        assert got == _oracle(tool_name, model)
        overran = sum(rec["steps"] > golden for rec in got.values())
        assert 0 < sum(at_golden) < overran
        assert sched.stats.endings == 0 and sched.stats.ending_hits == 0


class TestPlantedFaults:
    """The oracle comparison above bites: break the mechanism, see it."""

    def _diverges(self):
        got = _run(TriggerScheduler(_tool("REFINE", "cache-line"), N))
        want = _oracle("REFINE", "cache-line")
        return {
            field
            for index in want for field in want[index]
            if got[index][field] != want[index][field]
        }

    def test_skipping_the_page_compare_is_caught(self, monkeypatch):
        def registers_only(self, cpu, pc, ref):
            return (
                pc == ref.pc and cpu.flags == ref.flags
                and tuple(cpu.iregs) == ref.iregs
            )

        monkeypatch.setattr(TriggerScheduler, "_same_state", registers_only)
        assert {"steps", "outcome"} <= self._diverges()

    def test_not_subtracting_the_counts_at_the_splice_point_is_caught(
        self, monkeypatch
    ):
        real = TriggerScheduler._splice

        def double_counting(self, cpu, at, ending):
            return real(self, cpu, dataclasses.replace(at, half_cycles=0), ending)

        monkeypatch.setattr(TriggerScheduler, "_splice", double_counting)
        assert self._diverges() == {"cycles"}


class TestBound:
    def test_oldest_out_and_records_unchanged(self, monkeypatch):
        tool = _tool("PINFI", "cache-line")
        production = TriggerScheduler(tool, N)
        _run(production)  # held to the oracle above: it overflows, too
        assert production.stats.endings > schedule.ENDINGS_KEPT
        assert len(production._endings) == schedule.ENDINGS_KEPT

        monkeypatch.setattr(schedule, "ENDINGS_KEPT", 3)
        sched = TriggerScheduler(tool, N)
        got, recorded = {}, []
        for rec in sched.run_batch(SEED, range(N)):
            got[rec.index] = _fields(rec)
            assert len(sched._endings) <= 3
            if sched._endings and sched._endings[-1] not in recorded[-1:]:
                recorded.append(sched._endings[-1])
        assert got == _oracle("PINFI", "cache-line")
        assert len(recorded) == sched.stats.endings > 3
        # first in, first out
        assert all(a is b for a, b in zip(sched._endings, recorded[-3:]))
        assert 0 < sched.stats.ending_hits < production.stats.ending_hits
        golden = tool.profile.steps
        assert all(
            at.steps >= golden and ending.steps >= 2 * golden
            for at, ending in recorded
        )


#: Golden run: 200 iterations over ``acc``, about 5,000-14,000 steps a
#: build.  ``unused`` is never touched and ``late`` is read once, at the
#: end: a memory fault there leaves a tail equal to the golden run in
#: everything but that word, which the golden run does not read until then.
RIDE_SOURCE = """
int unused[32];
int late = 3;
int acc[4];

int main() {
  int seed = 7;
  for (int k = 0; k < 200; k = k + 1) {
    seed = (seed * 1103515245 + 12345) % 2147483648;
    acc[k % 4] = acc[k % 4] + seed % 10;
  }
  print_int(acc[0] + acc[1] + acc[2] + acc[3] + late);
  return 0;
}
"""


@functools.lru_cache(maxsize=None)
def _ride_cell(tool_name, model="memory-cell"):
    """``(scheduler, records by index, rides)`` of the ride program's cell,
    each ride as ``(fault address, sync state index, what it returned,
    the step it left the tail at, whether the interval from there had
    been recorded)``."""
    tool = make_tool(tool_name, RIDE_SOURCE, "ride", fault_model=model)
    sched = TriggerScheduler(tool, N)
    rides = []
    real_ride = sched._ride

    def ride(cpu, j):
        went = real_ride(cpu, j)
        timeline = sched._timeline
        at = timeline.sync_steps.index(cpu.steps)
        rides.append((cpu.fault.address, j, went, cpu.steps, at in timeline.accesses))
        return went

    sched._ride = ride
    return sched, _run(sched), rides


@functools.lru_cache(maxsize=None)
def _ride_oracle(tool_name, model="memory-cell"):
    result = reference_campaign(
        tool_name, RIDE_SOURCE, "ride", N, SEED, fault_model=model
    )
    return {rec.index: _fields(rec) for rec in result.records}


def _word_of(sched, name):
    return sched.tool.program.globals_addr[name] // 8


class TestRides:
    @pytest.mark.parametrize("tool_name", TOOLS)
    def test_a_fault_in_memory_never_read_rides_to_the_golden_ending(
        self, tool_name
    ):
        sched, got, rides = _ride_cell(tool_name)
        assert got == _ride_oracle(tool_name)
        assert sched.stats.rides > 0 and sched.stats.ridden_steps > 0
        lo = _word_of(sched, "unused")
        unused = [ride for ride in rides if lo <= ride[0] // 8 < lo + 32]
        # it stops only before an interval not recorded yet (the first
        # RECORD_AT_ASK - 1 rides to ask for one are refused it)
        assert any(went is True for _, _, went, _, _ in unused)
        assert all(went is True or not recorded for _, _, went, _, recorded in unused)
        golden = sched.tool.profile.steps
        flipped = [
            rec for rec in got.values()
            if rec["fault"]["address"] is not None
            and lo <= rec["fault"]["address"] // 8 < lo + 32
        ]
        assert flipped and all(
            rec["steps"] == golden and rec["outcome"] == "benign" for rec in flipped
        )

    @pytest.mark.parametrize("tool_name", TOOLS)
    def test_a_fault_on_a_word_read_later_stops_its_ride_there(self, tool_name):
        """A ride lands on the sync state before the first interval that
        reads the word, and none it crossed reads it."""
        sched, got, rides = _ride_cell(tool_name)
        timeline = sched._timeline
        late = _word_of(sched, "late")
        landed = [(j, steps) for address, j, went, steps, recorded in rides
                  if address == late * 8 and type(went) is int and recorded]
        assert landed
        for j, steps in landed:
            k = timeline.sync_steps.index(steps)
            assert late in timeline.accesses[k].reads
            assert all(late not in timeline.accesses[i].reads for i in range(j, k))

    @pytest.mark.parametrize("tool_name", ["REFINE", "PINFI"])
    def test_an_open_dwell_window_never_rides(self, tool_name):
        model = "stuck-at:dwell=100000"
        sched, got, rides = _ride_cell(tool_name, model)
        assert got == _ride_oracle(tool_name, model)
        assert rides == [] and sched.stats.rides == 0

    def test_an_attached_pinfi_never_rides(self):
        """A tail paused at a golden sync state, equal to it but for one
        word no interval reads, rides; the same tail still attached does
        not."""
        sched, got, _ = _ride_cell("PINFI")
        timeline = sched._timeline
        ref = timeline.sync_states[timeline.sync_steps[2]]
        fault = next(rec for rec in sched.run_batch(SEED, [0])).fault
        word = _word_of(sched, "unused")
        for attached, rides in ((True, False), (False, True)):
            cpu = _paused_in(sched, ref, fault)
            cpu._attached = attached
            cpu.mem[word * 8] ^= 1
            assert bool(sched._on_sync(cpu, ref.pc, 0)) is rides

    def test_riding_one_interval_past_a_read_is_caught(self, monkeypatch):
        """A ride that lands where it should and then crosses the interval
        that reads a word where the tail differs skips what that read
        changes: the records no longer equal the oracle."""
        real_ride = TriggerScheduler._ride

        def one_too_far(self, cpu, j):
            went = real_ride(self, cpu, j)
            if type(went) is not int:
                return went
            timeline = self._timeline
            k = timeline.sync_steps.index(cpu.steps)
            access = timeline.accesses.get(k)
            if access is None:
                return went
            reads = self._live[access.reads].tobytes()
            timeline.accesses[k] = access._replace(read_values=reads)
            try:
                again = real_ride(self, cpu, k)
            finally:
                timeline.accesses[k] = access
            return went if again is False else again

        monkeypatch.setattr(TriggerScheduler, "_ride", one_too_far)
        tool = make_tool("REFINE", RIDE_SOURCE, "ride", fault_model="memory-cell")
        got = _run(TriggerScheduler(tool, N))
        want = _ride_oracle("REFINE")
        # (``late`` is only printed: the golden ending's output is the tell)
        assert "outcome" in {
            field for i in want for field in want[i] if got[i][field] != want[i][field]
        }
