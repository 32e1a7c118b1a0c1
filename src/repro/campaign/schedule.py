"""How a campaign executes: trigger order, one golden run, forked tails.

A campaign is n single-fault runs of one binary, and every one of them is
the fault-free run up to its injection point.  Re-executing that prefix n
times is the whole cost of a naive campaign (ZOFI forks the original
process at the injection point for the same reason; Relyzer sorts its
fault list by dynamic position).  So nothing here runs it twice:

1. **Resolve** every experiment's trigger counter up front (a fault plan is
   a pure function of its seed) and sort the batch by ``(trigger, index)``.
2. **Advance one cursor CPU** monotonically along the golden run with the
   fast engine (:meth:`repro.engine.fast.FastEngine.run_cursor`), on the
   same block loop every faulty tail runs on: the next pending trigger is
   one more term of its horizon, a count on the tool's trigger counter
   like a fire target.  Whenever the next block would cross a pending
   trigger, capture one cheap copy-on-write fork
   (:func:`repro.snapshot.state.capture_snapshot`) at the block entry; one
   fork covers every trigger inside that block.
   Within a batch the cursor never rewinds, so the batch pays O(one golden
   run) of prefix execution instead of O(sum of per-experiment trigger
   distances).  The cursor never leaves its blocks: forks and sync states
   alike are taken at block entries.
3. **Run each faulty tail** from its fork to completion, in trigger order.
4. **Golden rejoin**: the cursor also records full-state sync snapshots, one
   at the first block entry at or past each interval multiple.  A faulty
   tail pauses at the first stop at or past each of those steps — a block
   entry or the end of an interpreted stride
   (:meth:`~repro.engine.fast.FastEngine.resume`) — and, once its
   architectural state (pc, flags, integer registers, bitwise float
   registers, all memory pages) equals the golden state at the same step,
   the rest of the run is *spliced* from the golden suffix instead of
   executed: equal state at equal step count implies identical future
   behaviour, and the tool counters are behaviourally inert once the
   single-shot fault has fired.  Outputs, counts, steps and exit code of a
   spliced result are bit-identical to running the tail out natively.  No
   rejoin is lost to where a tail stops: a golden state sits on a block
   leader, so a tail in that state at that step is on that leader, which is
   never strictly inside a block, a fire stride or a completion stride.
   (A careful window can cross a leader, but a tail is never spliced while
   its dwell window is open.)
   **How many** sync states is sized to the cell: S of them cost the cursor
   S captures (c <= 160 us each, 1.5 % of a mean golden run of G steps),
   while each of the r n tails that rejoin (r = 0.3-0.5) runs about 1.5 G/S
   steps past where it re-converged, so S c + 1.5 r n G / S is least at S
   proportional to sqrt(n).  ``4 * isqrt(n)`` puts the paper's n = 1068 at
   the 128 it has always had (the cap) and n = 24 at 16; n is the cell's,
   never a batch's, so every executor records the same timeline.
5. **Keep the timeline.**  Everything the first pass learned about the
   golden run — the sync states in step order, the step/count/exit totals —
   is a :class:`GoldenTimeline` the scheduler retains, so one scheduler
   serves any number of batches of the same tool (the shards of one cell,
   in any order).  A later batch restores the nearest retained sync state
   below its first trigger — a block entry, so the replay starts on a
   block — and replays the cursor only across its own trigger window; its
   tails rejoin and splice against the retained timeline.
6. **Overrun → known ending.**  The golden ending is only the ending known
   in advance.  Every tail's last sync point is step G, the golden length:
   a tail still running at its first stop at or past G has overrun — on a
   small data segment typically a hang that will burn the whole 10x budget
   — and its state (step 4's comparison) is looked up among the states
   earlier tails of this scheduler overran in, at the same step.  A match
   splices that tail's recorded :class:`Ending`, exact for the reason step
   4 is: equal state at an equal step under an equal budget has one
   future.  A miss runs on, and its ending is kept only if it ran at least
   one more golden length.  Faults repeat — n draws from a (cell, bit)
   space that on a small data segment is not much larger than n — so a
   hang is executed once per distinct state, not once per experiment.  The
   table stays with the scheduler, like the timeline, and holds
   :data:`ENDINGS_KEPT` entries, oldest out.

Bit-identity bar: every :class:`~repro.campaign.results.ExperimentRecord`
field except the provenance pair ``engine``/``snapshot_hit`` matches the
oracle — the interpreter loop, index order, every run from instruction 0
(:func:`repro.testing.reference_campaign`) — exactly; ``total_cycles``
matches to float summation order.
"""

from __future__ import annotations

import struct
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from math import isqrt

from repro.campaign.classify import classify
from repro.campaign.results import ExperimentRecord
from repro.errors import CampaignError
from repro.fi.tools import GOLDEN_BUDGET, FITool
from repro.machine.cpu import ExecutionResult
from repro.snapshot.state import (
    PAGE_SIZE,
    CpuSnapshot,
    base_pages,
    capture_snapshot,
    restore_snapshot,
)
from repro.utils.rng import derive_seed

#: What ``campaign_finish.schedule`` and the results database's
#: ``campaigns.schedule`` column say (logs and rows written before this was
#: the only order may say ``index``).
SCHEDULE = "trigger"

#: At most this many sync states along the golden run (what a cell of the
#: paper's n = 1068 gets), floored so tiny workloads don't drown in captures.
SYNC_DENSITY = 128
MIN_SYNC_INTERVAL = 256

#: Rejoin-check thinning: check the first few sync points after the fork
#: densely (most convergent runs re-join within one interval), then back
#: off geometrically so divergent runs pay almost nothing.
REJOIN_DENSE = 2
REJOIN_GROWTH = 4
REJOIN_MAX_CHECKS = 8

#: Stop attempting full-memory comparisons for a tail after this many
#: expensive near-misses (registers matched, memory did not).
REJOIN_MAX_MEM_MISSES = 2

#: Recorded endings one scheduler keeps, oldest out (each holds a reference
#: state's dirty pages and two per-pc count vectors).
ENDINGS_KEPT = 64


@dataclass
class PhaseTimes:
    """Wall-clock breakdown of one campaign's execution phases."""

    translate_s: float = 0.0  #: trigger resolution (every plan of the batch)
    prefix_s: float = 0.0     #: golden cursor execution (minus fork capture)
    fork_s: float = 0.0       #: fork + sync-state snapshot capture
    tail_s: float = 0.0       #: faulty tail execution (fork to completion)
    classify_s: float = 0.0   #: outcome classification

    def as_dict(self) -> dict:
        return {
            "translate_s": round(self.translate_s, 4),
            "prefix_s": round(self.prefix_s, 4),
            "fork_s": round(self.fork_s, 4),
            "tail_s": round(self.tail_s, 4),
            "classify_s": round(self.classify_s, 4),
        }

    def accumulate(self, fields: dict) -> None:
        """Fold another breakdown (e.g. a worker's task's) into this one."""
        self.translate_s += fields.get("translate_s", 0.0)
        self.prefix_s += fields.get("prefix_s", 0.0)
        self.fork_s += fields.get("fork_s", 0.0)
        self.tail_s += fields.get("tail_s", 0.0)
        self.classify_s += fields.get("classify_s", 0.0)


@dataclass
class SchedulerStats:
    """Counters behind the ``scheduler_stats`` telemetry event."""

    experiments: int = 0
    #: forks captured along the cursor / tails served from one
    forks: int = 0
    fork_hits: int = 0
    #: safety-net fallbacks through the ordinary inject path
    scratch: int = 0
    #: tails spliced onto the golden suffix after provable re-convergence
    rejoins: int = 0
    #: endings recorded from tails that overran the golden length / tails
    #: spliced onto one (a hit needs an earlier tail *of this scheduler*, so
    #: unlike the rest this does not sum to the same total however a cell is
    #: split across executors)
    endings: int = 0
    ending_hits: int = 0
    #: full-state reference snapshots recorded along the cursor
    sync_states: int = 0
    cursor_steps: int = 0
    #: golden-prefix instructions not re-executed thanks to forks
    prefix_steps_saved: int = 0
    #: tail instructions not re-executed thanks to a spliced ending (the
    #: golden one or a recorded one)
    tail_steps_saved: int = 0

    def as_dict(self) -> dict:
        return {
            "experiments": self.experiments,
            "forks": self.forks,
            "fork_hits": self.fork_hits,
            "scratch": self.scratch,
            "rejoins": self.rejoins,
            "endings": self.endings,
            "ending_hits": self.ending_hits,
            "sync_states": self.sync_states,
            "cursor_steps": self.cursor_steps,
            "prefix_steps_saved": self.prefix_steps_saved,
            "tail_steps_saved": self.tail_steps_saved,
        }

    def accumulate(self, fields: dict) -> None:
        """Fold another scheduler's counters (e.g. a worker's task's) into
        this one."""
        for key, val in fields.items():
            if hasattr(self, key):
                setattr(self, key, getattr(self, key) + val)


def resolve_trigger_order(
    tool: FITool, base_seed: int, indices
) -> list[tuple[int, int]]:
    """``(trigger, index)`` pairs for a batch, sorted by ``(trigger, index)``.

    Shared by the scheduler and a cell's plan
    (:func:`repro.campaign.cell.trigger_order`: the order leases are cut
    in), so every layer agrees on the timeline order.
    """
    pairs = []
    for index in indices:
        seed = derive_seed(base_seed, tool.workload, tool.name, index)
        plan = tool.plan_from_seed(seed)
        pairs.append((plan.target_index, index))
    pairs.sort()
    return pairs


@dataclass(frozen=True)
class Ending:
    """How a run ended: what a tail takes over when it is spliced onto a
    state that run passed through (:meth:`TriggerScheduler._splice`)."""

    trap: str | None
    trap_pc: int
    exit_code: int
    steps: int
    #: per-static-instruction execution counts at the end (packed ``q``: a
    #: scheduler may hold :data:`ENDINGS_KEPT` of these)
    counts: array
    #: every line printed by the end
    output: tuple[str, ...]

    @classmethod
    def of(cls, result: ExecutionResult) -> Ending:
        """A copy: the pooled CPU whose run this was goes on to run tails."""
        return cls(
            result.trap, result.trap_pc, result.exit_code, result.steps,
            array("q", result.counts), tuple(result.output),
        )


@dataclass
class GoldenTimeline:
    """What one full cursor pass learned about a tool's golden run."""

    #: a sync state sits at the first block entry at or past each multiple
    #: of this many dynamic instructions
    interval: int
    #: absolute step count -> full golden state there (rejoin references),
    #: from the program entry at step 0
    sync_states: dict[int, CpuSnapshot] = field(default_factory=dict)
    #: the sync states' step counts, in step order
    sync_steps: list[int] = field(default_factory=list)
    #: per sync state, in step order: the trigger counter once the block
    #: the state sits in has run (``run_cursor``'s ``reach``; 0 at the
    #: entry).  A window may start from a state only if its first trigger
    #: lies beyond that.
    reaches: list[int] = field(default_factory=list)
    #: how the golden run ends, set when the pass has finished
    ending: Ending | None = None

    @property
    def steps(self) -> int:
        """The golden length G."""
        return self.ending.steps

    @staticmethod
    def auto_interval(golden_steps: int, n: int) -> int:
        """The sync-state spacing for a cell of ``n`` experiments over a
        golden run of ``golden_steps`` (module docstring, step 4)."""
        states = min(SYNC_DENSITY, 4 * isqrt(n))
        return max(MIN_SYNC_INTERVAL, golden_steps // states)

    def start_below(self, trigger: int) -> CpuSnapshot:
        """The latest sync state from which a cursor forks ``trigger``
        exactly where a pass from the program entry would."""
        i = bisect_left(self.reaches, trigger)
        return self.sync_states[self.sync_steps[i - 1]]


def _pack_fregs(fregs) -> bytes:
    """Bitwise image of the float registers (NaN payloads, signed zeros)."""
    return struct.pack(f"<{len(fregs)}d", *fregs)


class TriggerScheduler:
    """Run batches of experiments in trigger order along one golden timeline.

    One instance serves one tool and any number of :meth:`run_batch` calls
    (one campaign, or the shards of a cell in whatever order they arrive);
    ``n`` is the *cell's* size (``CampaignSpec.n``), which sizes the timeline.
    Each call yields :class:`ExperimentRecord` objects in trigger order.
    The first call's cursor pass records the :class:`GoldenTimeline`; later
    calls replay only their own trigger window from a retained sync state.
    ``stats`` and ``phases`` describe the most recent batch alone, so
    per-batch figures can be summed by whoever merges the batches.

    Requires a tool with a trigger counter.  Not thread-safe: one executor
    owns a scheduler at a time.
    """

    def __init__(self, tool: FITool, n: int, events=None) -> None:
        counter = getattr(type(tool), "_SNAPSHOT_COUNTER", None)
        if counter is None:
            raise CampaignError(
                f"{tool.name} does not define a snapshot trigger counter; "
                "the trigger schedule cannot pre-resolve its injection points"
            )
        self.tool = tool
        self.n = n
        self.events = events
        self.counter = counter
        self.stats = SchedulerStats()
        self.phases = PhaseTimes()
        self._timeline: GoldenTimeline | None = None
        self._base: list[bytes] | None = None
        self._forks: dict[int, CpuSnapshot] = {}
        self._triggers: list[int] = []
        self._pend_i = 0
        self._prev_capture: CpuSnapshot | None = None
        self._hook_s = 0.0
        #: one pooled CPU serves the cursor and then every tail (restore is
        #: in-place, so the fast engine's instantiated blocks survive
        #: across experiments and batches)
        self._cpu = None
        #: plan of the tail currently resuming (rejoin gates on its window)
        self._tail_plan = None
        #: (state at the first stop at or past step G, how the tail that
        #: was in it ended): see
        #: :meth:`_on_overrun`
        self._endings: deque[tuple[CpuSnapshot, Ending]] = deque(
            maxlen=ENDINGS_KEPT
        )

    # -- cursor -------------------------------------------------------------

    def _fork_hook(self, cpu, pc: int, upto: int):
        """Capture one fork covering every pending trigger ``<= upto``.

        Called by the cursor at a block entry whose counter extent reaches
        the next pending trigger; the CPU is fully synced and the counter
        is still strictly below every pending trigger, so the snapshot is
        a valid resume point for all of them.
        """
        t0 = time.perf_counter()
        snap = capture_snapshot(cpu, pc, prev=self._prev_capture,
                                base=self._base)
        self._prev_capture = snap
        triggers = self._triggers
        i = self._pend_i
        while i < len(triggers) and triggers[i] <= upto:
            self._forks[triggers[i]] = snap
            i += 1
        self._pend_i = i
        self.stats.forks += 1
        self._hook_s += time.perf_counter() - t0
        return triggers[i] if i < len(triggers) else None

    def _sync_hook(self, timeline: GoldenTimeline, cpu, pc: int,
                   reach: int) -> None:
        """Record the golden reference state at the first block entry at or
        past an interval multiple."""
        t0 = time.perf_counter()
        snap = capture_snapshot(cpu, pc, prev=self._prev_capture,
                                base=self._base)
        self._prev_capture = snap
        timeline.sync_states[snap.steps] = snap
        timeline.sync_steps.append(snap.steps)
        timeline.reaches.append(reach)
        self.stats.sync_states += 1
        self._hook_s += time.perf_counter() - t0

    def _advance_cursor(self) -> None:
        """Capture a fork for every trigger of the batch: by the one full
        pass that also records the timeline, or — once that exists — by
        replaying the batch's window of it."""
        self._hook_s = 0.0
        t0 = time.perf_counter()
        try:
            if self._timeline is None:
                self._timeline = self._record_timeline()
            else:
                self._replay_window(self._timeline)
        finally:
            # release the capture chain head (and never carry it into the
            # next batch's cursor, whatever happened to this one)
            self._prev_capture = None
        wall = time.perf_counter() - t0
        self.phases.fork_s += self._hook_s
        self.phases.prefix_s += wall - self._hook_s

    def _record_timeline(self) -> GoldenTimeline:
        tool = self.tool
        profile = tool.profile
        self._base = base_pages(tool.program)
        timeline = GoldenTimeline(
            interval=GoldenTimeline.auto_interval(profile.steps, self.n)
        )
        # the entry, reported unasked, is sync state 0
        syncs = list(range(timeline.interval, profile.steps, timeline.interval))
        cpu = self._cpu = tool._make_cpu(None)
        result = tool.engine.run_cursor(
            cpu,
            budget=GOLDEN_BUDGET,
            counter=self.counter,
            first_stop=self._triggers[0],
            fork_hook=self._fork_hook,
            syncs=syncs,
            sync_hook=partial(self._sync_hook, timeline),
        )
        if result.trap is not None or result.exit_status != 0:
            raise CampaignError(
                f"{tool.name}: golden cursor run of {tool.workload!r} failed "
                f"(trap={result.trap}, exit={result.exit_code})"
            )
        if tuple(result.output) != profile.golden_output:
            raise CampaignError(
                f"{tool.name}: golden cursor run of {tool.workload!r} "
                "diverged from the profiling run — nondeterministic workload?"
            )
        if result.steps != profile.steps:
            raise CampaignError(
                f"{tool.name}: golden cursor of {tool.workload!r} ran "
                f"{result.steps} steps, profile says {profile.steps}"
            )
        self.stats.cursor_steps = result.steps
        timeline.ending = Ending.of(result)
        self._check_sync_steps(timeline)
        return timeline

    def _check_sync_steps(self, timeline: GoldenTimeline) -> None:
        """One state per distinct first stop: after the entry, each state
        is the first block entry at or past the first multiple the state
        before it fell short of, so within one block of that multiple; and
        a multiple past the last state lies in the run's last block."""
        tool = self.tool
        interval = timeline.interval
        translation = tool.engine.cache.translation_for(tool.program)
        longest = max(meta.length for meta in translation.meta.values())
        steps = timeline.sync_steps
        pairs = list(zip(steps, steps[1:]))
        if (steps[-1] // interval + 1) * interval < timeline.steps:
            pairs.append((steps[-1], timeline.steps))
        for prev, at in pairs:
            multiple = (prev // interval + 1) * interval
            if not multiple <= at < multiple + longest:
                raise CampaignError(
                    f"{tool.name}: golden cursor of {tool.workload!r} "
                    f"stopped at step {at} after the sync state at step "
                    f"{prev}, not within one block past step {multiple}"
                )

    def _replay_window(self, timeline: GoldenTimeline) -> None:
        """Fork the batch's triggers from the nearest retained sync state
        instead of from the program entry."""
        start = timeline.start_below(self._triggers[0])
        cpu = self._cpu_for(None)
        restore_snapshot(cpu, start)
        self._prev_capture = start
        self.tool.engine.run_cursor(
            cpu,
            budget=GOLDEN_BUDGET,
            counter=self.counter,
            first_stop=self._triggers[0],
            fork_hook=self._fork_hook,
            start_pc=start.pc,
        )
        self.stats.cursor_steps = cpu.steps - start.steps

    # -- known endings: the golden one, and recorded ones -------------------

    def _tail_syncs(self, fork_steps: int) -> list[int]:
        """Where a tail forked at ``fork_steps`` pauses: a thinned schedule
        of golden rejoin checkpoints — the first :data:`REJOIN_DENSE` sync
        states after the fork, then geometrically growing strides over
        them — and last the golden length itself, where a tail still
        running has overrun (:meth:`_on_overrun`)."""
        sync_steps = self._timeline.sync_steps
        k = bisect_right(sync_steps, fork_steps)
        out: list[int] = []
        dense = REJOIN_DENSE
        stride = 1
        while k < len(sync_steps) and len(out) < REJOIN_MAX_CHECKS:
            out.append(sync_steps[k])
            if dense > 0:
                dense -= 1
                k += 1
            else:
                stride *= REJOIN_GROWTH
                k += stride
        out.append(self._timeline.steps)
        return out

    def _on_sync(self, cpu, pc: int, reach: int) -> bool:
        """Splice test at one sync point of a faulty tail (``reach``, the
        cursor's business, is not needed here).

        Returns True (stop; splice) only when the tail's full architectural
        state equals a state whose ending is known, at the same absolute
        step count: the golden state there, or — at or past the golden
        length — a state an earlier tail overran in.
        Before the fault has fired the tail *is* the golden run, so a match
        is vacuous and splicing would skip the injection — never stop then.
        Likewise while a dwell window is still open (stuck-at models): the
        fault keeps re-applying, so the tail may not be spliced — and PINFI
        may not be treated as detached — until the window closes.  A tail
        PINFI is still attached to is never spliced: its counts still
        accumulate into the attach-time accounting a splice leaves alone.
        """
        if cpu.fault is None or cpu._attached:
            return False
        plan = self._tail_plan
        if plan is not None and plan.last_index > plan.target_index:
            count = getattr(cpu, "_" + self.counter)
            if count < plan.last_index:
                return False
        timeline = self._timeline
        if cpu.steps >= timeline.steps:
            return self._on_overrun(cpu, pc)
        if self._mem_misses >= REJOIN_MAX_MEM_MISSES:
            return False
        ref = timeline.sync_states.get(cpu.steps)
        if ref is None or not self._same_state(cpu, pc, ref):
            return False
        self._spliced = ref, timeline.ending
        self.stats.rejoins += 1
        return True

    def _on_overrun(self, cpu, pc: int) -> bool:
        """A tail is still running at its first stop at or past the golden
        length G: splice the ending of an earlier tail that was in exactly
        this state at this step, or remember the state so this tail's own
        ending can be recorded.

        Why a match is exact: same state, same step, same budget (one
        scheduler serves one tool, hence one
        :attr:`~repro.fi.tools.FITool.timeout_budget`) — a deterministic
        machine has one future from there, the timeout step included.
        Which tail, of which batch, recorded the ending cannot matter.
        """
        for ref, ending in self._endings:
            if ref.steps == cpu.steps and self._same_state(cpu, pc, ref):
                self._spliced = ref, ending
                self.stats.ending_hits += 1
                return True
        self._overran = capture_snapshot(cpu, pc, base=self._base)
        return False

    def _same_state(self, cpu, pc: int, ref: CpuSnapshot) -> bool:
        """Is the CPU, paused before ``pc``, bit for bit in state ``ref``?
        Registers first (floats bitwise: NaN payloads, signed zeros), then
        every page of memory — the comparison itself, not a digest.  Getting
        as far as memory and missing there is the expensive kind of miss:
        ``_mem_misses`` tallies it for the golden rejoin's gate."""
        if pc != ref.pc or cpu.flags != ref.flags:
            return False
        if tuple(cpu.iregs) != ref.iregs:
            return False
        if _pack_fregs(cpu.fregs) != _pack_fregs(ref.fregs):
            return False
        # in place, page by page: ``startswith`` is a memcmp at an offset
        # (no copy of the address space, as in ``capture_snapshot``)
        mem = cpu.mem
        pages = ref.pages
        for i, clean in enumerate(self._base):
            if not mem.startswith(pages.get(i, clean), i * PAGE_SIZE):
                self._mem_misses += 1
                return False
        return True

    def _splice(self, cpu, at: CpuSnapshot, ending: Ending) -> ExecutionResult:
        """Complete a tail from the ending of a run that passed through the
        state it is in.

        The tail's state at step ``S = at.steps`` is bitwise equal to
        ``at``, so its remaining execution is that run's remainder: counts
        gain the run's per-pc deltas past ``S``, output gains its lines
        past ``S``, and the tail ends at the run's step count the way the
        run did (the golden run: cleanly, with the golden exit code; an
        overrun tail: usually on the timeout).  PINFI's frozen attach-time
        accounting (``counts_attached``, ``attached_candidates``) is
        untouched — the fault always fires (and PINFI detaches) before a
        splice is admissible.
        """
        result = ExecutionResult()
        result.trap = ending.trap
        result.trap_pc = ending.trap_pc
        result.exit_code = ending.exit_code
        result.output = list(cpu.output) + list(ending.output[len(at.output):])
        result.steps = ending.steps
        result.fault = cpu.fault
        result.counts = [
            c + e - a for c, e, a in zip(cpu.counts, ending.counts, at.counts)
        ]
        result.counts_attached = cpu.counts_attached
        result.attached_candidates = cpu.attached_candidates
        self.stats.tail_steps_saved += ending.steps - at.steps
        return result

    # -- tails --------------------------------------------------------------

    def _cpu_for(self, plan):
        """The pooled CPU, reset to pristine state and armed with ``plan``
        (``None``: disarmed, for the golden cursor).

        ``restore_snapshot`` overwrites registers, counters, output and
        the snapshot's dirty pages in place; this reset covers everything
        it assumes or does not touch — pristine memory for the untouched
        pages, no fired fault, and the previous tail's plan replaced.
        """
        cpu = self._cpu
        # page by page against the clean image: a compare reads one page of
        # memory (nearly every clean page is the same zero page, hot in
        # cache) where a copy reads a template and writes memory, and only
        # the pages the last tail dirtied are copied back
        mem = cpu.mem
        off = 0
        for clean in self._base:
            if not mem.startswith(clean, off):
                mem[off:off + PAGE_SIZE] = clean
            off += PAGE_SIZE
        cpu.fault = None
        counter = self.counter
        if plan is None:
            cpu._refine_plan = cpu._pin_plan = cpu._llfi_plan = None
        elif counter == "refine_count":
            cpu.arm_refine(plan)
        elif counter == "pin_count":
            cpu.attach_pinfi(plan)
        else:
            cpu.arm_llfi(plan)
        return cpu

    def _run_tail(self, trigger: int, index: int, seed: int) -> ExperimentRecord:
        tool = self.tool
        fork = self._forks.get(trigger)
        t0 = time.perf_counter()
        if fork is None:
            # Safety net: the cursor ended without covering this trigger
            # (should not happen for triggers within the candidate count);
            # run this one experiment from instruction 0.
            self.stats.scratch += 1
            run = tool.inject(seed)
            result = run.result
            cycles = run.cycles
            served = False
        else:
            plan = tool.plan_from_seed(seed)
            self._tail_plan = plan
            cpu = self._cpu_for(plan)
            restore_snapshot(cpu, fork)
            self._mem_misses = 0
            self._overran = None
            result = tool.engine.resume(
                cpu, fork.pc, tool.timeout_budget,
                self._tail_syncs(fork.steps), self._on_sync,
            )
            if result is None:
                result = self._splice(cpu, *self._spliced)
            elif (
                self._overran is not None
                and result.steps >= 2 * self._timeline.steps
            ):
                # ran at least one more golden length: worth remembering
                self._endings.append((self._overran, Ending.of(result)))
                self.stats.endings += 1
            cycles = tool._cycles(cpu, result)
            self.stats.fork_hits += 1
            self.stats.prefix_steps_saved += fork.steps
            served = True
        t1 = time.perf_counter()
        outcome = classify(result, tool.profile.golden_output)
        t2 = time.perf_counter()
        self.phases.tail_s += t1 - t0
        self.phases.classify_s += t2 - t1
        return ExperimentRecord(
            seed=seed,
            outcome=outcome,
            cycles=cycles,
            steps=result.steps,
            trap=result.trap,
            exit_code=result.exit_code,
            fault=result.fault,
            index=index,
            engine=tool.engine.name,
            snapshot_hit=served,
        )

    # -- batch driver -------------------------------------------------------

    def run_batch(self, base_seed: int, indices):
        """Yield one :class:`ExperimentRecord` per index, in trigger order.

        The first yield happens only after the batch's cursor has run
        (forks for every trigger must exist before any tail does), so a
        consumer checkpointing between yields loses at most the cursor on
        interruption — never a completed experiment.
        """
        tool = self.tool
        indices = list(indices)
        self.stats = SchedulerStats()
        self.phases = PhaseTimes()
        if not indices:
            return
        t0 = time.perf_counter()
        ordered = resolve_trigger_order(tool, base_seed, indices)
        self.phases.translate_s += time.perf_counter() - t0
        self.stats.experiments = len(ordered)

        self._triggers = sorted({trigger for trigger, _ in ordered})
        self._pend_i = 0
        self._forks.clear()
        users: dict[int, int] = {}
        for trigger, _ in ordered:
            users[trigger] = users.get(trigger, 0) + 1

        self._advance_cursor()
        if self.events is not None:
            self.events.emit(
                "scheduler_stats", workload=tool.workload, tool=tool.name,
                **self.stats.as_dict(),
            )

        for trigger, index in ordered:
            seed = derive_seed(base_seed, tool.workload, tool.name, index)
            yield self._run_tail(trigger, index, seed)
            users[trigger] -= 1
            if not users[trigger]:
                # Every experiment at this trigger is done; release the
                # fork (page bytes shared with later snapshots survive).
                self._forks.pop(trigger, None)

        if self.events is not None:
            self.events.emit(
                "scheduler_stats", workload=tool.workload, tool=tool.name,
                **self.stats.as_dict(),
            )
