#!/usr/bin/env python3
"""Profile one cold campaign cell: where does a small campaign's time go?

    python scripts/profile_cell.py lulesh REFINE            # n = 24
    python scripts/profile_cell.py EP PINFI -n 8 --top 15
    python scripts/profile_cell.py EP REFINE --fault-model stuck-at:dwell=64
    python scripts/profile_cell.py EP REFINE --fault-model cache-line -n 320
    python scripts/profile_cell.py all all --top 40         # a cold_small lap

Builds the cell from nothing — compile, load, profile run, then the
scheduler's ``run_batch`` — under ``cProfile`` and prints, first, a census of
the tails by how they ended (rejoined the golden run / reused a recorded
ending / ran to their end with the golden output or another / trapped /
timed out) with the steps each class executed — on a small data segment
under a memory fault model the timeouts are where the steps go, and how many
of them were reused rather than run is the line to read — and what the golden
cursor cost (sync states and forks captured, interpreter strides, seconds in
captures) beside the tails' interpreter strides (at fire points, and
finishing blocks entered mid-way) and their seconds — the block-vs-stride
split that decides ``run_over_golden`` — then the top
functions by self time and by cumulative time, plus every
``builtins.compile`` call by caller (the engine
byte-compiles once per binary, at translation; a second call from
``repro/engine`` is a regression).  Spans around public calls (perfbench's
traced lap) cannot see inside ``run_batch``; this can.

``cProfile`` taxes every Python call and no native work, so the proportions
lean towards call-heavy code: find candidates here, measure them with
``python3 -m perfbench``.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import os
import pstats
import time
from contextlib import contextmanager

from repro.campaign import CampaignSpec, Outcome, TriggerScheduler
from repro.campaign.schedule import SchedulerStats
from repro.engine import FastEngine
from repro.fi import TOOL_ORDER
from repro.workloads import workload_sources

_COMPILE = ("~", 0, "<built-in method builtins.compile>")
_ENGINE = os.path.join("repro", "engine") + os.sep


class TailCensus:
    """Tails by how they ended, from the records and the scheduler's own
    counters (each record's share of them is the counters' change since
    the record before)."""

    CLASSES = ("rejoined", "ending reused", "ran to end, benign",
               "ran to end, SOC", "trapped", "timeout")

    def __init__(self) -> None:
        #: class -> [tails, steps executed]
        self.rows = {name: [0, 0] for name in self.CLASSES}
        #: reused endings that were themselves timeouts
        self.timeouts_reused = 0
        #: the cursor passes: [sync states, forks, seconds in captures]
        self.cursor = [0, 0, 0.0]
        #: [rides, steps ridden, intervals recorded, seconds recording them]
        self.rides = [0, 0, 0, 0.0]
        self._seen = SchedulerStats()

    def note(self, record, stats: SchedulerStats) -> None:
        seen = self._seen
        if stats.rejoins > seen.rejoins:
            kind = "rejoined"
        elif stats.ending_hits > seen.ending_hits:
            kind = "ending reused"
            self.timeouts_reused += record.trap == "timeout"
        elif record.trap == "timeout":
            kind = "timeout"
        elif record.trap is not None:
            kind = "trapped"
        elif record.outcome is Outcome.BENIGN:
            kind = "ran to end, benign"
        else:
            kind = "ran to end, SOC"
        row = self.rows[kind]
        row[0] += 1
        row[1] += (
            record.steps
            - (stats.prefix_steps_saved - seen.prefix_steps_saved)
            - (stats.tail_steps_saved - seen.tail_steps_saved)
        )
        self._seen = dataclasses.replace(stats)

    def end_cell(self, scheduler: TriggerScheduler) -> None:
        """Fold one finished cell's cursor pass; the next cell's scheduler
        counts from zero again."""
        self.cursor[0] += scheduler.stats.sync_states
        self.cursor[1] += scheduler.stats.forks
        self.cursor[2] += scheduler.phases.fork_s
        self.rides[0] += scheduler.stats.rides
        self.rides[1] += scheduler.stats.ridden_steps
        self.rides[2] += len(scheduler.timeline.accesses)
        self.rides[3] += scheduler.timeline.record_s
        self._seen = SchedulerStats()

    def render(self, cursor: tuple[int, float], tails: tuple[int, float],
               fire_strides: int, deopts: int) -> str:
        """``cursor`` / ``tails``: the interpreter strides each took, and
        the seconds spent in them; ``fire_strides`` / ``deopts``: how many
        of the tails' were at fire points / ran a block whose frame guard
        failed (the rest finished a block entered mid-way)."""
        total = sum(steps for _, steps in self.rows.values()) or 1
        lines = [f"{'tails':<19}{'count':>7}{'steps executed':>17}{'share':>8}"]
        lines += [
            f"{name:<19}{count:>7}{steps:>17,}{steps / total:>8.1%}"
            for name, (count, steps) in self.rows.items()
        ]
        sync_states, forks, capture_s = self.cursor
        lines.append(
            f"cursor: {sync_states} sync states + {forks} forks captured in "
            f"{capture_s:.3f} s, {cursor[0]} interpreter strides in "
            f"{cursor[1]:.3f} s"
        )
        lines.append(
            f"tails: {tails[0]} interpreter strides in {tails[1]:.3f} s "
            f"({fire_strides} at fire points, "
            f"{tails[0] - fire_strides - deopts} mid-block entries, "
            f"{deopts} guard deopts)"
        )
        rides, ridden, recorded, record_s = self.rides
        lines.append(
            f"rides: {rides} ({ridden:,} steps ridden, not executed), "
            f"{recorded} intervals' access sets recorded in {record_s:.3f} s"
        )
        ran = self.rows["timeout"][0]
        lines.append(
            f"timeout {ran + self.timeouts_reused} -> {ran} executed, "
            f"{self.timeouts_reused} reused"
        )
        return "\n".join(lines)


def cold_cell(program: str, tool_name: str, n: int, fault_model: str,
              census: TailCensus) -> None:
    """Everything a cold cell pays for, in the order it pays for it."""
    spec = CampaignSpec(
        workload=program, source=workload_sources()[program],
        tool_name=tool_name, n=n, fault_model=fault_model,
    )
    tool = spec.make_tool()
    tool.binary    # frontend -> irpasses -> backend -> instrumentation
    tool.program   # load
    tool.profile   # translation + the fault-free profiling run
    scheduler = TriggerScheduler(tool, n)
    for record in scheduler.run_batch(spec.base_seed, range(n)):
        census.note(record, scheduler.stats)
    census.end_cell(scheduler)


def compile_callers(stats: pstats.Stats) -> dict[str, int]:
    """``builtins.compile`` call counts by calling function."""
    entry = stats.stats.get(_COMPILE)
    if entry is None:
        return {}
    return {
        f"{path}:{line}({name})": calls
        for (path, line, name), (calls, *_) in entry[4].items()
    }


class StrideTally:
    """The reference-loop strides (``FastEngine._interpret`` calls) and
    their seconds, split by who made them.  The cursor and the tails run on
    the engine's one block loop, so a caller's name cannot tell them apart:
    a stride made while the scheduler's ``_advance_cursor`` runs is the
    cursor's (one per mid-block entry: none on a cold cell, since sync
    states sit on block entries); every other is a tail's (one per fire
    point — a careful window counts as one — one per mid-block entry, and
    one per guard deopt; golden and profile runs make none).  A deopt is a
    stride from a translated block entry that no fire point located first
    (``_fire_offset``)."""

    def __init__(self) -> None:
        #: [strides, seconds] of the cursor passes and of the tails
        self.cursor = [0, 0.0]
        self.tails = [0, 0.0]
        #: the tails' strides through a fire point, and those that ran a
        #: block its frame guard refused
        self.fires = 0
        self.deopts = 0
        self._in_cursor = False
        self._fire = False

    @contextmanager
    def installed(self):
        interpret = FastEngine._interpret
        fire_offset = FastEngine._fire_offset
        advance = TriggerScheduler._advance_cursor

        def tallied_interpret(engine, cpu, *args):
            fire, self._fire = self._fire, False
            pc = args[6]
            t0 = time.perf_counter()
            try:
                return interpret(engine, cpu, *args)
            finally:
                row = self.cursor if self._in_cursor else self.tails
                row[0] += 1
                row[1] += time.perf_counter() - t0
                if not self._in_cursor:
                    if fire:
                        self.fires += 1
                    elif pc in cpu._fast_ctx[2]:
                        self.deopts += 1

        def tallied_fire_offset(*args):
            self._fire = True
            return fire_offset(*args)

        def tallied_advance_cursor(scheduler):
            self._in_cursor = True
            try:
                advance(scheduler)
            finally:
                self._in_cursor = False

        FastEngine._interpret = tallied_interpret
        FastEngine._fire_offset = staticmethod(tallied_fire_offset)
        TriggerScheduler._advance_cursor = tallied_advance_cursor
        try:
            yield self
        finally:
            FastEngine._interpret = interpret
            FastEngine._fire_offset = staticmethod(fire_offset)
            TriggerScheduler._advance_cursor = advance


def main() -> int:
    sources = workload_sources()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("program", choices=[*sorted(sources), "all"])
    parser.add_argument("tool", choices=[*TOOL_ORDER, "all"])
    parser.add_argument("-n", type=int, default=24,
                        help="experiments in the cell (default 24)")
    parser.add_argument("--fault-model", default="single-bit")
    parser.add_argument("--top", type=int, default=25,
                        help="rows per table (default 25)")
    args = parser.parse_args()

    # "all all": perfbench's cold_small lap (program-major, its tool order)
    programs = list(sources) if args.program == "all" else [args.program]
    tools = ("REFINE", "PINFI", "LLFI") if args.tool == "all" else [args.tool]
    profiler = cProfile.Profile()
    census = TailCensus()
    strides = StrideTally()
    with strides.installed():
        for program in programs:
            for tool in tools:
                profiler.runcall(
                    cold_cell, program, tool, args.n, args.fault_model, census
                )
    stats = pstats.Stats(profiler)
    callers = compile_callers(stats)  # while the paths are still whole
    print(f"{args.program} x {args.tool} x n={args.n} ({args.fault_model}): "
          f"{stats.total_tt:.2f} s under cProfile")
    print(census.render(tuple(strides.cursor), tuple(strides.tails),
                        strides.fires, strides.deopts))
    stats.strip_dirs()
    for key in ("tottime", "cumulative"):
        stats.sort_stats(key).print_stats(args.top)

    engine = sum(c for where, c in callers.items() if _ENGINE in where)
    print(f"builtins.compile calls: {sum(callers.values())} "
          f"(from repro.engine: {engine})")
    for where, calls in sorted(callers.items(), key=lambda kv: -kv[1]):
        print(f"  {calls:6d}  {where}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
