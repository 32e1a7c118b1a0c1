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
captures) beside the tails' interpreter strides and their seconds — the
block-vs-stride split that decides ``run_over_golden`` — then the top
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

from repro.campaign import CampaignSpec, Outcome, TriggerScheduler
from repro.campaign.schedule import SchedulerStats
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
        self._seen = SchedulerStats()

    def render(self, cursor: tuple[int, float], tails: tuple[int, float]) -> str:
        """``cursor`` / ``tails``: the interpreter strides each took, and
        the seconds spent in them."""
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
            f"(fire points, sync states, mid-block entries)"
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


def strides(stats: pstats.Stats, caller: str) -> tuple[int, float]:
    """Reference-loop strides ``caller`` took — ``run_cursor``: one per sync
    state plus one per mid-block entry; ``_drive`` (the tails): one per fire
    point, sync point and mid-block entry — and the seconds spent in them:
    ``_interpret`` calls from ``caller`` and their cumulative time."""
    calls, seconds = 0, 0.0
    for (path, _, name), entry in stats.stats.items():
        if name == "_interpret" and _ENGINE in path:
            for (_, _, who), (n, _, _, cumulative) in entry[4].items():
                if who == caller:
                    calls += n
                    seconds += cumulative
    return calls, seconds


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
    for program in programs:
        for tool in tools:
            profiler.runcall(
                cold_cell, program, tool, args.n, args.fault_model, census
            )
    stats = pstats.Stats(profiler)
    callers = compile_callers(stats)  # while the paths are still whole
    print(f"{args.program} x {args.tool} x n={args.n} ({args.fault_model}): "
          f"{stats.total_tt:.2f} s under cProfile")
    print(census.render(strides(stats, "run_cursor"), strides(stats, "_drive")))
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
