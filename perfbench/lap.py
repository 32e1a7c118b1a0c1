"""One lap of one workload in a fresh process.

``python -m perfbench.lap <workload> --seed S --tmp DIR ...`` runs the
workload's cells once, checks every result, and prints one JSON report as
its last line.  A fresh process per lap keeps ``cold_small`` cold (the
engine's in-process translation cache would make a second lap warm),
makes ``peak_rss_mb`` a per-lap figure and puts imports inside ``setup_s``.

The clock covers only the work a user waits for.  It is stopped between
cells while the cell's fault-free reference runs (the denominator of
``run_over_golden``) are measured, and for the :class:`SpeedProbe` samples
taken through the region.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

from repro.campaign import EventLog
from repro.resultsdb import ResultsDB, list_campaigns, to_campaign_result
from repro.service import LocalService
from repro.utils.rng import derive_seed

from perfbench import adapter, layers, spec, verify
from perfbench.trace import Spans, percentile

#: Host seconds per lap spent on fault-free reference runs, shared by the
#: lap's cells (each gets at least ``GOLDEN_MIN_RUNS``).
GOLDEN_BUDGET_S = 1.5
GOLDEN_MIN_RUNS = 3
GOLDEN_MAX_RUNS = 25

SERVICE_WORKERS = 2
WATCH_POLL_S = 0.05
STATUS_PROBES = 500


class SpeedProbe:
    """How fast the machine is right now, sampled through the lap.

    The reference box flips between a fast and a ~25 % slower state every
    few seconds (a shared core).  A cell's campaign averages over those
    states; a burst of reference runs after it sees one of them, which made
    ``run_over_golden`` wander +-15 % on identical work.  So a fixed
    pure-Python kernel is timed every ``PERIOD_S`` of the timed region and
    between the reference runs, and the reference time is scaled to the
    speed the campaign actually ran at (see :func:`_golden_s`).  Thread CPU
    time, not wall: on the service lap the probe shares the interpreter
    lock with the workers, and waiting for it is not machine speed.
    """

    PERIOD_S = 0.25

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        c0 = time.thread_time()
        acc = 0
        for i in range(40_000):
            acc += i * i % 7
        self._samples.append(time.thread_time() - c0)

    def tick(self) -> float:
        """Sample if a period has passed; the wall seconds that took."""
        now = time.perf_counter()
        if now - self._last < self.PERIOD_S:
            return 0.0
        self.sample()
        self._last = time.perf_counter()
        return self._last - now

    def take(self) -> list[float]:
        """The samples since the last ``take``."""
        samples, self._samples = self._samples, []
        return samples


class _CellClock:
    """``run_campaign`` progress callback: per-experiment gaps, and the
    wall the speed probe paused the campaign for."""

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.paused = 0.0
        self.gaps: list[float] = []
        self._resumed = time.perf_counter()

    def __call__(self, done: int, n: int) -> None:
        now = time.perf_counter()
        self.gaps.append(now - self._resumed)
        self.probe.tick()
        self._resumed = time.perf_counter()
        self.paused += self._resumed - now


@dataclass
class Lap:
    """What either kind of lap hands to the report."""

    setup_s: float
    peak_rss_mb: float
    wall_s: float  #: the timed region
    cpu_s: float
    #: per cell: key, tool, n, golden_s, golden_unscaled_s, profile_steps,
    #: run_s (inline wall of ``run_campaign``; on the service lap only
    #: when traced)
    rows: list[dict]
    results: dict
    failures: list[tuple[str, str]] = field(default_factory=list)
    # -- traced laps only
    #: captured event streams, one per results store they can share
    streams: dict[str, list[dict]] = field(default_factory=dict)
    finish_event: str = "campaign_finish"
    #: host seconds the scheduler phases can fill
    executor_s: float = 0.0
    compile_stats: list = field(default_factory=list)
    plan_us: list[float] = field(default_factory=list)
    #: layer metrics only this kind of lap can measure
    extra: dict = field(default_factory=dict)


def _cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for descendants."""
    return sum(os.times()[:4])


def _peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024


def _golden_s(tool, budget_s: float, probe: SpeedProbe, during: list[float]) -> dict:
    """Median wall of warm fault-free runs of the tool's binary: as
    measured (``golden_unscaled_s``) and scaled from the machine speed of
    this burst to the speed ``during`` the cell's timed region
    (``golden_s``; probe samples, too few of them = no scaling)."""
    walls: list[float] = []
    spent = 0.0
    while len(walls) < GOLDEN_MIN_RUNS or (
        spent < budget_s and len(walls) < GOLDEN_MAX_RUNS
    ):
        probe.sample()
        t0 = time.perf_counter()
        adapter.fault_free_run(tool)
        walls.append(time.perf_counter() - t0)
        spent += walls[-1]
    now = statistics.median(probe.take())
    scale = statistics.fmean(during) / now if len(during) >= 2 else 1.0
    unscaled = statistics.median(walls)
    return {"golden_s": unscaled * scale, "golden_unscaled_s": unscaled}


def _build(cell, spans: Spans, snapshot_dir=None):
    """Compile, load and profile one cell's tool (a span per stage)."""
    tool = adapter.build_tool(cell, snapshot_dir=snapshot_dir)
    with spans.span("fi.compile", cell=cell.key):
        tool.binary
    with spans.span("machine.load", cell=cell.key):
        tool.program
    with spans.span("engine.first_profile", cell=cell.key):
        tool.profile
    return tool


def _plan_us(tool, cell, seed: int) -> float:
    seeds = [derive_seed(seed, cell.program, cell.tool, i) for i in range(cell.n)]
    t0 = time.perf_counter()
    for s in seeds:
        tool.plan_from_seed(s)
    return (time.perf_counter() - t0) / cell.n * 1e6


def layer_metrics(lap: Lap, cells, seed: int, tmp: str, spans: Spans) -> dict:
    """The per-layer table of a traced lap (everything but the paper-shape
    statistics, which every lap computes)."""
    rows = lap.rows
    n = sum(r["n"] for r in rows)
    # layer metrics take the reference runs as measured, not speed-scaled
    golden = sum(r["golden_unscaled_s"] for r in rows)
    events = [e for stream in lap.streams.values() for e in stream]
    biggest = max(lap.results, key=lambda c: c.n)
    out = {
        **layers.compile_stages(c.program for c in cells),
        "fi.compile_ms": spans.total("fi.compile") * 1e3,
        "machine.load_ms": spans.total("machine.load") * 1e3,
        "irpasses.ir_instrs_after": sum(s.ir_instructions for s in lap.compile_stats),
        "backend.code_instrs": sum(s.machine_instructions for s in lap.compile_stats),
        "backend.spills": sum(s.spilled_vregs for s in lap.compile_stats),
        # first profile = block translation + one fault-free run
        "engine.translate_ms": (spans.total("engine.first_profile") - golden) * 1e3,
        "engine.golden_ms": sum(r["n"] * r["golden_unscaled_s"] for r in rows) / n * 1e3,
        "engine.sim_steps_per_s": sum(r["profile_steps"] for r in rows) / golden,
        "fi.plan_us": statistics.fmean(lap.plan_us),
        **layers.scheduler_metrics(
            [e for e in events if e["event"] == lap.finish_event],
            sum(r.total_steps for r in lap.results.values()), lap.executor_s,
        ),
        "campaign.events_emit_us": layers.events_emit_us(
            next(e for e in events if e["event"] == "experiment"), tmp
        ),
        "campaign.checkpoint_save_ms": layers.checkpoint_save_ms(
            lap.results[biggest], seed, tmp
        ),
        "campaign.parallel_speedup_j2": layers.parallel_speedup(
            biggest, seed, lap.results[biggest],
            next(r["run_s"] for r in rows if r["key"] == biggest.key),
        ),
        **layers.sink_replay(lap.streams, tmp),
        "dist.frame_rtt_us": layers.frame_rtt_us(),
        **lap.extra,
    }
    for tool in spec.TOOLS:
        mine = [r for r in rows if r["tool"] == tool]
        out[f"fi.{tool}.exps_per_s"] = (
            sum(r["n"] for r in mine) / sum(r["run_s"] for r in mine) if mine else 0.0
        )
    return out


# ---------------------------------------------------------------- inline laps


def inline_lap(workload, smoke, seed, traced, tmp, spawned_at, spans) -> Lap:
    """``warm``/``cold`` workloads: ``run_campaign`` per cell, in process."""
    cells = spec.cells(workload.name, smoke)
    cold = workload.kind == "cold"
    snapshot_dir = os.path.join(tmp, "snapshots") if cold else None
    tools = {} if cold else {c: _build(c, spans) for c in cells}
    lap = Lap(
        setup_s=time.time() - spawned_at, peak_rss_mb=0.0, wall_s=0.0, cpu_s=0.0,
        rows=[], results={},
    )
    probe = SpeedProbe()
    gaps: list[float] = []
    golden_budget = GOLDEN_BUDGET_S / len(cells)
    for cell in cells:
        buf = io.StringIO()
        kwargs = {"events": EventLog(stream=buf)} if traced else {}
        probe.take()
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        tool = _build(cell, spans, snapshot_dir) if cold else tools[cell]
        clock = _CellClock(probe)
        with spans.span("campaign.run", cell=cell.key) as run:
            lap.results[cell] = adapter.run_cell(
                tool, cell, seed, progress=clock, **kwargs
            )
        # clock stopped; the probe's pauses were single-threaded CPU
        wall = time.perf_counter() - t0 - clock.paused
        lap.wall_s += wall
        lap.cpu_s += _cpu_seconds() - cpu0 - clock.paused
        lap.rows.append({
            "key": cell.key, "tool": cell.tool, "n": cell.n, "wall_s": wall,
            "run_s": run["dur"] - clock.paused,
            "profile_steps": tool.profile.steps,
            **_golden_s(tool, golden_budget, probe, probe.take()),
        })
        if traced:
            lap.streams.setdefault(cell.model, []).extend(
                layers.parse_events(buf.getvalue())
            )
            gaps += clock.gaps
            lap.compile_stats.append(tool.binary.meta["stats"])
            lap.plan_us.append(_plan_us(tool, cell, seed))
    lap.peak_rss_mb = _peak_rss_mb()
    lap.executor_s = lap.wall_s
    lap.extra = {
        "campaign.exp_ms_p50": percentile(gaps, 0.5) * 1e3,
        "campaign.exp_ms_p99": percentile(gaps, 0.99) * 1e3,
        "campaign.exp_ms_samples": len(gaps),
    }
    return lap


# --------------------------------------------------------------- service lap


def _wait_workers(client, count: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while len(client.list()["workers"]) < count:
        if time.monotonic() > deadline:
            raise RuntimeError(f"{count} service workers did not connect")
        time.sleep(0.005)


def _wait_rows(db, want: int, timeout: float = 10.0) -> None:
    """Block until every experiment's ``runs`` row is committed."""
    deadline = time.monotonic() + timeout
    while db.run_count() < want:
        if time.monotonic() > deadline:
            raise RuntimeError(
                f"results database holds {db.run_count()} of {want} runs rows"
            )
        time.sleep(0.005)


def _service_events_metrics(events, submitted_at: dict[int, float]) -> dict:
    """``service.*`` waits and per-lease experiment times from the
    coordinator's own event stream.

    A queued campaign becomes admissible when it is submitted or when
    another campaign ends (a slot opens, a cell conflict clears), so its
    admission wait runs from the later of the two, whatever ``max_active``.
    """
    done = {e["campaign"]: e["ts"] for e in events if e["event"] == "campaign_done"}
    admit_wait = lease_wait = validate = 0.0
    unblocked_at = 0.0  # the latest campaign end so far
    for e in events:
        if e["event"] == "campaign_done":
            unblocked_at = e["ts"]
        if e["event"] != "campaign_admitted":
            continue
        cid = e["campaign"]
        admit_wait += max(0.0, e["ts"] - max(submitted_at[cid], unblocked_at))
        later = [x for x in events if x["seq"] > e["seq"] and x["ts"] <= done[cid]]
        lease_wait += next(x["ts"] for x in later if x["event"] == "lease") - e["ts"]
        validate += done[cid] - max(
            x["ts"] for x in later if x["event"] == "cell_finish"
        )
    leased: dict[int, float] = {}
    exp_ms = []
    for e in events:
        if e["event"] == "lease":
            leased[e["task"]] = e["ts"]
        elif e["event"] == "task_done" and not e["duplicate"]:
            exp_ms.append((e["ts"] - leased[e["task"]]) / e["size"] * 1e3)
    return {
        "service.admit_wait_s": admit_wait,
        "service.lease_wait_s": lease_wait,
        "service.validate_s": validate,
        "service.requeues": sum(e["event"] == "task_requeue" for e in events),
        # per experiment, inside one lease (lease -> task_done over its size)
        "campaign.exp_ms_p50": percentile(exp_ms, 0.5),
        "campaign.exp_ms_p99": percentile(exp_ms, 0.99),
        "campaign.exp_ms_samples": len(exp_ms),
    }


def service_lap(workload, smoke, seed, traced, tmp, spawned_at, spans) -> Lap:
    """``service_db``: submit every campaign up front, watch them all."""
    campaigns = spec.service_campaigns(smoke)
    cells = spec.cells(workload.name, smoke)
    db_path = os.path.join(tmp, "results.sqlite")
    buf = io.StringIO()
    kwargs = {"events": EventLog(stream=buf)} if traced else {}
    with spans.span("service.start"):
        svc = LocalService(
            workers=SERVICE_WORKERS, queue_path=os.path.join(tmp, "queue.sqlite"),
            db_path=db_path, checkpoint_root=os.path.join(tmp, "ckpt"), **kwargs,
        )
    reader = ResultsDB(db_path)
    probe = SpeedProbe()
    failures: list[tuple[str, str]] = []
    extra: dict = {}
    try:
        _wait_workers(svc.client, SERVICE_WORKERS)
        ids, submitted_at = [], {}
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        for camp in campaigns:
            # stamped before the call: the pump may admit the campaign
            # before ``submit`` has returned
            asked_at = time.time()
            with spans.span("service.submit"):
                ids.append(svc.client.submit(
                    adapter.service_request(camp, seed),
                    tenant=camp.tenant, priority=camp.priority,
                ))
            submitted_at[ids[-1]] = asked_at
            if len(ids) == 1:
                setup_s = time.time() - spawned_at  # first submit accepted
        for cid, camp in zip(ids, campaigns):
            final = svc.client.watch(
                cid, poll_s=WATCH_POLL_S, timeout=150.0,
                callback=lambda status: probe.tick(),
            )
            if final["info"]["state"] != "done":
                failures += [
                    (c.key, f"campaign {cid} ended {final['info']['state']!r}")
                    for c in camp.cells
                ]
        _wait_rows(reader, sum(c.n for c in cells))
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        # clock stopped
        peak = _peak_rss_mb()
        during = probe.take()
        if traced:
            rtts = []
            for _ in range(STATUS_PROBES):
                s0 = time.perf_counter()
                svc.client.status(ids[-1])
                rtts.append((time.perf_counter() - s0) * 1e3)
            extra["dist.status_rtt_ms_p50"] = percentile(rtts, 0.5)
            extra["dist.status_rtt_ms_p99"] = percentile(rtts, 0.99)
    finally:
        with spans.span("service.stop"):
            # what `refine-service drain` does; a bare stop() waits out
            # its whole worker timeout instead
            svc.client.drain(grace_s=5.0)
            svc.coordinator.serve_until_stopped(poll=0.02)
            svc.stop()

    lap = Lap(setup_s=setup_s, peak_rss_mb=peak, wall_s=wall, cpu_s=cpu,
              rows=[], results={}, failures=failures,
              finish_event="cell_finish", executor_s=SERVICE_WORKERS * wall)
    stored = {(i.workload, i.tool, i.n): i.id for i in list_campaigns(reader)}
    for cell in cells:
        cid = stored.get((cell.program, cell.tool, cell.n))
        if cid is None:
            failures.append((cell.key, "no campaign row in the results database"))
        else:
            lap.results[cell] = to_campaign_result(reader, cid)
    reader.close()

    # The same cells inline, in this process: the denominator of
    # run_over_golden always, the overhead baseline when traced.
    golden_budget = GOLDEN_BUDGET_S / len(cells)
    for cell in cells:
        tool = _build(cell, spans)
        row = {"key": cell.key, "tool": cell.tool, "n": cell.n,
               "profile_steps": tool.profile.steps}
        if traced:
            with spans.span("campaign.run", cell=cell.key) as run:
                adapter.run_cell(tool, cell, seed)
            row["run_s"] = run["dur"]
            lap.compile_stats.append(tool.binary.meta["stats"])
            lap.plan_us.append(_plan_us(tool, cell, seed))
        lap.rows.append({**row, **_golden_s(tool, golden_budget, probe, during)})

    if traced:
        lap.streams = {"service": layers.parse_events(buf.getvalue())}
        lap.extra = {
            **extra,
            "service.start_s": spans.total("service.start"),
            "service.submit_ms": spans.total("service.submit") / len(ids) * 1e3,
            "service.stop_s": spans.total("service.stop"),
            **_service_events_metrics(lap.streams["service"], submitted_at),
            "service.overhead_share": 1 - spans.total("campaign.run") / wall,
        }
    return lap


# ------------------------------------------------------------------- driver


def run_lap(name, seed, traced, smoke, tmp, spawned_at, oracle_sample) -> dict:
    workload = spec.WORKLOADS[name]
    cells = spec.cells(name, smoke)
    spans = Spans()
    run = service_lap if workload.kind == "service" else inline_lap
    lap = run(workload, smoke, seed, traced, tmp, spawned_at, spans)

    # A cell fails whole: (cell key, why) pairs.
    failures = lap.failures
    expected = verify.load_expected()
    summaries = {c: verify.summarize(r) for c, r in lap.results.items()}
    for cell, result in lap.results.items():
        why = verify.check_cell(cell, seed, result, summaries[cell], expected)
        if why is not None:
            failures.append((cell.key, why))
    # which check the simulated statistics got
    check = "pinned" if verify.seed_key(seed) in expected["seeds"] else "unpinned"
    if oracle_sample and check == "unpinned":
        sampled = verify.oracle_sample(lap.results, seed, oracle_sample)
        if sampled is None:
            check = "unpinned, no oracle"
        else:
            failures += sampled
    failed_cells = {key for key, _ in failures}
    shape = verify.paper_shape(lap.results)

    attempted = sum(c.n for c in cells)
    failed = sum(c.n for c in cells if c.key in failed_cells)
    golden, unscaled = (
        sum(r["n"] * r[k] for r in lap.rows) for k in ("golden_s", "golden_unscaled_s")
    )
    return {
        "workload": name, "seed": seed, "traced": traced, "smoke": smoke,
        "check": check,
        "attempted": attempted, "failed": failed,
        "failures": [f"{key}: {why}" for key, why in failures],
        "e2e": {
            "setup_s": lap.setup_s,
            "exps_per_s": attempted / lap.wall_s,
            "run_over_golden": lap.wall_s / golden,
            "cpu_s_per_kexp": lap.cpu_s / attempted * 1e3,
            "peak_rss_mb": lap.peak_rss_mb,
            "failed_share": failed / attempted,
            "paper_shape_violations": shape["paper_shape_violations"],
            # what the speed probe changed (README, "Speed probe")
            "run_over_golden_unscaled": lap.wall_s / unscaled,
        },
        "digests": {c.key: s["records_sha256"] for c, s in summaries.items()},
        "layers": (
            {**layer_metrics(lap, cells, seed, tmp, spans), **shape} if traced else None
        ),
        "cells": lap.rows,
        "spans": spans.rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.lap")
    parser.add_argument("workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=spec.DEFAULT_SEED)
    parser.add_argument("--tmp", required=True, help="this lap's scratch directory")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() when the parent started this process")
    parser.add_argument("--oracle-sample", type=int, default=0)
    args = parser.parse_args(argv)
    spawned_at = time.time() if args.spawned_at is None else args.spawned_at
    report = run_lap(
        args.workload, args.seed, args.trace, args.smoke, args.tmp,
        spawned_at, args.oracle_sample,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
