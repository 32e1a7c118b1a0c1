"""Traced-lap probes: each times public calls into one layer from outside.

Everything here runs after the lap's timed region, so none of it is in an
end-to-end number; ``trace_overhead_share`` covers what tracing costs
inside the region (the event stream and the progress callback).
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import time

from repro.backend.compiler import CompileOptions, compile_ir
from repro.campaign import (
    CampaignCheckpoint,
    EventLog,
    run_campaign_parallel,
    save_checkpoint,
)
from repro.dist.protocol import recv_message, send_message
from repro.errors import ResultsDBError
from repro.frontend import compile_source
from repro.irpasses.base import optimize_module
from repro.resultsdb import (
    DatabaseSink,
    ResultsDB,
    breakdown,
    build_report,
    contingency,
    list_campaigns,
    to_campaign_result,
)
from repro.workloads import workload_sources

from perfbench import adapter
from perfbench.trace import percentile

#: The service coordinator flushes the sink before every checkpoint,
#: i.e. every DEFAULT_CHECKPOINT_EVERY experiments; the replay does the same.
FLUSH_EVERY = 50


def _ms(fn, *args) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args)
    return (time.perf_counter() - t0) * 1e3, out


def compile_stages(programs) -> dict:
    """Frontend, optimizer and (clean-binary) backend time, summed over the
    lap's distinct programs.  Tool instrumentation rides in ``fi.compile_ms``."""
    sources = workload_sources()
    front = opt = codegen = 0.0
    for program in sorted(set(programs)):
        ms, module = _ms(compile_source, sources[program], program)
        front += ms
        opt += _ms(optimize_module, module, "O2")[0]
        # O0 = empty pass pipeline: the backend alone on the optimized IR
        codegen += _ms(compile_ir, module, CompileOptions(opt_level="O0"))[0]
    return {
        "frontend.lower_ms": front,
        "irpasses.opt_ms": opt,
        "backend.codegen_ms": codegen,
    }


def events_emit_us(sample: dict, tmp: str, count: int = 10_000) -> float:
    """``EventLog.emit`` of one experiment event to a file, in microseconds."""
    fields = {k: v for k, v in sample.items() if k not in ("seq", "ts", "event")}
    with EventLog(path=os.path.join(tmp, "probe-events.jsonl")) as log:
        t0 = time.perf_counter()
        for _ in range(count):
            log.emit("experiment", **fields)
        return (time.perf_counter() - t0) / count * 1e6


def checkpoint_save_ms(result, seed: int, tmp: str, repeats: int = 5) -> float:
    """``save_checkpoint`` of a finished cell kept as a partial with records."""
    ckpt = CampaignCheckpoint(
        workload=result.workload, tool=result.tool, n=result.n,
        base_seed=seed, keep_records=True,
        completed={r.index for r in result.records}, partial=result,
        fault_model=result.fault_model,
    )
    path = os.path.join(tmp, "probe.ckpt.json")
    return statistics.median(
        _ms(save_checkpoint, ckpt, path)[0] for _ in range(repeats)
    )


def frame_rtt_us(count: int = 2000) -> float:
    """One request/reply through the dist framing over a socketpair."""
    a, b = socket.socketpair()
    request = {"type": "request_task", "worker": "probe"}
    reply = {"type": "wait", "delay_s": 0.5}
    try:
        t0 = time.perf_counter()
        for _ in range(count):
            send_message(a, request)
            recv_message(b)
            send_message(b, reply)
            recv_message(a)
        return (time.perf_counter() - t0) / count * 1e6
    finally:
        a.close()
        b.close()


def sink_replay(streams: dict[str, list[dict]], tmp: str) -> dict:
    """Replay captured event streams into fresh ``DatabaseSink`` stores
    (one per stream: campaigns that differ only by fault model may not
    share a store), then read them back and render the report."""
    rows = 0
    write_s = readback_ms = report_ms = 0.0
    flushes: list[float] = []
    size = 0
    for i, events in enumerate(streams.values()):
        path = os.path.join(tmp, f"replay-{i}.sqlite")
        db = ResultsDB(path)
        try:
            sink = DatabaseSink(db, source="perfbench")
            pending = 0
            t0 = time.perf_counter()
            for event in events:
                sink.emit(
                    event["event"],
                    **{k: v for k, v in event.items() if k != "event"},
                )
                if event["event"] == "experiment":
                    rows += 1
                    pending += 1
                    if pending == FLUSH_EVERY:
                        pending = 0
                        f0 = time.perf_counter()
                        sink.flush()
                        db.commit()
                        flushes.append((time.perf_counter() - f0) * 1e3)
            sink.close()
            write_s += time.perf_counter() - t0

            t0 = time.perf_counter()
            infos = list_campaigns(db)
            for info in infos:
                to_campaign_result(db, info.id)
                breakdown(db, info.id, "func")
            for program in {i.workload for i in infos}:
                try:
                    contingency(db, program, "REFINE", "PINFI")
                except ResultsDBError:
                    pass  # this program did not run exactly one of each
            readback_ms += (time.perf_counter() - t0) * 1e3
            report_ms += _ms(build_report, db, os.path.join(tmp, f"report-{i}"))[0]
        finally:
            db.close()
        size += sum(
            os.path.getsize(os.path.join(tmp, f))
            for f in os.listdir(tmp) if f.startswith(f"replay-{i}.sqlite")
        )
    return {
        "resultsdb.sink_rows_per_s": rows / write_s if write_s else 0.0,
        "resultsdb.flush_ms_p50": percentile(flushes, 0.5),
        "resultsdb.db_bytes_per_exp": size / rows if rows else 0.0,
        "resultsdb.readback_ms": readback_ms,
        "resultsdb.report_ms": report_ms,
    }


def parallel_speedup(cell, seed: int, inline_result, inline_wall: float) -> float:
    """Inline campaign wall over ``run_campaign_parallel(workers=2)`` wall
    for the same cell (the parallel side pays pool start and a compile per
    worker, which is the trade a user makes)."""
    t0 = time.perf_counter()
    result = run_campaign_parallel(
        cell.tool, workload_sources()[cell.program], cell.program, cell.n,
        workers=2, base_seed=seed,
        fault_model=None if cell.model == "single-bit" else cell.model,
        **adapter.accepted(run_campaign_parallel, **adapter.PRODUCTION),
    )
    wall = time.perf_counter() - t0
    if result.counts != inline_result.counts:
        raise RuntimeError(f"parallel runner disagrees with inline on {cell.key}")
    return inline_wall / wall


def parse_events(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def scheduler_metrics(finishes: list[dict], total_steps: int, wall: float) -> dict:
    """``campaign.*`` from the ``campaign_finish`` / ``cell_finish`` events'
    ``phases`` and ``scheduler`` fields.  ``wall`` is the executor time the
    phases can fill: the timed region inline, workers x region on the
    service (whose phases are summed over concurrent workers)."""
    phases = {
        k: sum(e["phases"][k] for e in finishes)
        for k in ("translate_s", "prefix_s", "fork_s", "tail_s", "classify_s")
    }
    sched = {
        k: sum(e.get("scheduler", {}).get(k, 0) for e in finishes)
        for k in ("experiments", "forks", "rejoins", "cursor_steps",
                  "prefix_steps_saved", "tail_steps_saved")
    }
    tail_steps = total_steps - sched["prefix_steps_saved"] - sched["tail_steps_saved"]
    out = {f"campaign.{k}": v for k, v in phases.items()}
    out.update({
        "campaign.unaccounted_s": wall - sum(phases.values()),
        "campaign.tail_share": phases["tail_s"] / wall,
        "campaign.fork_share": phases["fork_s"] / wall,
        # the most fork-bound cell, against its own phases
        "campaign.fork_share_max_cell": max(
            e["phases"]["fork_s"] / sum(e["phases"].values()) for e in finishes
        ),
        "campaign.forks": sched["forks"],
        "campaign.rejoins": sched["rejoins"],
        "campaign.cursor_steps": sched["cursor_steps"],
        "campaign.tail_steps": tail_steps,
        "campaign.rejoin_ratio": (
            sched["rejoins"] / sched["experiments"] if sched["experiments"] else 0.0
        ),
        "campaign.tail_us_per_kstep": (
            phases["tail_s"] * 1e6 / (tail_steps / 1e3) if tail_steps else 0.0
        ),
    })
    return out
