"""Tier-1 service smoke: one tiny campaign through the full stack.

Kept deliberately small (one worker, four experiments, inline source) so
the default test run exercises submit → queue → admit → lease → validate
→ fetch end to end; everything heavier is in ``test_service.py`` under
``-m slow``.
"""

import multiprocessing
import os
import socket
import time

import pytest

from repro.campaign import (
    CampaignSpec,
    make_tool,
    read_events,
    run_campaign,
    run_cell,
    run_cells,
)
from repro.campaign.events import EventLog
from repro.campaign.io import result_to_dict
from repro.errors import CampaignError, ServiceError
from repro.fi import tools as fi_tools
from repro.service import LocalService

from tests.conftest import (
    DEMO_SOURCE,
    descendants,
    request_for,
    serve,
    wait_progress,
)

N = 4
SEED = 99


def _request(n):
    return {
        "workloads": ["demo"], "tools": ["REFINE"], "n": n,
        "base_seed": SEED, "sources": {"demo": DEMO_SOURCE},
        "keep_records": True,
    }


def test_tiny_campaign_round_trip(tmp_path):
    tool = make_tool("REFINE", DEMO_SOURCE, "demo")
    sequential = run_campaign(tool, n=N, base_seed=SEED, keep_records=True)
    with LocalService(
        workers=1, queue_path=tmp_path / "queue.sqlite"
    ) as svc:
        cid = svc.client.submit(_request(N))
        final = svc.client.watch(cid, timeout=120.0)
        assert final["info"]["state"] == "done"
        fetched = svc.client.fetch(cid)
        assert fetched["results"]["demo/REFINE"] == result_to_dict(sequential)
        # No results database attached: validation is explicitly skipped.
        assert final["info"]["validation"] == "skipped"
        # And a garbage submit is rejected at the wire.
        with pytest.raises(ServiceError, match="workloads"):
            svc.client.submit({"tools": ["REFINE"], "n": 1})


def test_cells_are_built_only_by_the_workers_that_run_them(monkeypatch):
    """The coordinator compiles nothing: with every compile in the harness's
    own process failing, a 2-cell campaign on 2 workers — and the same
    cells through ``run_cells(specs, workers=2)`` — still equal inline."""
    specs = [
        CampaignSpec(
            workload="demo", source=DEMO_SOURCE, tool_name=tool, n=6,
            base_seed=SEED, keep_records=True,
        )
        for tool in ("REFINE", "PINFI")
    ]
    inline = {spec.key: result_to_dict(run_cell(spec)) for spec in specs}
    harness, compile_minic = os.getpid(), fi_tools.compile_minic

    def compile_in_workers_only(*args, **kwargs):
        if os.getpid() == harness:
            raise CampaignError("the harness process compiled a cell")
        return compile_minic(*args, **kwargs)

    with LocalService(workers=2, chunk_size=2) as svc:
        monkeypatch.setattr(fi_tools, "compile_minic", compile_in_workers_only)
        served = serve(svc, request_for(specs[0], tools=["REFINE", "PINFI"]))
    assert {k: result_to_dict(r) for k, r in served.items()} == inline
    ran = run_cells(specs, workers=2)
    assert {k: result_to_dict(r) for k, r in ran.items()} == inline


def _wait_workers(svc, count):
    deadline = time.monotonic() + 10.0
    while len(svc.client.list()["workers"]) < count:
        assert time.monotonic() < deadline, "workers never connected"
        time.sleep(0.01)


def test_idle_service_stops_promptly(tmp_path):
    """A bare ``stop()`` with nothing in flight tells the idle workers
    ``done`` instead of waiting out its whole grace period on them."""
    svc = LocalService(workers=2, queue_path=tmp_path / "queue.sqlite")
    try:
        _wait_workers(svc, 2)
        time.sleep(0.1)  # both workers are now parked on a held request
        started = time.monotonic()
    finally:
        svc.stop()
    assert time.monotonic() - started < 1.5
    # they were told ``done``: neither cut off nor terminated, tallies home
    assert not svc._worker_errors
    assert None not in svc.worker_stats()
    assert not multiprocessing.active_children()


def test_workers_are_processes_of_their_own(tmp_path):
    """Two workers are two more processes, each with its own interpreter
    lock; what they hand back is the inline campaign bit for bit."""
    tool = make_tool("REFINE", DEMO_SOURCE, "demo")
    sequential = run_campaign(tool, n=N, base_seed=SEED, keep_records=True)
    with LocalService(
        workers=2, chunk_size=1, queue_path=tmp_path / "queue.sqlite"
    ) as svc:
        cid = svc.client.submit(_request(N))
        assert svc.client.watch(cid, timeout=120.0)["info"]["state"] == "done"
        fetched = svc.client.fetch(cid)
        svc.client.drain(grace_s=5.0)
        assert svc.join_workers(10.0)
        stats = svc.worker_stats()
    assert fetched["results"]["demo/REFINE"] == result_to_dict(sequential)
    assert None not in stats and not svc._worker_errors
    assert sum(s.experiments for s in stats) == N
    assert len({s.pid for s in stats}) == 2
    assert os.getpid() not in {s.pid for s in stats}
    assert all(s.peak_rss_mb > 0 for s in stats)


def test_harness_reaps_every_process_it_started(tmp_path):
    """``stop()``, ``__exit__`` (on an exception too), ``restart()`` and
    ``restart(kill=True)`` each wait for the workers they end — terminating
    one that will not go — instead of walking away from them."""
    before = descendants()

    def ours():
        return descendants() - before

    svc = LocalService(workers=2, queue_path=tmp_path / "a.sqlite")
    _wait_workers(svc, 2)
    first = ours()
    assert len(first) == 3  # the nursery and two workers
    svc.restart()
    _wait_workers(svc, 2)
    second = ours()
    assert len(second) == 3 and len(second & first) == 1  # the nursery
    svc.restart(kill=True, workers=1)
    _wait_workers(svc, 1)
    third = ours()
    assert len(third) == 2 and third & second == second & first
    svc.stop()
    assert not ours() and not multiprocessing.active_children()
    svc.stop()  # idempotent

    with pytest.raises(RuntimeError, match="boom"):
        with LocalService(workers=1, queue_path=tmp_path / "b.sqlite") as svc:
            _wait_workers(svc, 1)
            assert len(ours()) == 2
            raise RuntimeError("boom")
    assert not ours() and not multiprocessing.active_children()

    # a harness nobody stops is dismissed when it is collected (and, by the
    # same finalizer, before multiprocessing's exit handler joins children)
    svc = LocalService(workers=1, queue_path=tmp_path / "c.sqlite")
    _wait_workers(svc, 1)
    coordinator = svc.coordinator
    del svc
    assert not ours() and not multiprocessing.active_children()
    coordinator.stop()

    # and one whose coordinator cannot be built leaves no nursery behind
    with pytest.raises(ServiceError, match="max_active"):
        LocalService(workers=1, max_active=0)
    assert not ours() and not multiprocessing.active_children()


def test_killed_coordinator_port_is_refused(tmp_path):
    """No worker holds a copy of the listening socket: once the coordinator
    is killed its port refuses connections, so a worker with a reconnect
    window is turned away (and gives up by itself) instead of hanging in a
    backlog nobody accepts — and the campaign resumes on the new port."""
    n = 48  # big enough that the kill lands mid-campaign
    tool = make_tool("REFINE", DEMO_SOURCE, "demo")
    sequential = run_campaign(tool, n=n, base_seed=SEED, keep_records=True)
    log = tmp_path / "events.jsonl"
    with EventLog(log) as events:
        with LocalService(
            workers=1, reconnect_window=1.0, chunk_size=1, checkpoint_every=1,
            queue_path=tmp_path / "queue.sqlite",
            checkpoint_root=tmp_path / "ckpt", events=events,
        ) as svc:
            cid = svc.client.submit(_request(n))
            status = wait_progress(svc.client, cid, 2)
            assert status["info"]["state"] == "running", "raise n"
            old = (svc.host, svc.port)
            svc.restart(kill=True)
            asked = time.monotonic()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(old, timeout=1.0)
            assert time.monotonic() - asked < 1.0
            final = svc.client.watch(cid, timeout=120.0)
            assert final["info"]["state"] == "done"
            fetched = svc.client.fetch(cid)
    assert fetched["results"]["demo/REFINE"] == result_to_dict(sequential)
    assert [
        e["campaigns"] for e in read_events(log)
        if e["event"] == "service_recover"
    ] == [[cid]]
    # the first worker was refused and spent its window; nobody had to end it
    (error,) = svc._worker_errors
    assert "coordinator unreachable" in str(error)
    assert svc.worker_stats()[0] is None and svc.worker_stats()[1].tasks > 0


def test_admitted_campaign_that_cannot_install_fails(tmp_path):
    """``campaign_admitted`` says the campaign got its slot, ahead of its
    cells' own events; when a cell then cannot be built (here: a program
    whose fault-free run exits non-zero, so it cannot be profiled), the
    worker that leased its plan says so, ``campaign_failed`` follows at
    once — no retry can build it — and the queue row says why."""
    log = tmp_path / "events.jsonl"
    with EventLog(log) as events:
        with LocalService(
            workers=1, queue_path=tmp_path / "queue.sqlite", events=events
        ) as svc:
            cid = svc.client.submit({
                "workloads": ["broken"], "tools": ["REFINE"], "n": N,
                "sources": {"broken": "int main() { return 1; }"},
            })
            final = svc.client.watch(cid, timeout=60.0)
    assert final["info"]["state"] == "failed"
    assert "profiling run" in final["info"]["error"]
    ours = [
        e["event"] for e in read_events(log) if e.get("campaign") == cid
    ]
    assert ours == ["campaign_admitted", "plan_lease", "campaign_failed"]
    assert "task_requeue" not in {e["event"] for e in read_events(log)}
