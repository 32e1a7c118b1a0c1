"""Tier-1 service smoke: one tiny campaign through the full stack.

Kept deliberately small (one worker, four experiments, inline source) so
the default test run exercises submit → queue → admit → lease → validate
→ fetch end to end; everything heavier is in ``test_service.py`` under
``-m slow``.
"""

import time

import pytest

from repro.campaign import make_tool, read_events, run_campaign
from repro.campaign.events import EventLog
from repro.campaign.io import result_to_dict
from repro.errors import ServiceError
from repro.service import LocalService

from tests.conftest import DEMO_SOURCE

N = 4
SEED = 99


def test_tiny_campaign_round_trip(tmp_path):
    tool = make_tool("REFINE", DEMO_SOURCE, "demo")
    sequential = run_campaign(tool, n=N, base_seed=SEED, keep_records=True)
    with LocalService(
        workers=1, queue_path=tmp_path / "queue.sqlite"
    ) as svc:
        cid = svc.client.submit({
            "workloads": ["demo"], "tools": ["REFINE"], "n": N,
            "base_seed": SEED, "sources": {"demo": DEMO_SOURCE},
            "keep_records": True,
        })
        final = svc.client.watch(cid, timeout=120.0)
        assert final["info"]["state"] == "done"
        fetched = svc.client.fetch(cid)
        assert fetched["results"]["demo/REFINE"] == result_to_dict(sequential)
        # No results database attached: validation is explicitly skipped.
        assert final["info"]["validation"] == "skipped"
        # And a garbage submit is rejected at the wire.
        with pytest.raises(ServiceError, match="workloads"):
            svc.client.submit({"tools": ["REFINE"], "n": 1})


def test_idle_service_stops_promptly(tmp_path):
    """A bare ``stop()`` with nothing in flight tells the idle workers
    ``done`` instead of waiting out its whole grace period on them."""
    svc = LocalService(workers=2, queue_path=tmp_path / "queue.sqlite")
    try:
        deadline = time.monotonic() + 10.0
        while len(svc.client.list()["workers"]) < 2:
            assert time.monotonic() < deadline, "workers never connected"
            time.sleep(0.01)
        time.sleep(0.1)  # both workers are now parked on a held request
        started = time.monotonic()
    finally:
        svc.stop()
    assert time.monotonic() - started < 1.5
    assert not any(thread.is_alive() for thread in svc._threads)
    assert not svc._worker_errors  # they were told ``done``, not cut off


def test_admitted_campaign_that_cannot_install_fails(tmp_path):
    """``campaign_admitted`` says the campaign got its slot, ahead of its
    cells' own events; when installing them then fails (here: a program
    whose fault-free run exits non-zero, so it cannot be profiled),
    ``campaign_failed`` follows and the queue row says why."""
    log = tmp_path / "events.jsonl"
    with EventLog(log) as events:
        with LocalService(
            workers=0, queue_path=tmp_path / "queue.sqlite", events=events
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
    assert ours == ["campaign_admitted", "campaign_failed"]
