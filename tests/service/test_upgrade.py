"""A service must survive its own upgrade with a non-empty queue.

Before the execution path stopped being a choice, every spec, submit
request and durable queue row said how to run: ``schedule``, ``engine``,
``snapshot_interval``.  Those keys are still out there — in queue files,
in clients that have not been upgraded — and must be ignored, never an
error: what they carry loads, runs, and produces the records a fresh
submit does.
"""

from repro.campaign.parallel import run_slice
from repro.dist import CampaignSpec
from repro.service import LocalService
from repro.service.queue import CampaignQueue

from tests.conftest import DEMO_SOURCE

N = 4
SEED = 99

#: what the parent commit's ``refine-campaign --submit`` put on the wire
OLD_KNOBS = {"schedule": "index", "engine": "reference",
             "snapshot_interval": None}

REQUEST = {
    "workloads": ["demo"], "tools": ["REFINE"], "n": N, "base_seed": SEED,
    "sources": {"demo": DEMO_SOURCE}, "keep_records": True,
}


def test_old_spec_dict_loads_and_runs_like_a_fresh_one():
    fresh = CampaignSpec(
        workload="demo", source=DEMO_SOURCE, tool_name="REFINE", n=N,
        base_seed=SEED, keep_records=True,
    )
    old = CampaignSpec.from_dict({**fresh.to_dict(), **OLD_KNOBS})
    assert old == fresh
    assert not set(OLD_KNOBS) & set(old.to_dict())
    part = run_slice(old, range(N))
    assert sorted(rec.index for rec in part.records) == list(range(N))
    assert {rec.engine for rec in part.records} == {"fast"}


def test_old_submit_and_old_queue_row_run_like_a_fresh_submit(tmp_path):
    queue_path = tmp_path / "queue.sqlite"
    # a row the previous version left behind, still queued at shutdown
    with CampaignQueue(queue_path) as queue:
        from_row = queue.submit({**REQUEST, **OLD_KNOBS})
    with LocalService(workers=1, queue_path=queue_path) as svc:
        from_wire = svc.client.submit({**REQUEST, **OLD_KNOBS})
        fresh = svc.client.submit(REQUEST)
        results = {}
        for cid in (from_row, from_wire, fresh):
            final = svc.client.watch(cid, timeout=120.0)
            assert final["info"]["state"] == "done", final["info"]
            results[cid] = svc.client.fetch(cid)["results"]["demo/REFINE"]
    assert len(results[fresh]["records"]) == N
    assert results[from_row] == results[from_wire] == results[fresh]
