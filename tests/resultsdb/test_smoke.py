"""End-to-end resultsdb smoke (the CI "resultsdb smoke" step).

Two passes, one acceptance bar — the SQLite store must agree with the
in-memory ``CampaignResult`` exactly:

* CLI pass: a real 50-experiment ``refine-campaign --db`` run, then
  ``refine-db ingest --events --report`` over the same stream, with DB
  counts, records and analysis output compared against the saved matrix.
* Distributed pass: a LocalService campaign written through to its
  results database, with a forced lease-expiry duplicate submission —
  requeued/duplicate leases must not inflate counts.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.campaign import run_campaign
from repro.campaign.io import load_matrix, result_to_dict
from repro.campaign import make_tool
from repro.cli import campaign_main
from repro.dist import CampaignSpec, CoordinatorClient
from repro.resultsdb import (
    ResultsDB,
    find_campaign,
    matrix_from_db,
    to_campaign_result,
)
from repro.resultsdb.cli import main as db_main
from repro.service import LocalService

from tests.conftest import (
    DEMO_SOURCE,
    collect,
    lease_task,
    request_for,
    run_lease,
)

N = 50


class TestCliRoundTrip:
    def test_campaign_db_ingest_report(self, tmp_path, capsys):
        db_path = tmp_path / "campaign.sqlite"
        log = tmp_path / "events.jsonl"
        matrix_path = tmp_path / "matrix.json"

        rc = campaign_main([
            "--workloads", "EP", "--tools", "REFINE", "-n", str(N),
            "--db", str(db_path), "--events", str(log),
            "--keep-records", "--save", str(matrix_path), "-q",
        ])
        assert rc == 0
        capsys.readouterr()
        mem = load_matrix(matrix_path)[("EP", "REFINE")]

        # The write-through store equals the in-memory result exactly.
        with ResultsDB(db_path) as db:
            stored = matrix_from_db(db)[("EP", "REFINE")]
            assert result_to_dict(stored) == result_to_dict(mem)

        # Offline replay of the same stream into a fresh store converges
        # on the same rows, and the one-invocation report builds.
        replay = tmp_path / "replay.sqlite"
        out_dir = tmp_path / "report"
        rc = db_main([
            "ingest", str(replay), "--events", str(log),
            "--report", str(out_dir),
        ])
        assert rc == 0
        assert (out_dir / "index.html").exists()
        with ResultsDB(replay) as db:
            stored = matrix_from_db(db)[("EP", "REFINE")]
            assert result_to_dict(stored) == result_to_dict(mem)
            assert db.run_count() == N


class TestDistributedWriteThrough:
    def test_duplicate_lease_does_not_inflate_counts(self, tmp_path):
        # A worker leases a task and stalls past its lease; a healthy
        # worker redoes it; the stale submission lands afterwards.  The
        # coordinator accepts exactly one copy into the event stream, so
        # the store tallies every index once.
        sequential = run_campaign(
            make_tool("REFINE", DEMO_SOURCE, "demo"), n=16, keep_records=True
        )
        spec = CampaignSpec(
            workload="demo", source=DEMO_SOURCE, tool_name="REFINE", n=16,
            keep_records=True,
        )
        db_path = tmp_path / "dist.sqlite"
        with LocalService(
            workers=0, chunk_size=4, lease_timeout=0.5, backoff_base=0.01,
            db_path=db_path,
        ) as svc:
            cid = svc.client.submit(request_for(spec))
            slow = CoordinatorClient(svc.host, svc.port, name="slow")
            slow.connect()
            lease = lease_task(slow)
            part = run_lease(lease)
            svc.start_worker(name="healthy")
            results = collect(svc, cid)
            ack = slow.complete(lease["task_id"], part)
            slow.close()
        assert ack == {"type": "ok", "duplicate": True}
        assert result_to_dict(results[("demo", "REFINE")]) == (
            result_to_dict(sequential)
        )

        with ResultsDB(db_path) as db:
            stored_id = find_campaign(db, "demo", "REFINE")
            assert db.run_count(stored_id) == 16
            stored = to_campaign_result(db, stored_id)
            assert result_to_dict(stored) == result_to_dict(sequential)
