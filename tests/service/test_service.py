"""End-to-end campaign service tests on an in-process service.

Real TCP, real queue file, real experiments.  The acceptance bars from
the service's design:

* a campaign submitted through the service is **bit-identical** to the
  same campaign run by ``run_campaign`` in one process;
* ``kill -9`` mid-campaign followed by a restart resumes from durable
  state with **no duplicated and no lost experiments** (checked against
  the results database's ``runs`` rows);
* auto-validation flags a perturbed workload as ``failed`` end to end
  (queue row, database, HTML report);
* a poison task, or a part from another build, fails **its campaign** —
  never the service: the other tenants, the pump and the workers carry on.

The CI "service smoke test" step runs this file with a ``-k`` selection.
"""

import re
import threading
import time

import pytest

pytestmark = pytest.mark.slow

from repro.campaign import make_tool, read_events, run_campaign
from repro.campaign.events import EventLog
from repro.dist import CoordinatorClient
from repro.dist.worker import Worker
from repro.campaign.classify import OUTCOME_ORDER
from repro.campaign.io import result_to_dict
from repro.errors import DistConnectionError, DistError, ServiceError
from repro.resultsdb.db import ResultsDB
from repro.resultsdb.queries import list_campaigns
from repro.resultsdb.report import build_report
from repro.service import (
    CampaignQueue,
    LocalService,
    SOAK_TENANT,
    ServiceCoordinator,
    ServiceClient,
)

from tests.conftest import (
    DEMO_SOURCE,
    collect,
    descendants,
    lease_task,
    run_lease,
    wait_progress as _wait_progress,
)

N = 16
SEED = 20170817


def _request(n=N, base_seed=SEED, **extra):
    req = {
        "workloads": ["demo"], "tools": ["REFINE"], "n": n,
        "base_seed": base_seed, "sources": {"demo": DEMO_SOURCE},
        "keep_records": True,
    }
    req.update(extra)
    return req


@pytest.fixture(scope="module")
def sequential():
    """Ground truth the service must reproduce bit for bit."""
    tool = make_tool("REFINE", DEMO_SOURCE, "demo")
    return run_campaign(tool, n=N, base_seed=SEED, keep_records=True)


def _paths(tmp_path):
    return {
        "queue_path": tmp_path / "queue.sqlite",
        "db_path": tmp_path / "results.sqlite",
        "checkpoint_root": tmp_path / "ckpt",
    }


class TestSmoke:
    def test_submit_watch_fetch_round_trip(self, tmp_path, sequential):
        with LocalService(workers=2, **_paths(tmp_path)) as svc:
            cid = svc.client.submit(_request())
            final = svc.client.watch(cid, timeout=300.0)
            assert final["info"]["state"] == "done"
            fetched = svc.client.fetch(cid)
            assert fetched["results"]["demo/REFINE"] == result_to_dict(
                sequential
            )
            # First contact pins the baseline.
            assert final["info"]["validation"] == "pinned"

    def test_smoke_equivalence_is_bit_identical(self, tmp_path, sequential):
        """Whatever the worker count, the service reproduces the
        sequential run exactly — counts, golden output, fault records."""
        for workers in (1, 3):
            with LocalService(
                workers=workers, queue_path=tmp_path / f"q{workers}.sqlite",
                chunk_size=3,
            ) as svc:
                cid = svc.client.submit(_request())
                svc.client.watch(cid, timeout=300.0)
                fetched = svc.client.fetch(cid)
                assert fetched["results"]["demo/REFINE"] == result_to_dict(
                    sequential
                )


class TestMultiTenant:
    def test_quota_rejected_at_the_wire(self, tmp_path):
        with LocalService(
            workers=0, queue_path=tmp_path / "q.sqlite", tenant_quota=2
        ) as svc:
            svc.client.submit(_request(), tenant="alice")
            svc.client.submit(_request(), tenant="alice")
            with pytest.raises(ServiceError, match="quota"):
                svc.client.submit(_request(), tenant="alice")
            # Other tenants are unaffected.
            svc.client.submit(_request(), tenant="bob")

    def test_priority_orders_admission(self, tmp_path):
        """Pre-load the queue, then start the service: admission must be
        priority-DESC, FIFO within a band (started_at timestamps)."""
        paths = _paths(tmp_path)
        with CampaignQueue(paths["queue_path"]) as queue:
            low = queue.submit(_request(base_seed=1), priority=0)
            high = queue.submit(_request(base_seed=2), priority=5)
            mid = queue.submit(_request(base_seed=3), priority=2)
        with LocalService(
            workers=1, max_active=1, queue_path=paths["queue_path"]
        ) as svc:
            for cid in (low, high, mid):
                final = svc.client.watch(cid, timeout=300.0)
                assert final["info"]["state"] == "done"
            started = {
                cid: svc.client.status(cid)["info"]["started_at"]
                for cid in (low, high, mid)
            }
        assert started[high] < started[mid] < started[low]

    def test_cancel_while_running(self, tmp_path):
        with LocalService(
            workers=1, chunk_size=1, queue_path=tmp_path / "q.sqlite"
        ) as svc:
            cid = svc.client.submit(_request(n=64))
            _wait_progress(svc.client, cid, 2)
            reply = svc.client.cancel(cid)
            assert reply["cancel_requested"]
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                state = svc.client.status(cid)["info"]["state"]
                if state == "cancelled":
                    break
                time.sleep(0.05)
            assert state == "cancelled"
            # The service moves on: the next campaign still completes.
            follow = svc.client.submit(_request(n=4))
            assert (
                svc.client.watch(follow, timeout=300.0)["info"]["state"]
                == "done"
            )

    def test_cancel_while_queued(self, tmp_path):
        with LocalService(workers=0, queue_path=tmp_path / "q.sqlite") as svc:
            cid = svc.client.submit(_request())
            svc.client.cancel(cid)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                state = svc.client.status(cid)["info"]["state"]
                if state == "cancelled":
                    break
                time.sleep(0.05)
            assert state == "cancelled"


class TestPoisonTask:
    """What cannot be retried into shape fails the campaign that owns the
    cell — queue row ``failed`` with the reason, its cells retired — and
    nothing else."""

    @pytest.mark.parametrize("poison", ["task_failed", "foreign_part"])
    def test_poison_fails_its_campaign_not_the_service(
        self, tmp_path, poison
    ):
        n, max_attempts = 4, 1
        request = _request(n=n)
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events, LocalService(
            workers=0, max_active=1, max_attempts=max_attempts,
            backoff_base=0.0, chunk_size=n, events=events,
            queue_path=tmp_path / "queue.sqlite",
        ) as svc:
            a = svc.client.submit(request, tenant="a")
            b = svc.client.submit(request, tenant="b")
            cursed = CoordinatorClient(svc.host, svc.port, name="cursed")
            cursed.connect()
            if poison == "task_failed":
                # A's only task fails until it is out of attempts
                for attempt in range(max_attempts + 1):
                    lease = lease_task(cursed)
                    assert lease["attempt"] == attempt
                    cursed.fail(lease["task_id"], "RuntimeError: poison")
                reason = f"task {lease['task_id']} .*failed 2 times"
            else:
                # a part of another program: no retry can make A whole
                lease = lease_task(cursed)
                part = run_lease(lease)
                part.golden_output = ("42",)
                with pytest.raises(DistError, match="golden output"):
                    cursed.complete(lease["task_id"], part)
                cursed.close()  # the error reply hung up on it
                cursed.connect()
                reason = f"task {lease['task_id']}.* golden output"

            failed = svc.client.watch(a, timeout=30.0)["info"]
            assert failed["state"] == "failed"
            assert re.search(reason, failed["error"])
            # ... and that is all that failed: the pump lives, the same
            # client is still served — B's plan, or nothing yet
            assert svc.coordinator._pump_thread.is_alive()
            reply = cursed.request_task()
            assert reply["type"] in ("plan", "wait")
            if reply["type"] == "plan":
                assert reply["task_id"] != lease["task_id"]
            cursed.close()  # (what it may hold is requeued: B's 1 attempt)

            svc.start_worker(name="honest")
            tool = make_tool("REFINE", DEMO_SOURCE, "demo")
            expected = result_to_dict(
                run_campaign(tool, n=n, base_seed=SEED, keep_records=True)
            )
            assert result_to_dict(collect(svc, b)[("demo", "REFINE")]) == (
                expected
            )
            again = svc.client.submit(request, tenant="a")
            assert result_to_dict(collect(svc, again)[("demo", "REFINE")]) == (
                expected
            )
            listing = svc.client.list()
            assert {row["id"]: row["state"] for row in listing["campaigns"]} == {
                a: "failed", b: "done", again: "done"
            }
            assert "honest" in listing["workers"]
        failures = [
            e for e in read_events(log) if e["event"] == "campaign_failed"
        ]
        assert [e["campaign"] for e in failures] == [a]


class TestRestartRecovery:
    def test_kill9_resumes_with_no_dup_no_loss(self, tmp_path, sequential):
        """The headline acceptance test: hard-kill the coordinator
        mid-campaign, restart on the same durable state, and require the
        database to end with exactly one row per experiment index."""
        paths = _paths(tmp_path)
        big_n = 48  # big enough that the kill lands mid-campaign
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        ground_truth = run_campaign(
            tool, n=big_n, base_seed=SEED, keep_records=True
        )
        svc = LocalService(
            workers=1, chunk_size=1, checkpoint_every=1, **paths
        )
        try:
            cid = svc.client.submit(_request(n=big_n))
            status = _wait_progress(svc.client, cid, 4)
            assert status["info"]["state"] == "running", (
                "campaign finished before the kill could land; "
                "raise big_n"
            )
            svc.restart(kill=True)  # kill -9 the coordinator
            final = svc.client.watch(cid, timeout=300.0)
            assert final["info"]["state"] == "done"
            fetched = svc.client.fetch(cid)
        finally:
            svc.stop()
        # Bit-identical despite the crash ...
        assert fetched["results"]["demo/REFINE"] == result_to_dict(
            ground_truth
        )
        # ... and exactly-once in the durable record: N rows, N distinct
        # indices — nothing lost, nothing duplicated.
        with ResultsDB(paths["db_path"]) as db:
            total, distinct = db.execute(
                "SELECT COUNT(*), COUNT(DISTINCT idx) FROM runs"
            ).fetchone()
        assert total == big_n
        assert distinct == big_n

    def test_graceful_drain_checkpoints_and_resumes(self, tmp_path):
        """Drain mid-campaign (the SIGTERM path): the service checkpoints
        and stops; a restart on the same state finishes the campaign with
        exactly-once results."""
        paths = _paths(tmp_path)
        big_n = 48
        svc = LocalService(
            workers=1, chunk_size=1, checkpoint_every=1, **paths
        )
        try:
            cid = svc.client.submit(_request(n=big_n))
            _wait_progress(svc.client, cid, 2)
            svc.client.drain(grace_s=30.0)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                try:
                    svc.client.list()
                except DistConnectionError:
                    break  # drained and stopped
                time.sleep(0.1)
            svc.restart()  # fresh coordinator, same queue/db/checkpoints
            final = svc.client.watch(cid, timeout=300.0)
            assert final["info"]["state"] == "done"
        finally:
            svc.stop()
        with ResultsDB(paths["db_path"]) as db:
            total, distinct = db.execute(
                "SELECT COUNT(*), COUNT(DISTINCT idx) FROM runs"
            ).fetchone()
        assert total == big_n
        assert distinct == big_n


    def test_a_worker_that_will_not_leave_is_terminated(
        self, tmp_path, monkeypatch
    ):
        """A worker with a reconnect window keeps redialling a killed
        coordinator; ``restart`` waits out its deadline, terminates it and
        says so."""
        from repro.service import local

        monkeypatch.setattr(local, "_LEAVE_S", 0.5)
        before = descendants()
        svc = LocalService(
            workers=1, reconnect_window=3600.0,
            chunk_size=4, checkpoint_every=4, **_paths(tmp_path),
        )
        try:
            cid = svc.client.submit(_request(n=480))
            _wait_progress(svc.client, cid, 8)
            assert len(descendants() - before) == 2  # the nursery, a worker
            svc.restart(kill=True, workers=0)
            assert len(descendants() - before) == 1  # the nursery
            assert ["terminate()" in str(e) for e in svc._worker_errors] == [True]
            svc.start_worker()
            final = svc.client.watch(cid, timeout=300.0)
            assert final["info"]["state"] == "done"
        finally:
            svc.stop()
        assert not descendants() - before
        with ResultsDB(tmp_path / "results.sqlite") as db:
            assert db.execute(
                "SELECT COUNT(*), COUNT(DISTINCT idx) FROM runs"
            ).fetchone() == (480, 480)


class TestWorkerReconnect:
    def test_worker_rides_out_a_coordinator_bounce(self, tmp_path):
        """A worker with a reconnect window survives the coordinator being
        hard-killed and rebound on the same port, and finishes the
        campaign against the restarted service."""
        paths = _paths(tmp_path)
        first = ServiceCoordinator(
            port=0, queue_path=paths["queue_path"],
            checkpoint_root=paths["checkpoint_root"],
            chunk_size=1, checkpoint_every=1,
        )
        host, port = first.start()
        stats_box = []
        worker = Worker(
            host, port, reconnect_window=60.0,
            reconnect_base=0.05, reconnect_cap=0.2,
        )
        # The worker holds its third lease until the kill has landed, so it
        # is mid-campaign then however fast the leases go; were it to finish
        # first, the second service would complete from checkpoints alone
        # and drain before the worker's backoff let it redial.
        killed = threading.Event()
        served = []
        run_task = worker._run_task

        def held_run_task(spec, indices):
            if len(served) == 2:
                assert killed.wait(timeout=60.0)
            served.append(indices)
            return run_task(spec, indices)

        worker._run_task = held_run_task
        thread = threading.Thread(
            target=lambda: stats_box.append(worker.run()), daemon=True
        )
        thread.start()
        client = ServiceClient(host, port)
        cid = client.submit(_request(n=32))
        _wait_progress(client, cid, 2)
        first.kill()
        killed.set()
        second = ServiceCoordinator(
            host=host, port=port, queue_path=paths["queue_path"],
            checkpoint_root=paths["checkpoint_root"],
            chunk_size=1, checkpoint_every=1,
        )
        try:
            assert second.start() == (host, port)
            final = client.watch(cid, timeout=300.0)
            assert final["info"]["state"] == "done"
            second.request_drain(grace_s=5.0)
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        finally:
            second.stop()
        # The same worker object served both coordinators.
        assert stats_box and stats_box[0].experiments > 0


class TestValidation:
    def test_perturbed_baseline_flags_failed_everywhere(
        self, tmp_path, sequential
    ):
        """Pin a deliberately wrong baseline, run the real campaign, and
        require ``validation=failed`` on the queue row, in the database,
        and in the HTML report."""
        paths = _paths(tmp_path)
        counts = {o.value: sequential.frequency(o) for o in OUTCOME_ORDER}
        least = min(OUTCOME_ORDER, key=lambda o: counts[o.value])
        perturbed = {o.value: 0 for o in OUTCOME_ORDER}
        perturbed[least.value] = N
        with ResultsDB(paths["db_path"]) as db:
            db.pin_baseline(
                "demo", "REFINE", fault_model="single-bit", n=N,
                counts=perturbed, base_seed=SEED, source="test-perturbed",
            )
            db.commit()
        with LocalService(workers=2, **_paths(tmp_path)) as svc:
            cid = svc.client.submit(_request())
            final = svc.client.watch(cid, timeout=300.0)
            assert final["info"]["state"] == "done"
            assert final["info"]["validation"] == "failed"
            detail = final["info"]["detail"]
            assert detail["cells"]["demo/REFINE"]["verdict"] == "failed"
            assert detail["cells"]["demo/REFINE"]["p_value"] < 0.05
        with ResultsDB(paths["db_path"]) as db:
            rows = [
                info for info in list_campaigns(db)
                if info.workload == "demo" and info.tool == "REFINE"
            ]
            assert rows and rows[0].validation == "failed"
            index = build_report(db, tmp_path / "report")
        assert "<td class=\"failed\">failed p=" in index.read_text()

    def test_matching_baseline_passes(self, tmp_path, sequential):
        paths = _paths(tmp_path)
        counts = {o.value: sequential.frequency(o) for o in OUTCOME_ORDER}
        with ResultsDB(paths["db_path"]) as db:
            db.pin_baseline(
                "demo", "REFINE", fault_model="single-bit", n=N,
                counts=counts, base_seed=SEED, source="test-exact",
            )
            db.commit()
        with LocalService(workers=1, **paths) as svc:
            cid = svc.client.submit(_request())
            final = svc.client.watch(cid, timeout=300.0)
        # Identical distributions: either a clean pass or (both 100% one
        # outcome) a degenerate table the test cannot judge.
        assert final["info"]["validation"] in ("passed", "skipped")


class TestSoak:
    def test_soak_mode_mines_and_pins(self, tmp_path):
        """`--soak` keeps the queue topped up with deterministic fuzz
        campaigns under the soak tenant; first contact pins baselines."""
        paths = _paths(tmp_path)
        svc = LocalService(
            workers=1, soak=True, soak_n=4, soak_backlog=1,
            artifacts_dir=tmp_path / "artifacts", **paths
        )
        try:
            done_rows = []
            deadline = time.monotonic() + 240.0
            while time.monotonic() < deadline and not done_rows:
                rows = svc.client.list(tenant=SOAK_TENANT)["campaigns"]
                done_rows = [r for r in rows if r["state"] == "done"]
                time.sleep(0.2)
        finally:
            svc.stop()
        assert done_rows, "no soak campaign completed in time"
        row = done_rows[0]
        assert row["tenant"] == SOAK_TENANT
        assert row["lifecycle"] == "soak"
        assert row["priority"] < 0  # below any user work
        assert row["validation"] in ("pinned", "passed", "skipped")
