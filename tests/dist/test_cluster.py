"""End-to-end distributed campaign tests on a single-host service.

Everything here runs real TCP, real leases and real experiments through the
one coordinator (``LocalService``: a ``ServiceCoordinator`` plus worker
processes); the acceptance bar throughout is *bit-identical to sequential* —
same outcome counts, same per-experiment fault records, same serialized
form — whatever the worker count or failure history.

The CI "distributed smoke test" step runs this file with ``-k "smoke or
holding_a_plan"``.
"""

import time

import pytest

pytestmark = pytest.mark.slow

from repro.campaign import make_tool, read_events, run_campaign
from repro.campaign.io import result_to_dict
from repro.campaign.runner import matrix_checkpoint_path
from repro.dist import CampaignSpec, CoordinatorClient
from repro.campaign.events import EventLog
from repro.errors import DistError
from repro.service import LocalService, ServiceCoordinator

from tests.conftest import (
    DEMO_SOURCE,
    collect,
    lease_task,
    request_for,
    run_lease,
    serve,
)

N = 16
KEY = ("demo", "REFINE")


def _spec(**overrides):
    kwargs = dict(
        workload="demo", source=DEMO_SOURCE, tool_name="REFINE", n=N,
        keep_records=True,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


@pytest.fixture(scope="module")
def sequential():
    """The ground truth every distributed run must reproduce exactly."""
    tool = make_tool("REFINE", DEMO_SOURCE, "demo")
    return run_campaign(tool, n=N, keep_records=True)


def _assert_identical(result, sequential):
    """Bit-identical: counts, totals (``total_cycles`` included — the cell
    ledger sums it exactly, whatever the lease order), golden output and
    every fault record."""
    assert result_to_dict(result) == result_to_dict(sequential)


def _events_named(path, name):
    return [e for e in read_events(path) if e["event"] == name]


class TestEquivalence:
    def test_smoke_two_workers_bit_identical(self, sequential):
        # The headline guarantee (and the CI smoke test): two workers
        # racing over small chunks produce exactly the sequential result.
        with LocalService(workers=2, chunk_size=3) as svc:
            results = serve(svc, request_for(_spec()))
        _assert_identical(results[KEY], sequential)
        assert not svc._worker_errors
        # an idle stop sends both workers home with their tallies
        stats = svc.worker_stats()
        assert None not in stats
        assert sum(s.experiments for s in stats) >= N

    def test_matrix_of_cells_served_together(self):
        spec = _spec(n=8, keep_records=False)
        with LocalService(workers=2, chunk_size=2) as svc:
            results = serve(svc, request_for(spec, tools=["REFINE", "PINFI"]))
        assert set(results) == {("demo", "REFINE"), ("demo", "PINFI")}
        for _, tool_name in results:
            tool = make_tool(tool_name, DEMO_SOURCE, "demo")
            _assert_identical(
                results[("demo", tool_name)], run_campaign(tool, n=8)
            )


class TestFaultTolerance:
    def test_dead_worker_disconnect_requeue(self, sequential, tmp_path):
        # A worker that vanishes mid-lease (dropped connection) must not
        # lose its task or corrupt the result.
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalService(
                workers=0, chunk_size=2, lease_timeout=10.0,
                backoff_base=0.01, events=events,
            ) as svc:
                svc.start_worker(die_after=1, name="doomed")
                svc.start_worker(name="survivor")
                results = serve(svc, request_for(_spec()))
        _assert_identical(results[KEY], sequential)
        requeues = _events_named(log, "task_requeue")
        assert any(e["reason"] == "disconnect" for e in requeues)
        assert any(
            e["worker"] == "doomed" for e in _events_named(log, "worker_leave")
        )

    def test_worker_dead_holding_a_plan(self, sequential, tmp_path):
        # A cell is built only by workers: one that vanishes while building
        # it (holding the cell's plan) must hand the plan on, not stall it.
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalService(
                workers=0, chunk_size=4, lease_timeout=10.0,
                backoff_base=0.01, events=events,
            ) as svc:
                cid = svc.client.submit(request_for(_spec()))
                svc.start_worker(die_after=0, name="doomed")
                assert svc.join_workers(30)  # gone, with the plan
                svc.start_worker(name="healthy")
                results = collect(svc, cid)
        _assert_identical(results[KEY], sequential)
        (plan,) = _events_named(log, "plan_lease")[:1]
        assert plan["worker"] == "doomed"
        assert [
            (e["task"], e["worker"], e["reason"])
            for e in _events_named(log, "task_requeue")
        ] == [(plan["task"], "doomed", "disconnect")]
        (done,) = _events_named(log, "plan_done")
        assert (done["task"], done["worker"]) == (plan["task"], "healthy")

    def test_hung_worker_requeued_after_heartbeat_timeout(
        self, sequential, tmp_path
    ):
        # The acceptance scenario: a worker leases a task and goes silent
        # without closing its connection.  Only the heartbeat timeout can
        # recover the task.
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalService(
                workers=0, chunk_size=4, lease_timeout=0.75,
                backoff_base=0.01, events=events,
            ) as svc:
                cid = svc.client.submit(request_for(_spec()))
                zombie = CoordinatorClient(svc.host, svc.port, name="zombie")
                zombie.connect()
                lease = lease_task(zombie)
                # ... and now the zombie never heartbeats again.
                svc.start_worker(name="healthy")
                results = collect(svc, cid)
                zombie.close()
        _assert_identical(results[KEY], sequential)
        timeouts = [
            e for e in _events_named(log, "task_requeue")
            if e["reason"] == "timeout"
        ]
        assert any(
            e["task"] == lease["task_id"] and e["worker"] == "zombie"
            for e in timeouts
        )

    def test_late_duplicate_submission_is_dropped(self, sequential, tmp_path):
        # At-least-once delivery: a worker whose lease expired may still
        # finish and submit.  The duplicate must be acknowledged (so the
        # slow worker can move on) but not double-counted.  Two hand-driven
        # clients, two tasks: the cell stays live (its other task is out)
        # while the stale part lands.
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalService(
                workers=0, chunk_size=N // 2, lease_timeout=0.5,
                backoff_base=0.01, events=events,
            ) as svc:
                cid = svc.client.submit(request_for(_spec()))
                slow = CoordinatorClient(svc.host, svc.port, name="slow")
                slow.connect()
                lease = lease_task(slow)
                part = run_lease(lease)
                time.sleep(0.6)  # the lease expires ...
                with CoordinatorClient(svc.host, svc.port, name="fast") as fast:
                    other = lease_task(fast)
                    again = lease_task(fast)  # ... someone else redoes it ...
                    assert again["task_id"] == lease["task_id"]
                    assert again["attempt"] == 1
                    assert fast.complete(again["task_id"], run_lease(again)) == {
                        "type": "ok", "duplicate": False
                    }
                    # ...and only then does the original submission land.
                    ack = slow.complete(lease["task_id"], part)
                    slow.close()
                    fast.complete(other["task_id"], run_lease(other))
                results = collect(svc, cid)
        assert ack == {"type": "ok", "duplicate": True}
        _assert_identical(results[KEY], sequential)
        dupes = [
            e for e in _events_named(log, "task_done") if e["duplicate"]
        ]
        assert [(e["task"], e["worker"]) for e in dupes] == [
            (lease["task_id"], "slow")
        ]

    def test_failed_task_is_retried_elsewhere(self, sequential, tmp_path):
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalService(
                workers=0, chunk_size=4, lease_timeout=10.0,
                backoff_base=0.01, events=events,
            ) as svc:
                cid = svc.client.submit(request_for(_spec()))
                flaky = CoordinatorClient(svc.host, svc.port, name="flaky")
                flaky.connect()
                lease = lease_task(flaky)
                flaky.fail(lease["task_id"], "ValueError: boom")
                flaky.close()
                svc.start_worker(name="healthy")
                results = collect(svc, cid)
        _assert_identical(results[KEY], sequential)
        requeues = _events_named(log, "task_requeue")
        assert any(
            e["reason"] == "failed" and e["task"] == lease["task_id"]
            and e["attempt"] == 1
            for e in requeues
        )

    # A task that fails ``max_attempts + 1`` times fails its campaign, not
    # the service: tests/service/test_service.py::TestPoisonTask.


class TestCheckpointResume:
    def test_restart_resumes_without_rerunning(self, sequential, tmp_path):
        paths = {
            "queue_path": tmp_path / "queue.sqlite",
            "checkpoint_root": tmp_path / "ckpt",
        }
        first_log = tmp_path / "first.jsonl"
        second_log = tmp_path / "second.jsonl"

        # First service: one worker completes exactly 3 tasks (6
        # experiments) and dies; then the service itself is stopped.
        with EventLog(first_log) as events:
            svc = LocalService(
                workers=0, chunk_size=2, lease_timeout=10.0,
                checkpoint_every=2, events=events, **paths,
            )
            cid = svc.client.submit(request_for(_spec()))
            svc.start_worker(die_after=3)
            assert svc.join_workers(120)
            svc.stop()

        assert matrix_checkpoint_path(
            paths["checkpoint_root"] / f"campaign-{cid}", "demo", "REFINE"
        ).exists()
        finished = [
            e for e in _events_named(first_log, "task_done")
            if not e["duplicate"]
        ]
        assert len(finished) == 3
        assert not _events_named(first_log, "campaign_done")

        # Second service, same queue and checkpoints: recovers the
        # campaign, resumes the 6 completed experiments and serves only the
        # remaining 10.
        with EventLog(second_log) as events:
            with LocalService(
                workers=1, chunk_size=2, lease_timeout=10.0, events=events,
                **paths,
            ) as svc:
                results = collect(svc, cid)
        _assert_identical(results[KEY], sequential)

        assert _events_named(second_log, "service_recover")[0][
            "campaigns"
        ] == [cid]
        assert _events_named(second_log, "cell_start")[0]["resumed"] == 6
        rerun = sum(
            e["size"] for e in _events_named(second_log, "task_done")
            if not e["duplicate"]
        )
        assert rerun == N - 6
        # The full observability trail is present in both logs.
        for log in (first_log, second_log):
            for name in ("worker_join", "lease", "task_done"):
                assert _events_named(log, name)

    def test_resuming_finished_cell_serves_nothing(self, tmp_path):
        root = tmp_path / "ckpt"
        spec = _spec(n=6)
        with LocalService(
            workers=1, chunk_size=2, checkpoint_root=root
        ) as svc:
            cid = svc.client.submit(request_for(spec))
            before = collect(svc, cid)
        # No workers at all, not even a socket: the resumed cell must
        # complete from the checkpoint alone.
        coordinator = ServiceCoordinator()
        try:
            coordinator.add_cells(spec, root / f"campaign-{cid}")
            assert coordinator.cell_progress() == {KEY: (6, 6)}
            assert not coordinator._tasks
            after = coordinator.retire_cells([KEY])
        finally:
            coordinator.stop()
        assert (
            result_to_dict(after[KEY]) == result_to_dict(before[KEY])
        )


class TestWorkerBehaviour:
    def test_workers_share_the_load(self, tmp_path):
        # With more tasks than workers and per-worker throughput telemetry,
        # every worker that joined shows up in the event log, and the
        # workers' own tallies (theirs once the service sent them home) add
        # up to the campaign.
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalService(workers=2, chunk_size=2, events=events) as svc:
                serve(svc, request_for(_spec(keep_records=False)))
        joined = {e["worker"] for e in _events_named(log, "worker_join")}
        assert len(joined) == 2
        finished = {
            e["worker"] for e in _events_named(log, "task_done")
            if not e["duplicate"]
        }
        assert finished <= joined
        stats = svc.worker_stats()
        assert {s.name for s in stats} == joined
        assert sum(s.experiments for s in stats) == N
        assert sum(s.tasks for s in stats) == N // 2

    def test_worker_without_coordinator_raises(self):
        # Grab a port that is certainly closed.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        from repro.dist import Worker

        with pytest.raises(DistError, match="cannot reach coordinator"):
            Worker("127.0.0.1", port).run()

    def test_worker_survives_until_done_message(self, sequential):
        # A worker started *before* there is anything to do just waits
        # (held requests, wait replies) and exits cleanly on done.
        with LocalService(workers=1, chunk_size=16) as svc:
            results = serve(svc, request_for(_spec()))
        _assert_identical(results[KEY], sequential)
        (stats,) = svc.worker_stats()
        assert stats is not None
        assert stats.tasks == 1
        assert stats.experiments == N


class TestTriggerSchedule:
    """Leases are contiguous trigger ranges of one golden timeline; results
    stay bit-identical to the sequential campaign."""

    _assert_equivalent = staticmethod(_assert_identical)

    def test_leases_are_contiguous_trigger_ranges(self):
        from repro.campaign import trigger_order

        spec = _spec()
        expected = trigger_order(spec.make_tool(), spec.base_seed, range(N))
        coord = ServiceCoordinator(chunk_size=5)
        try:
            coord.add_cells(spec)
            with CoordinatorClient(*coord.start(), name="planner") as client:
                plan = client.request_task()
                assert plan["type"] == "plan"
                client.complete_plan(plan["task_id"], *run_lease(plan))
            sharded = [
                list(task.indices) for tid, task in sorted(coord._tasks.items())
                if task.kind == "slice"
            ]
        finally:
            coord.stop()
        # Every task is one contiguous slice of the trigger order, and
        # together they cover it exactly.
        assert [i for chunk in sharded for i in chunk] == list(expected)

    def test_trigger_smoke_two_workers_bit_identical(self, sequential, tmp_path):
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalService(workers=2, chunk_size=3, events=events) as svc:
                results = serve(svc, request_for(_spec()))
        self._assert_equivalent(results[KEY], sequential)
        finish = _events_named(log, "cell_finish")[0]
        assert finish["schedule"] == "trigger"
        assert set(finish["phases"]) == {
            "translate_s", "prefix_s", "fork_s", "tail_s", "classify_s"
        }
        assert finish["scheduler"]["experiments"] == N
        # Per-task scheduler stats are independent and sum to the totals.
        per_task = _events_named(log, "scheduler_stats")
        assert sum(e["experiments"] for e in per_task) == N

    def test_leases_replay_windows_not_the_golden_run(self, tmp_path):
        """32 leases of one cell cost one golden pass per worker plus each
        lease's own trigger window — not 32 golden runs."""
        from repro.campaign.schedule import (
            GoldenTimeline,
            resolve_trigger_order,
        )
        from repro.workloads import workload_sources

        n, leases = 64, 32
        spec = CampaignSpec(
            workload="EP", source=workload_sources()["EP"],
            tool_name="REFINE", n=n,
        )
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalService(
                workers=2, chunk_size=n // leases, events=events
            ) as svc:
                results = serve(svc, request_for(spec))
        assert sum(results[("EP", "REFINE")].counts.values()) == n

        # Where along the golden run each trigger forks, from a cursor of
        # our own: a lease's window is the span between its outermost forks.
        tool = make_tool("REFINE", spec.source, "EP")
        trigger_of = {
            index: trigger for trigger, index
            in resolve_trigger_order(tool, spec.base_seed, range(n))
        }
        pending = sorted(set(trigger_of.values()))
        fork_step: dict[int, int] = {}

        def fork_hook(cpu, pc, upto):
            while pending and pending[0] <= upto:
                fork_step[pending.pop(0)] = cpu.steps
            return pending[0] if pending else None

        tool.engine.run_cursor(
            tool._make_cpu(None), first_stop=pending[0], fork_hook=fork_hook
        )
        forks_of: dict[int, list[int]] = {}
        for e in _events_named(log, "experiment"):
            forks_of.setdefault(e["task"], []).append(
                fork_step[trigger_of[e["index"]]]
            )

        per_task = _events_named(log, "scheduler_stats")
        assert len(per_task) == leases
        steps = tool.profile.steps
        interval = GoldenTimeline.auto_interval(steps, n)
        full = [e for e in per_task if e["cursor_steps"] == steps]
        assert 1 <= len(full) <= 2  # each worker's first lease of the cell
        windows = 0
        for e in per_task:
            if e in full:
                continue
            forks = forks_of[e["task"]]
            window = max(forks) - min(forks)
            windows += window
            # The start is the latest sync state strictly before the block
            # of the first fork (one sitting exactly on it would re-fork
            # mid-block), so less than two intervals back.
            assert e["cursor_steps"] < window + 2 * interval, e
        assert windows <= steps  # disjoint trigger ranges
        assert sum(e["cursor_steps"] for e in per_task) <= (
            2 * steps + windows + leases * interval
        )

    def test_more_workers_than_cores_racing_for_single_leases(self, sequential):
        """Held requests and wake-ups under contention: five worker
        processes on fewer cores fight over one-experiment leases, so the
        coordinator's lock and its held ``request``s see every worker's
        round trips at once, each through a serving thread of its own."""
        with LocalService(workers=5, chunk_size=1) as svc:
            results = serve(svc, request_for(_spec()))
        self._assert_equivalent(results[KEY], sequential)
        assert not svc._worker_errors
        stats = svc.worker_stats()
        assert None not in stats
        assert sum(s.experiments for s in stats) == N
