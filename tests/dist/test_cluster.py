"""End-to-end distributed campaign tests on an in-process cluster.

Everything here runs real TCP, real leases and real experiments; the
acceptance bar throughout is *bit-identical to sequential* — same outcome
counts, same per-experiment fault records, same serialized form —
whatever the worker count or failure history.

The CI "distributed smoke test" step runs this file with ``-k smoke``.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.campaign import make_tool, read_events, run_campaign
from repro.campaign.io import result_to_dict
from repro.campaign.parallel import run_slice
from repro.campaign.runner import matrix_checkpoint_path
from repro.dist import (
    CampaignSpec,
    Coordinator,
    CoordinatorClient,
    LocalCluster,
    decode_indices,
)
from repro.campaign.events import EventLog
from repro.errors import CampaignError, DistError

from tests.conftest import DEMO_SOURCE

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
        with LocalCluster(_spec(), workers=2, chunk_size=3) as cluster:
            results = cluster.results(timeout=120)
            stats = cluster.worker_stats()
        _assert_identical(results[KEY], sequential)
        assert not cluster._worker_errors
        done = [s for s in stats if s is not None]
        assert sum(s.experiments for s in done) >= N

    def test_matrix_of_cells_served_together(self):
        specs = [
            _spec(n=8, keep_records=False),
            _spec(n=8, keep_records=False, tool_name="PINFI"),
        ]
        with LocalCluster(specs, workers=2, chunk_size=2) as cluster:
            results = cluster.results(timeout=120)
        assert set(results) == {("demo", "REFINE"), ("demo", "PINFI")}
        for spec in specs:
            tool = make_tool(spec.tool_name, DEMO_SOURCE, "demo")
            _assert_identical(results[spec.key], run_campaign(tool, n=8))

    def test_worker_process_pool_bit_identical(self, sequential):
        # -j 2: each leased task fans out over a local process pool.
        with LocalCluster(
            _spec(), workers=1, worker_procs=2, chunk_size=8
        ) as cluster:
            results = cluster.results(timeout=120)
        _assert_identical(results[KEY], sequential)


class TestFaultTolerance:
    def test_dead_worker_disconnect_requeue(self, sequential, tmp_path):
        # A worker that vanishes mid-lease (dropped connection) must not
        # lose its task or corrupt the result.
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalCluster(
                _spec(), workers=0, chunk_size=2, lease_timeout=10.0,
                backoff_base=0.01, events=events,
            ) as cluster:
                cluster.start_worker(die_after=1, name="doomed")
                cluster.start_worker(name="survivor")
                results = cluster.results(timeout=120)
        _assert_identical(results[KEY], sequential)
        requeues = _events_named(log, "task_requeue")
        assert any(e["reason"] == "disconnect" for e in requeues)
        assert any(
            e["worker"] == "doomed" for e in _events_named(log, "worker_leave")
        )

    def test_hung_worker_requeued_after_heartbeat_timeout(
        self, sequential, tmp_path
    ):
        # The acceptance scenario: a worker leases a task and goes silent
        # without closing its connection.  Only the heartbeat timeout can
        # recover the task.
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalCluster(
                _spec(), workers=0, chunk_size=4, lease_timeout=0.75,
                backoff_base=0.01, events=events,
            ) as cluster:
                zombie = CoordinatorClient(
                    *cluster.address, name="zombie", procs=1
                )
                zombie.connect()
                lease = zombie.request_task()
                assert lease["type"] == "lease"
                # ... and now the zombie never heartbeats again.
                cluster.start_worker(name="healthy")
                results = cluster.results(timeout=120)
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
        # slow worker can move on) but not double-counted.
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalCluster(
                _spec(), workers=0, chunk_size=4, lease_timeout=0.5,
                backoff_base=0.01, events=events,
            ) as cluster:
                slow = CoordinatorClient(*cluster.address, name="slow")
                slow.connect()
                lease = slow.request_task()
                leased = CampaignSpec.from_dict(lease["spec"])
                part = run_slice(
                    leased, decode_indices(lease["indices"], leased.n)
                )
                # Lease expires, someone else redoes the task...
                cluster.start_worker(name="healthy")
                results = cluster.results(timeout=120)
                # ...and only then does the original submission land.
                ack = slow.complete(lease["task_id"], part)
                slow.close()
        assert ack == {"type": "ok", "duplicate": True}
        _assert_identical(results[KEY], sequential)
        dupes = [
            e for e in _events_named(log, "task_done") if e["duplicate"]
        ]
        assert any(e["task"] == lease["task_id"] for e in dupes)

    def test_failed_task_is_retried_elsewhere(self, sequential, tmp_path):
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalCluster(
                _spec(), workers=0, chunk_size=4, lease_timeout=10.0,
                backoff_base=0.01, events=events,
            ) as cluster:
                flaky = CoordinatorClient(*cluster.address, name="flaky")
                flaky.connect()
                lease = flaky.request_task()
                flaky.fail(lease["task_id"], "ValueError: boom")
                flaky.close()
                cluster.start_worker(name="healthy")
                results = cluster.results(timeout=120)
        _assert_identical(results[KEY], sequential)
        requeues = _events_named(log, "task_requeue")
        assert any(
            e["reason"] == "failed" and e["task"] == lease["task_id"]
            and e["attempt"] == 1
            for e in requeues
        )

    def test_poison_task_fails_campaign_after_max_attempts(self):
        coordinator = Coordinator(
            _spec(n=4), port=0, chunk_size=4, max_attempts=1,
            backoff_base=0.0, lease_timeout=10.0,
        )
        coordinator.start()
        try:
            client = CoordinatorClient(*coordinator.address, name="cursed")
            client.connect()
            for _ in range(2):  # max_attempts=1: the second failure is fatal
                lease = client.request_task()
                assert lease["type"] == "lease"
                client.fail(lease["task_id"], "RuntimeError: poison")
            with pytest.raises(CampaignError, match="failed 2 times"):
                coordinator.wait(timeout=5.0)
            client.close()
        finally:
            coordinator.stop()


class TestCheckpointResume:
    def test_restart_resumes_without_rerunning(self, sequential, tmp_path):
        ckpt = tmp_path / "ckpt"
        first_log = tmp_path / "first.jsonl"
        second_log = tmp_path / "second.jsonl"

        # First coordinator: one worker completes exactly 3 tasks (6
        # experiments) and dies; then the coordinator itself is stopped.
        with EventLog(first_log) as events:
            cluster = LocalCluster(
                _spec(), workers=0, chunk_size=2, lease_timeout=10.0,
                checkpoint_dir=ckpt, checkpoint_every=2, events=events,
            )
            cluster.start_worker(die_after=3)
            cluster._threads[0].join(timeout=120)
            cluster.stop()

        assert matrix_checkpoint_path(ckpt, "demo", "REFINE").exists()
        finished = [
            e for e in _events_named(first_log, "task_done")
            if not e["duplicate"]
        ]
        assert len(finished) == 3
        assert not _events_named(first_log, "dist_finish")

        # Second coordinator, same checkpoint dir: resumes the 6 completed
        # experiments and serves only the remaining 10.
        with EventLog(second_log) as events:
            with LocalCluster(
                _spec(), workers=1, chunk_size=2, lease_timeout=10.0,
                checkpoint_dir=ckpt, events=events,
            ) as cluster:
                results = cluster.results(timeout=120)
        _assert_identical(results[KEY], sequential)

        assert _events_named(second_log, "dist_start")[0]["resumed"] == 6
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
        ckpt = tmp_path / "ckpt"
        spec = _spec(n=6)
        with LocalCluster(
            spec, workers=1, chunk_size=2, checkpoint_dir=ckpt
        ) as cluster:
            before = cluster.results(timeout=120)
        # No workers at all: the resumed cell must complete from the
        # checkpoint alone.
        coordinator = Coordinator(spec, port=0, checkpoint_dir=ckpt)
        coordinator.start()
        try:
            after = coordinator.wait(timeout=5.0)
        finally:
            coordinator.stop()
        assert (
            result_to_dict(after[KEY]) == result_to_dict(before[KEY])
        )


class TestWorkerBehaviour:
    def test_workers_share_the_load(self, tmp_path):
        # With more tasks than workers and per-worker throughput telemetry,
        # every worker that joined shows up in the event log.
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalCluster(
                _spec(keep_records=False), workers=2, chunk_size=2,
                events=events,
            ) as cluster:
                cluster.results(timeout=120)
        joined = {e["worker"] for e in _events_named(log, "worker_join")}
        assert len(joined) == 2
        finished = {
            e["worker"] for e in _events_named(log, "task_done")
            if not e["duplicate"]
        }
        assert finished <= joined

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
        # A worker started *before* there is anything to do just polls
        # (wait replies) and exits cleanly on done.
        with LocalCluster(_spec(), workers=1, chunk_size=16) as cluster:
            results = cluster.results(timeout=120)
            stats = cluster.worker_stats()
        _assert_identical(results[KEY], sequential)
        assert stats[0] is not None
        assert stats[0].tasks == 1
        assert stats[0].experiments == N


class TestTriggerSchedule:
    """Leases are contiguous trigger ranges of one golden timeline; results
    stay bit-identical to the sequential campaign."""

    _assert_equivalent = staticmethod(_assert_identical)

    def test_leases_are_contiguous_trigger_ranges(self):
        from repro.campaign import CampaignCell

        spec = _spec()
        (expected,) = CampaignCell(spec).shards(N)
        coord = Coordinator(spec, chunk_size=5)
        sharded = [
            list(coord._tasks[tid].indices) for tid in sorted(coord._tasks)
        ]
        # Every task is one contiguous slice of the trigger order, and
        # together they cover it exactly.
        assert [i for chunk in sharded for i in chunk] == list(expected)

    def test_trigger_smoke_two_workers_bit_identical(self, sequential, tmp_path):
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalCluster(
                _spec(), workers=2, chunk_size=3,
                events=events,
            ) as cluster:
                results = cluster.results(timeout=120)
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

    def test_trigger_survives_dead_worker(self, sequential, tmp_path):
        # Requeue/dedup machinery is schedule-agnostic: losing a worker
        # mid-lease changes nothing about the final result.
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalCluster(
                _spec(), workers=0, chunk_size=2,
                lease_timeout=10.0, backoff_base=0.01, events=events,
            ) as cluster:
                cluster.start_worker(die_after=1, name="doomed")
                cluster.start_worker(name="survivor")
                results = cluster.results(timeout=120)
        self._assert_equivalent(results[KEY], sequential)
        assert any(
            e["reason"] == "disconnect"
            for e in _events_named(log, "task_requeue")
        )

    def test_trigger_worker_process_pool(self, sequential):
        with LocalCluster(
            _spec(), workers=1, worker_procs=2,
            chunk_size=8,
        ) as cluster:
            results = cluster.results(timeout=120)
        self._assert_equivalent(results[KEY], sequential)

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
            with LocalCluster(
                spec, workers=2, chunk_size=n // leases, events=events
            ) as cluster:
                results = cluster.results(timeout=120)
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
        """Held requests, wake-ups and per-worker contexts under contention:
        five workers fight over one-experiment leases with the interpreter
        switching threads as often as it can."""
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with LocalCluster(
                _spec(), workers=5, chunk_size=1
            ) as cluster:
                results = cluster.results(timeout=120)
                stats = cluster.worker_stats()
        finally:
            sys.setswitchinterval(interval)
        self._assert_equivalent(results[KEY], sequential)
        assert not cluster._worker_errors
        assert sum(s.experiments for s in stats if s is not None) >= N
