"""Unit tests for the coordinator: sharding, backoff, validation, the raw
protocol conversation and admission (no experiments run here, but for one
eight-experiment cell that a restarted coordinator finishes)."""

import io
import json
import socket
import sqlite3
import time

import pytest

from repro.dist import (
    CampaignSpec,
    CoordinatorClient,
    PROTOCOL_VERSION,
    decode_indices,
    parse_address,
    recv_message,
    send_message,
    shard_indices,
)
from repro.campaign import EventLog, read_events, run_cell, trigger_order
from repro.campaign.io import result_to_dict
from repro.dist.protocol import encode_plan
from repro.campaign.classify import OUTCOME_ORDER
from repro.errors import DistError
from repro.resultsdb import ResultsDB
from repro.service import CampaignQueue, ServiceCoordinator, backoff_delay
from repro.stats.chisq import chi2_contingency

from tests.conftest import DEMO_SOURCE, plan_by_hand, request_for, run_lease


def _spec(**overrides):
    kwargs = dict(workload="demo", source=DEMO_SOURCE, tool_name="REFINE", n=8)
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestBackoff:
    def test_no_delay_before_first_retry(self):
        assert backoff_delay(0) == 0.0

    def test_first_retry_is_base(self):
        assert backoff_delay(1, base=0.5) == 0.5

    def test_doubles_per_attempt(self):
        assert backoff_delay(3, base=0.5) == 2.0

    def test_capped(self):
        assert backoff_delay(20, base=0.5, cap=30.0) == 30.0


class TestSharding:
    def test_even_split(self):
        assert shard_indices(list(range(6)), 2) == [(0, 1), (2, 3), (4, 5)]

    def test_ragged_tail(self):
        assert shard_indices(list(range(5)), 2) == [(0, 1), (2, 3), (4,)]

    def test_empty(self):
        assert shard_indices([], 3) == []

    def test_preserves_resume_gaps(self):
        # A resumed cell shards only what is left, holes and all.
        assert shard_indices([0, 3, 4, 9], 3) == [(0, 3, 4), (9,)]

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(DistError, match="chunk_size"):
            shard_indices([0, 1], 0)


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.1:9100") == ("10.0.0.1", 9100)

    @pytest.mark.parametrize("bad", ["nope", "host:port", "host:", ":", ""])
    def test_malformed_raises(self, bad):
        with pytest.raises(DistError):
            parse_address(bad)


def _worker(coordinator, name):
    """A raw connection that has said hello as worker ``name``."""
    sock = socket.create_connection(coordinator.address, timeout=5.0)
    send_message(sock, {"type": "hello", "name": name})
    assert recv_message(sock)["type"] == "welcome"
    return sock


@pytest.fixture
def serving():
    """Start a coordinator holding the demo cell (``add_cells``, the door
    the queue's pump uses); stopped when the test ends."""
    started = []

    def start(**kwargs):
        coord = ServiceCoordinator(**kwargs)
        started.append(coord)
        coord.add_cells(_spec())
        coord.start()
        return coord

    yield start
    for coord in started:
        coord.stop()


class TestCoordinatorValidation:
    def test_rejects_duplicate_cells(self):
        coord = ServiceCoordinator()
        try:
            with pytest.raises(DistError, match="duplicate"):
                coord.add_cells([_spec(), _spec()])
            coord.add_cells(_spec())
            with pytest.raises(DistError, match="already being served"):
                coord.add_cells(_spec())
        finally:
            coord.stop()

    def test_rejects_bad_lease_timeout(self):
        with pytest.raises(DistError, match="lease_timeout"):
            ServiceCoordinator(lease_timeout=0.0)

    def test_rejects_bad_max_attempts(self):
        with pytest.raises(DistError, match="max_attempts"):
            ServiceCoordinator(max_attempts=0)

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_rejects_bad_chunk_size(self, chunk_size):
        """Refused at construction: 0 is not "auto" (that is ``None``), and
        a negative size would bind a cell whose plan then cannot shard."""
        with pytest.raises(DistError, match="chunk_size"):
            ServiceCoordinator(chunk_size=chunk_size)

    def test_address_requires_start(self):
        coord = ServiceCoordinator()
        try:
            with pytest.raises(DistError, match="not started"):
                coord.address
        finally:
            coord.stop()


class TestProtocolConversation:
    """Drive a live coordinator with raw frames (no Worker helper)."""

    @pytest.fixture
    def coordinator(self, serving):
        return serving(chunk_size=4)

    @pytest.fixture
    def conn(self, coordinator):
        sock = socket.create_connection(coordinator.address, timeout=5.0)
        yield sock
        sock.close()

    def test_hello_gets_welcome(self, conn):
        send_message(conn, {"type": "hello", "name": None, "procs": 2})
        welcome = recv_message(conn)
        assert welcome["type"] == "welcome"
        assert welcome["version"] == PROTOCOL_VERSION
        assert welcome["worker"] == "worker-1"
        assert welcome["lease_timeout_s"] > 0
        assert 0 < welcome["heartbeat_s"] < welcome["lease_timeout_s"]

    def test_requested_name_is_honoured(self, conn):
        send_message(conn, {"type": "hello", "name": "crunchy", "procs": 1})
        assert recv_message(conn)["worker"] == "crunchy"

    def test_request_before_hello_is_an_error(self, conn):
        send_message(conn, {"type": "request"})
        reply = recv_message(conn)
        assert reply["type"] == "error"
        assert "hello" in reply["message"]

    def test_unknown_type_is_an_error(self, conn):
        send_message(conn, {"type": "hello", "name": None, "procs": 1})
        recv_message(conn)
        send_message(conn, {"type": "frobnicate"})
        reply = recv_message(conn)
        assert reply["type"] == "error"
        assert "frobnicate" in reply["message"]

    def test_lease_carries_spec_and_indices(self, conn):
        send_message(conn, {"type": "hello", "name": None, "procs": 1})
        recv_message(conn)
        # the cell's first task is its plan, over everything left of it
        plan = plan_by_hand(conn)
        assert plan["attempt"] == 0
        spec = CampaignSpec.from_dict(plan["spec"])
        assert spec.key == ("demo", "REFINE")
        assert decode_indices(plan["indices"], spec.n) == tuple(range(8))
        send_message(conn, {"type": "request"})
        lease = recv_message(conn)
        assert lease["type"] == "lease"
        assert lease["attempt"] == 0
        assert CampaignSpec.from_dict(lease["spec"]) == spec
        # the first slice is the head of the cell's trigger order
        order = trigger_order(spec.make_tool(), spec.base_seed, range(8))
        assert decode_indices(lease["indices"], spec.n) == tuple(order[:4])

    def test_result_for_unknown_task_is_an_error(self, conn):
        send_message(conn, {"type": "hello", "name": None, "procs": 1})
        recv_message(conn)
        send_message(conn, {"type": "result", "task_id": 999, "part": {}})
        assert recv_message(conn)["type"] == "error"


class TestIdleRequests:
    """An idle worker's ``request`` is held until work exists (bounded by
    ``IDLE_HOLD_S``), in the same frames a polling worker already speaks."""

    @pytest.fixture
    def coordinator(self, serving):
        # one slice, retried without backoff; planned, so an idle worker is
        # not handed a duplicate plan
        coordinator = serving(chunk_size=8, backoff_base=0.0)
        planner = _worker(coordinator, "planner")
        plan_by_hand(planner)
        planner.close()
        return coordinator

    def test_held_request_is_granted_the_moment_work_is_requeued(
        self, coordinator
    ):
        busy = _worker(coordinator, "busy")
        idle = _worker(coordinator, "idle")
        try:
            send_message(busy, {"type": "request"})
            lease = recv_message(busy)
            assert lease["type"] == "lease"
            send_message(idle, {"type": "request"})  # nothing left: held
            time.sleep(0.1)
            asked = time.monotonic()
            send_message(busy, {
                "type": "task_failed", "task_id": lease["task_id"],
                "error": "boom",
            })
            assert recv_message(busy)["type"] == "ok"
            again = recv_message(idle)
            assert again["type"] == "lease"
            assert again["task_id"] == lease["task_id"]
            assert again["attempt"] == 1
            assert time.monotonic() - asked < 0.5
        finally:
            busy.close()
            idle.close()

    def test_held_request_expires_with_wait(self, coordinator, monkeypatch):
        from repro.service import coordinator as module

        monkeypatch.setattr(module, "IDLE_HOLD_S", 0.2)
        busy = _worker(coordinator, "busy")
        idle = _worker(coordinator, "idle")
        try:
            send_message(busy, {"type": "request"})
            assert recv_message(busy)["type"] == "lease"
            asked = time.monotonic()
            send_message(idle, {"type": "request"})
            reply = recv_message(idle)
            held = time.monotonic() - asked
            assert reply["type"] == "wait"
            assert reply["delay_s"] > 0
            assert 0.15 < held < 1.0
        finally:
            busy.close()
            idle.close()

    def test_held_request_is_released_by_stop(self, coordinator):
        busy = _worker(coordinator, "busy")
        idle = _worker(coordinator, "idle")
        try:
            send_message(busy, {"type": "request"})
            assert recv_message(busy)["type"] == "lease"
            send_message(idle, {"type": "request"})
            time.sleep(0.1)
            asked = time.monotonic()
            coordinator.stop()
            # an aborted campaign cuts its workers off, it does not send
            # them home: EOF or a torn connection, never ``done``
            try:
                assert recv_message(idle) is None
            except DistError:
                pass
            assert time.monotonic() - asked < 0.5
        finally:
            busy.close()
            idle.close()


class TestPlans:
    """A cell's first task is its plan; the coordinator builds nothing."""

    @staticmethod
    def _ask(sock) -> dict:
        send_message(sock, {"type": "request"})
        return recv_message(sock)

    @staticmethod
    def _answer(sock, plan) -> dict:
        send_message(sock, {
            "type": "plan_result", "task_id": plan["task_id"],
            **encode_plan(*run_lease(plan)),
        })
        return recv_message(sock)

    def test_a_waiting_cell_is_planned_by_every_idle_worker_once(
        self, monkeypatch
    ):
        from repro.service import coordinator as module

        monkeypatch.setattr(module, "IDLE_HOLD_S", 0.2)
        coord = ServiceCoordinator(chunk_size=4)
        coord.add_cells(_spec())
        coord.start()
        first = _worker(coord, "first")
        second = _worker(coord, "second")
        try:
            plan = self._ask(first)
            duplicate = self._ask(second)  # nothing else to do: plan it too
            assert plan["type"] == duplicate["type"] == "plan"
            assert plan["task_id"] != duplicate["task_id"]
            assert plan["indices"] == duplicate["indices"]
            # ... but never twice to one worker
            assert self._ask(first)["type"] == "wait"
            # the first plan in cuts the slices, a later one is a duplicate
            assert self._answer(second, duplicate) == {
                "type": "ok", "duplicate": False,
            }
            assert self._answer(first, plan) == {
                "type": "ok", "duplicate": True,
            }
            leases = [self._ask(first), self._ask(second)]
            assert [lease["type"] for lease in leases] == ["lease", "lease"]
        finally:
            first.close()
            second.close()
            coord.stop()

    def test_lease_order(self):
        """A slice of a cell the worker has built, then a plan nobody is
        working on, then any slice, then a duplicate plan."""
        a, b = _spec(), _spec(workload="other")
        coord = ServiceCoordinator(chunk_size=4)
        coord.add_cells([a, b])
        coord.start()
        socks = [_worker(coord, f"w{i}") for i in range(3)]
        w1, w2, w3 = socks

        def cell(reply):
            return reply["type"], CampaignSpec.from_dict(reply["spec"]).key

        try:
            plan = self._ask(w1)
            assert cell(plan) == ("plan", a.key)
            self._answer(w1, plan)
            assert cell(self._ask(w1)) == ("lease", a.key)  # its own cell
            assert cell(self._ask(w2)) == ("plan", b.key)   # nobody's plan
            assert cell(self._ask(w3)) == ("lease", a.key)  # any slice
            assert cell(self._ask(w3)) == ("plan", b.key)   # duplicate plan
        finally:
            for sock in socks:
                sock.close()
            coord.stop()

    def test_the_coordinator_holds_no_build(self):
        coord = ServiceCoordinator(chunk_size=4)
        try:
            coord.add_cells(_spec(source="int main() { return 1; }"))
            (task,) = coord._tasks.values()
            assert (task.kind, task.indices) == ("plan", tuple(range(8)))
        finally:
            coord.stop()

    def test_a_plan_out_of_attempts_fails_its_cell(self):
        stream = io.StringIO()
        coord = ServiceCoordinator(
            max_attempts=1, backoff_base=0.0, events=EventLog(stream=stream)
        )
        coord.add_cells(_spec())
        coord.start()
        sock = _worker(coord, "flaky")
        try:
            for attempt in range(2):
                plan = self._ask(sock)
                assert (plan["type"], plan["attempt"]) == ("plan", attempt)
                send_message(sock, {
                    "type": "task_failed", "task_id": plan["task_id"],
                    "error": "MemoryError: boom",
                })
                assert recv_message(sock)["type"] == "ok"
            assert coord.cell_progress() == {}
        finally:
            sock.close()
            coord.stop()
        (error,) = [
            json.loads(line)["error"] for line in stream.getvalue().splitlines()
            if json.loads(line)["event"] == "service_error"
        ]
        assert error.startswith(f"plan {plan['task_id']} (demo/REFINE, 8 ")
        assert "failed 2 times (last: failed: MemoryError: boom)" in error


class TestAdmissionRace:
    """A drain that lands while the pump admits a campaign — after the
    pump's ``_draining`` check, before ``add_cells`` — leaves the campaign
    queued, not failed: nothing was installed, so the next coordinator on
    the same queue admits it and finishes it as if nothing had happened."""

    def test_a_drain_during_admission_requeues_the_campaign(self, tmp_path):
        drains = []
        spec = _spec()
        queue = tmp_path / "queue.sqlite"
        with EventLog(tmp_path / "events.jsonl") as log:
            coord = ServiceCoordinator(
                queue_path=queue, events=log, poll_interval=0.05
            )
            add_cells = coord.add_cells

            def drain_first(*args, **kwargs):
                # the pump has passed its ``_draining`` check by now
                if not drains:
                    drains.append(coord)
                    coord.request_drain(30.0)
                return add_cells(*args, **kwargs)

            coord.add_cells = drain_first
            cid = coord.queue.submit(request_for(spec))
            coord.start()
            coord.serve_until_stopped(poll=0.05)
            coord.stop()
        assert drains == [coord]
        events = [e["event"] for e in read_events(tmp_path / "events.jsonl")]
        assert "campaign_admitted" in events
        assert "campaign_failed" not in events
        with CampaignQueue(queue) as rows:
            assert rows.info(cid)["state"] == "queued"

        coord = ServiceCoordinator(queue_path=queue, poll_interval=0.05)
        fetched = _serve_by_hand(coord, cid)
        assert fetched["results"]["demo/REFINE"] == result_to_dict(run_cell(spec))


def _serve_by_hand(coord, cid):
    """Start ``coord``, run campaign ``cid`` to ``done`` from one
    hand-driven worker, stop it; returns the campaign's ``fetch`` reply."""
    try:
        coord.start()
        with CoordinatorClient(*coord.address, name="hand") as client:
            while coord.queue.info(cid)["state"] != "done":
                reply = client.request_task()
                if reply["type"] == "wait":
                    time.sleep(0.05)
                elif reply["type"] == "plan":
                    client.complete_plan(reply["task_id"], *run_lease(reply))
                else:
                    client.complete(reply["task_id"], run_lease(reply))
        return coord._control_fetch({"campaign": cid})
    finally:
        coord.stop()


#: A version-1 queue file's schema, as services wrote it before the
#: ``lifecycle`` column went.
QUEUE_V1 = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL) WITHOUT ROWID;
INSERT INTO meta VALUES ('queue_version', '1');
CREATE TABLE queue (
    id               INTEGER PRIMARY KEY AUTOINCREMENT,
    tenant           TEXT NOT NULL DEFAULT 'default',
    priority         INTEGER NOT NULL DEFAULT 0,
    state            TEXT NOT NULL DEFAULT 'queued',
    lifecycle        TEXT NOT NULL DEFAULT 'standard',
    request          TEXT NOT NULL,
    submitted_at     REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    error            TEXT,
    validation       TEXT,
    detail           TEXT
);
CREATE INDEX ix_queue_state ON queue(state, priority DESC, id ASC);
CREATE INDEX ix_queue_tenant ON queue(tenant, state);
"""


class TestOneCampaignRule:
    """Version-1 queue files, written by older services, still open (the
    service upgrades them in place), and every row in them — a
    soak-mining row included — runs under the one rule: validation on
    (there is a database), alpha 0.05, and a cell with no baseline pins
    one.  The request's old validation knobs are ignored, and nothing is
    filed anywhere."""

    def test_an_old_soak_row_runs_to_the_standard_verdict(self, tmp_path):
        spec = _spec()
        counts = [run_cell(spec).frequency(o) for o in OUTCOME_ORDER]
        # A pinned REFINE baseline this run differs from at 0.05, not 0.001.
        baseline = next(
            [a, b, 100 - a - b]
            for a in range(0, 101, 5) for b in range(0, 101 - a, 5)
            if 0.002 < chi2_contingency([[a, b, 100 - a - b], counts]).p_value
            < 0.04
        )
        db_path = tmp_path / "results.sqlite"
        with ResultsDB(db_path) as db:
            db.pin_baseline(
                "demo", "REFINE", fault_model=spec.fault_model, n=100,
                counts=dict(zip([o.value for o in OUTCOME_ORDER], baseline)),
            )
        artifacts = tmp_path / "artifacts"
        request = {
            **request_for(spec, tools=["REFINE", "PINFI"]),
            "alpha": 0.001, "pin_missing": False, "validate": False,
            "artifacts": str(artifacts),
        }
        queue = tmp_path / "queue.sqlite"
        with sqlite3.connect(queue) as conn:
            conn.executescript(QUEUE_V1)
            conn.execute(
                "INSERT INTO queue(tenant, priority, state, lifecycle, request,"
                " submitted_at) VALUES ('soak', -10, 'running', 'soak', ?, 0)",
                (json.dumps(request),),
            )
        conn.close()

        coord = ServiceCoordinator(
            queue_path=queue, db_path=db_path, poll_interval=0.05
        )
        fetched = _serve_by_hand(coord, 1)
        verdict = fetched["validation"]
        assert verdict["overall"] == "failed"
        assert verdict["cells"]["demo/REFINE"]["verdict"] == "failed"
        assert verdict["cells"]["demo/PINFI"]["verdict"] == "pinned"
        with CampaignQueue(queue) as rows:
            info = rows.info(1)
            assert rows.submit(request) == 2
        assert (info["state"], info["validation"]) == ("done", "failed")
        with sqlite3.connect(queue) as conn:
            assert conn.execute("SELECT value FROM meta").fetchall() == [("2",)]
            columns = [c[1] for c in conn.execute("PRAGMA table_info(queue)")]
        conn.close()
        assert "lifecycle" not in columns
        with ResultsDB(db_path) as db:
            pinned = db.get_baseline("demo", "PINFI", spec.fault_model)
        assert pinned["source"] == "service:standard"
        assert not artifacts.exists()
