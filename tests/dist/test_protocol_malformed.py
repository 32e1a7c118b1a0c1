"""Protocol hardening: a live coordinator must survive hostile peers.

Every test speaks raw sockets at a real listening coordinator — torn
frames, oversize headers, garbage JSON, structurally-valid messages with
nonsense fields — and asserts two things: the offender gets (at most) a
bounded error reply, and the server keeps serving well-behaved clients
afterwards.  Framing-layer unit tests (socketpair, no server) live in
``test_protocol.py``; this file is about the *server's* resilience.
"""

import json
import socket
import struct
import time

import pytest

from repro.campaign import EventLog, read_events
from repro.dist import CampaignSpec
from repro.dist.protocol import (
    MAX_MESSAGE_BYTES,
    encode_plan,
    recv_message,
    send_message,
)
from repro.errors import DistError
from repro.service import LocalService, ServiceCoordinator

from tests.conftest import (
    DEMO_SOURCE,
    collect,
    plan_by_hand,
    request_for,
    run_lease,
)

SPEC = CampaignSpec(
    workload="demo", source=DEMO_SOURCE, tool_name="REFINE", n=4
)


@pytest.fixture
def coordinator():
    """The one coordinator, with a cell to lease from."""
    coord = ServiceCoordinator(lease_timeout=30.0)
    coord.add_cells(SPEC)
    host, port = coord.start()
    yield host, port
    coord.stop()


def _connect(addr):
    sock = socket.create_connection(addr, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def _call(addr, message):
    """One framed request/reply round trip on a fresh connection."""
    with _connect(addr) as sock:
        send_message(sock, message)
        return recv_message(sock)


def _assert_alive(addr):
    """A well-behaved hello still gets a proper welcome."""
    reply = _call(addr, {"type": "hello", "procs": 1})
    assert reply["type"] == "welcome"


class TestMalformedFrames:
    def test_oversize_header_drops_connection_only(self, coordinator):
        with _connect(coordinator) as sock:
            sock.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
            with pytest.raises((DistError, OSError)):
                if recv_message(sock) is None:
                    raise DistError("closed")
        _assert_alive(coordinator)

    def test_truncated_payload(self, coordinator):
        payload = json.dumps({"type": "hello"}).encode()
        with _connect(coordinator) as sock:
            sock.sendall(struct.pack(">I", len(payload)) + payload[:4])
        _assert_alive(coordinator)

    def test_garbage_bytes(self, coordinator):
        with _connect(coordinator) as sock:
            sock.sendall(b"\xde\xad\xbe\xef" * 64)
        _assert_alive(coordinator)

    def test_non_json_payload(self, coordinator):
        body = b"\xff\xfenot json at all"
        with _connect(coordinator) as sock:
            sock.sendall(struct.pack(">I", len(body)) + body)
        _assert_alive(coordinator)

    def test_abrupt_disconnect_mid_session(self, coordinator):
        with _connect(coordinator) as sock:
            send_message(sock, {"type": "hello", "procs": 1})
            recv_message(sock)
            # Lease a task, then vanish without a word.
            send_message(sock, {"type": "request"})
            recv_message(sock)
        _assert_alive(coordinator)


class TestMalformedMessages:
    def test_unknown_type_gets_bounded_error(self, coordinator):
        reply = _call(coordinator, {"type": "hello", "procs": 1})
        assert reply["type"] == "welcome"
        with _connect(coordinator) as sock:
            send_message(sock, {"type": "hello", "procs": 1})
            recv_message(sock)
            send_message(sock, {"type": "frobnicate"})
            reply = recv_message(sock)
        assert reply["type"] == "error"
        assert "frobnicate" in reply["message"]
        _assert_alive(coordinator)

    def test_data_plane_before_hello_rejected(self, coordinator):
        reply = _call(coordinator, {"type": "request"})
        assert reply["type"] == "error"
        assert "hello" in reply["message"]
        _assert_alive(coordinator)

    def test_garbage_hello_fields(self, coordinator):
        reply = _call(coordinator, {"type": "hello", "name": ["x"], "procs": 1})
        assert reply["type"] == "error"
        assert "malformed" in reply["message"]
        # an older worker's ``procs`` field is not read, whatever it holds
        reply = _call(coordinator, {"type": "hello", "procs": {}})
        assert reply["type"] == "welcome"
        _assert_alive(coordinator)

    def test_result_for_unknown_task(self, coordinator):
        with _connect(coordinator) as sock:
            send_message(sock, {"type": "hello", "procs": 1})
            recv_message(sock)
            send_message(
                sock, {"type": "result", "task_id": 999, "part": {}}
            )
            reply = recv_message(sock)
        assert reply["type"] == "error"
        assert "unknown task" in reply["message"]
        _assert_alive(coordinator)

    def test_result_with_garbage_part(self, coordinator):
        with _connect(coordinator) as sock:
            send_message(sock, {"type": "hello", "procs": 1})
            recv_message(sock)
            plan_by_hand(sock)
            send_message(sock, {"type": "request"})
            lease = recv_message(sock)
            assert lease["type"] == "lease"
            send_message(
                sock,
                {"type": "result", "task_id": lease["task_id"],
                 "part": {"n": "not-a-result"}},
            )
            reply = recv_message(sock)
        assert reply["type"] == "error"
        _assert_alive(coordinator)

    def test_missing_required_fields(self, coordinator):
        with _connect(coordinator) as sock:
            send_message(sock, {"type": "hello", "procs": 1})
            recv_message(sock)
            send_message(sock, {"type": "result"})  # no task_id, no part
            reply = recv_message(sock)
        assert reply["type"] == "error"
        _assert_alive(coordinator)


class TestMalformedPartRequeue:
    def test_malformed_part_requeues_its_task_at_once(self, tmp_path):
        """The error reply drops the sender's connection, so its task must
        be handed on then — not when the 30 s lease runs out."""
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalService(
                workers=0, chunk_size=4, lease_timeout=30.0,
                backoff_base=0.01, events=events,
            ) as svc:
                cid = svc.client.submit(request_for(SPEC))
                with _connect((svc.host, svc.port)) as sock:
                    send_message(
                        sock, {"type": "hello", "name": "sloppy", "procs": 1}
                    )
                    recv_message(sock)
                    lease = {"type": "wait"}  # until the pump has admitted
                    while lease["type"] == "wait":
                        send_message(sock, {"type": "request"})
                        lease = recv_message(sock)
                    assert lease["type"] == "plan"
                    send_message(sock, {
                        "type": "plan_result", "task_id": lease["task_id"],
                        **encode_plan(*run_lease(lease)),
                    })
                    assert recv_message(sock)["duplicate"] is False
                    send_message(sock, {"type": "request"})
                    lease = recv_message(sock)
                    assert lease["type"] == "lease"
                    send_message(sock, {
                        "type": "result", "task_id": lease["task_id"],
                        "part": {"n": "not-a-result"},
                    })
                    reply = recv_message(sock)
                    assert reply["type"] == "error"
                    assert "malformed part" in reply["message"]
                started = time.monotonic()
                svc.start_worker(name="healthy")
                results = collect(svc, cid, timeout=20.0)
                assert time.monotonic() - started < 10.0
        assert sum(results[("demo", "REFINE")].counts.values()) == 4
        requeues = [
            (e["task"], e["worker"], e["reason"], e["attempt"])
            for e in read_events(log) if e["event"] == "task_requeue"
        ]
        # once, by the result handler; the disconnect finds nothing leased
        assert requeues == [(lease["task_id"], "sloppy", "failed", 1)]


class TestMalformedPlanRequeue:
    """A plan is input from the network like a part: one that does not
    fit its task is refused with a bounded error, handed on at once, and
    binds nothing."""

    @pytest.mark.parametrize("spoil", [
        pytest.param(lambda p: p["order"].pop(), id="order-too-short"),
        pytest.param(
            lambda p: p["order"].__setitem__(0, p["order"][1]),
            id="order-repeats-an-index",
        ),
        pytest.param(
            lambda p: p["order"].__setitem__(0, float(p["order"][0])),
            id="order-entry-not-an-integer",
        ),
        pytest.param(
            lambda p: p.__setitem__("golden_output", "x" * 10_000),
            id="golden-output-not-a-list",
        ),
    ])
    def test_malformed_plan_requeues_its_task_at_once(self, tmp_path, spoil):
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalService(
                workers=0, chunk_size=2, lease_timeout=30.0,
                backoff_base=0.01, events=events,
            ) as svc:
                cid = svc.client.submit(request_for(SPEC))
                with _connect((svc.host, svc.port)) as sock:
                    send_message(sock, {"type": "hello", "name": "sloppy"})
                    recv_message(sock)
                    plan = {"type": "wait"}  # until the pump has admitted
                    while plan["type"] == "wait":
                        send_message(sock, {"type": "request"})
                        plan = recv_message(sock)
                    assert plan["type"] == "plan"
                    fields = encode_plan(*run_lease(plan))
                    spoil(fields)
                    send_message(sock, {
                        "type": "plan_result", "task_id": plan["task_id"],
                        **fields,
                    })
                    reply = recv_message(sock)
                    assert reply["type"] == "error"
                    assert reply["message"].startswith("malformed plan")
                    assert len(reply["message"]) <= 500
                    # the books are untouched: nothing bound, nothing cut
                    coordinator = svc.coordinator
                    cell = coordinator._cells[SPEC.key]
                    assert cell.result is None and not cell.completed
                    assert {t.kind for t in coordinator._tasks.values()} == {
                        "plan"
                    }
                started = time.monotonic()
                svc.start_worker(name="healthy")
                results = collect(svc, cid, timeout=20.0)
                assert time.monotonic() - started < 10.0
        assert sum(results[SPEC.key].counts.values()) == 4
        requeues = [
            (e["task"], e["worker"], e["reason"], e["attempt"])
            for e in read_events(log) if e["event"] == "task_requeue"
        ]
        assert requeues == [(plan["task_id"], "sloppy", "failed", 1)]


class TestMalformedControl:
    """The service's control verbs reject garbage without dying."""

    def test_submit_without_request(self, coordinator):
        reply = _call(coordinator, {"type": "submit"})
        assert reply["type"] == "error"
        assert "request" in reply["message"]
        _assert_alive(coordinator)

    def test_submit_non_object_request(self, coordinator):
        reply = _call(coordinator, {"type": "submit", "request": [1, 2]})
        assert reply["type"] == "error"

    def test_submit_structurally_invalid_request(self, coordinator):
        reply = _call(
            coordinator,
            {"type": "submit", "request": {"workloads": [], "tools": ["R"],
                                           "n": 4}},
        )
        assert reply["type"] == "error"
        assert "workloads" in reply["message"]

    def test_submit_unknown_workload(self, coordinator):
        reply = _call(
            coordinator,
            {"type": "submit",
             "request": {"workloads": ["no-such-prog"], "tools": ["REFINE"],
                         "n": 2}},
        )
        assert reply["type"] == "error"
        assert "no-such-prog" in reply["message"]

    def test_submit_unknown_lifecycle(self, coordinator):
        reply = _call(
            coordinator,
            {"type": "submit", "lifecycle": "bogus",
             "request": {"workloads": ["demo"], "tools": ["REFINE"], "n": 2,
                         "sources": {"demo": "int main() { return 0; }"}}},
        )
        assert reply["type"] == "error"
        assert "bogus" in reply["message"]

    def test_status_of_unknown_campaign(self, coordinator):
        reply = _call(coordinator, {"type": "status", "campaign": 123})
        assert reply["type"] == "error"
        assert "123" in reply["message"]

    def test_status_with_garbage_id(self, coordinator):
        reply = _call(coordinator, {"type": "status", "campaign": "xyzzy"})
        assert reply["type"] == "error"
        assert "malformed" in reply["message"]

    def test_cancel_missing_id(self, coordinator):
        reply = _call(coordinator, {"type": "cancel"})
        assert reply["type"] == "error"
        assert "malformed" in reply["message"]

    def test_fetch_unknown_campaign(self, coordinator):
        reply = _call(coordinator, {"type": "fetch", "campaign": 9})
        assert reply["type"] == "error"
        assert "no cached result" in reply["message"]

    def test_list_with_garbage_tenant(self, coordinator):
        reply = _call(coordinator, {"type": "list", "tenant": 17})
        assert reply["type"] == "error"
        _assert_alive(coordinator)

    def test_server_survives_a_barrage(self, coordinator):
        for message in (
            {"type": "frobnicate"},
            {"type": "submit", "request": 3},
            {"type": "cancel", "campaign": []},
            {"type": "drain", "grace_s": "soon"},
        ):
            reply = _call(coordinator, message)
            assert reply["type"] == "error"
        _assert_alive(coordinator)
        # And the control plane still works end to end.
        reply = _call(coordinator, {"type": "list"})
        assert reply["type"] == "ok"
