"""Campaign queue semantics: priority, quotas, cancellation, recovery.

Pure SQLite — no sockets, no experiments — so the whole file runs in
tier-1.  The live-service counterparts (admission order on a real
coordinator, cancel-while-running, kill -9 recovery) are in
``test_service.py`` under ``-m slow``.
"""

import pytest

from repro.errors import ServiceError
from repro.service import (
    CampaignQueue,
    DEFAULT_TENANT_QUOTA,
    LIVE_STATES,
    QUEUE_STATES,
)


def _request(n=4, **extra):
    req = {"workloads": ["demo"], "tools": ["REFINE"], "n": n}
    req.update(extra)
    return req


@pytest.fixture
def queue():
    with CampaignQueue(":memory:") as q:
        yield q


class TestSubmit:
    def test_ids_are_sequential(self, queue):
        assert [queue.submit(_request()) for _ in range(3)] == [1, 2, 3]

    def test_rows_start_queued(self, queue):
        cid = queue.submit(_request(), tenant="alice", priority=7)
        info = queue.info(cid)
        assert info["state"] == "queued"
        assert info["tenant"] == "alice"
        assert info["priority"] == 7
        assert info["request"] == _request()
        assert not info["cancel_requested"]
        assert info["started_at"] is None

    def test_non_dict_request_rejected(self, queue):
        with pytest.raises(ServiceError, match="JSON object"):
            queue.submit(["not", "a", "dict"])

    def test_unknown_id_is_none(self, queue):
        assert queue.info(999) is None


class TestPriority:
    def test_higher_priority_wins(self, queue):
        low = queue.submit(_request(), priority=0)
        high = queue.submit(_request(), priority=5)
        mid = queue.submit(_request(), priority=2)
        order = []
        while (row := queue.next_eligible(tuple(order))) is not None:
            order.append(row["id"])
        assert order == [high, mid, low]

    def test_fifo_within_a_band(self, queue):
        first = queue.submit(_request(), priority=3)
        second = queue.submit(_request(), priority=3)
        assert queue.next_eligible()["id"] == first
        assert queue.next_eligible((first,))["id"] == second

    def test_only_queued_rows_are_eligible(self, queue):
        cid = queue.submit(_request())
        queue.set_state(cid, "running")
        assert queue.next_eligible() is None

    def test_cancel_flag_removes_eligibility(self, queue):
        cid = queue.submit(_request())
        queue.request_cancel(cid)
        assert queue.next_eligible() is None


class TestQuota:
    def test_default_quota(self, queue):
        assert queue.tenant_quota == DEFAULT_TENANT_QUOTA

    def test_quota_rejects_excess_live_campaigns(self, tmp_path):
        with CampaignQueue(":memory:", tenant_quota=2) as q:
            q.submit(_request(), tenant="alice")
            q.submit(_request(), tenant="alice")
            with pytest.raises(ServiceError, match="quota"):
                q.submit(_request(), tenant="alice")
            # Quotas are per tenant: bob is unaffected.
            q.submit(_request(), tenant="bob")

    def test_terminal_states_free_quota(self):
        with CampaignQueue(":memory:", tenant_quota=1) as q:
            for terminal in ("done", "failed", "cancelled"):
                # accepted: the campaign before it has ended
                cid = q.submit(_request(), tenant="alice")
                q.set_state(cid, terminal)
            q.submit(_request(), tenant="alice")
            with pytest.raises(ServiceError, match="quota"):
                q.submit(_request(), tenant="alice")

    def test_quota_must_be_positive(self):
        with pytest.raises(ServiceError, match="tenant_quota"):
            CampaignQueue(":memory:", tenant_quota=0)


class TestStates:
    def test_every_live_state_counts(self):
        for state in LIVE_STATES:
            with CampaignQueue(":memory:", tenant_quota=1) as q:
                cid = q.submit(_request(), tenant="t")
                q.set_state(cid, state)
                with pytest.raises(ServiceError, match="quota"):
                    q.submit(_request(), tenant="t")

    def test_unknown_state_rejected(self, queue):
        cid = queue.submit(_request())
        with pytest.raises(ServiceError, match="unknown queue state"):
            queue.set_state(cid, "paused")

    def test_unknown_id_rejected(self, queue):
        with pytest.raises(ServiceError, match="no queued campaign"):
            queue.set_state(41, "running")

    def test_timestamps_follow_the_lifecycle(self, queue):
        cid = queue.submit(_request())
        queue.set_state(cid, "populating")
        info = queue.info(cid)
        assert info["started_at"] is not None
        assert info["finished_at"] is None
        queue.set_state(cid, "done", validation="passed")
        info = queue.info(cid)
        assert info["finished_at"] is not None
        assert info["validation"] == "passed"

    def test_error_and_detail_recorded(self, queue):
        cid = queue.submit(_request())
        queue.set_state(
            cid, "failed", error="boom", detail={"cells": {"a/b": 1}}
        )
        info = queue.info(cid)
        assert info["error"] == "boom"
        assert info["detail"] == {"cells": {"a/b": 1}}

    def test_counts(self, queue):
        queue.set_state(queue.submit(_request()), "done")
        queue.submit(_request())
        queue.submit(_request())
        assert queue.counts() == {"queued": 2, "done": 1}

    def test_all_states_enumerated(self):
        assert set(LIVE_STATES) < set(QUEUE_STATES)
        assert set(QUEUE_STATES) - set(LIVE_STATES) == {
            "done", "failed", "cancelled"
        }


class TestCancel:
    def test_cancel_live_sets_flag(self, queue):
        cid = queue.submit(_request())
        info = queue.request_cancel(cid)
        assert info["cancel_requested"]
        assert queue.cancelling()[0]["id"] == cid

    def test_cancel_terminal_is_noop(self, queue):
        cid = queue.submit(_request())
        queue.set_state(cid, "done")
        info = queue.request_cancel(cid)
        assert not info["cancel_requested"]
        assert queue.cancelling() == []

    def test_cancel_unknown_rejected(self, queue):
        with pytest.raises(ServiceError, match="no campaign"):
            queue.request_cancel(7)


class TestRecovery:
    def test_mid_flight_rows_return_to_queued(self, queue):
        interrupted = []
        for state in ("populating", "running", "validating"):
            cid = queue.submit(_request())
            queue.set_state(cid, state)
            interrupted.append(cid)
        done = queue.submit(_request())
        queue.set_state(done, "done")
        assert queue.recover() == interrupted
        for cid in interrupted:
            info = queue.info(cid)
            assert info["state"] == "queued"
            assert info["started_at"] is None
        assert queue.info(done)["state"] == "done"

    def test_recover_is_idempotent(self, queue):
        cid = queue.submit(_request())
        queue.set_state(cid, "running")
        assert queue.recover() == [cid]
        assert queue.recover() == []

    def test_state_survives_reopen(self, tmp_path):
        path = tmp_path / "queue.sqlite"
        with CampaignQueue(path) as q:
            cid = q.submit(_request(), tenant="alice", priority=3)
            q.set_state(cid, "running")
        with CampaignQueue(path) as q:
            assert q.recover() == [cid]
            info = q.info(cid)
            assert info["tenant"] == "alice"
            assert info["priority"] == 3
            assert info["request"] == _request()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "queue.sqlite"
        with CampaignQueue(path) as q:
            with q._conn:
                q._conn.execute(
                    "UPDATE meta SET value='999' WHERE key='queue_version'"
                )
        with pytest.raises(ServiceError, match="version"):
            CampaignQueue(path)

    def test_parent_directories_created(self, tmp_path):
        path = tmp_path / "a" / "b" / "queue.sqlite"
        with CampaignQueue(path) as q:
            q.submit(_request())
        assert path.exists()


class TestListing:
    def test_live_first_then_newest(self, queue):
        done = queue.submit(_request())
        queue.set_state(done, "done")
        older = queue.submit(_request())
        newer = queue.submit(_request())
        assert [r["id"] for r in queue.list()] == [newer, older, done]

    def test_tenant_filter_and_limit(self, queue):
        queue.submit(_request(), tenant="alice")
        queue.submit(_request(), tenant="bob")
        queue.submit(_request(), tenant="bob")
        assert len(queue.list("bob")) == 2
        assert len(queue.list("bob", limit=1)) == 1
        assert queue.list("nobody") == []
