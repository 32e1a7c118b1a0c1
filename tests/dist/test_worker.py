"""The worker's bounded context cache (tier-1: no coordinator needed —
``Worker._run_task`` is driven directly)."""

import pytest

from repro.campaign.parallel import CONTEXT_CAPACITY
from repro.dist import CampaignSpec, Worker, WorkerStats
from repro.errors import DistError

from tests.conftest import DEMO_SOURCE


def _spec(**overrides):
    kwargs = dict(
        workload="demo", source=DEMO_SOURCE, tool_name="REFINE", n=8,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestContextCache:
    def test_campaigns_over_one_binary_share_a_context(self):
        worker = Worker("127.0.0.1", 1)
        first = _spec()
        worker._run_task(first, (0, 1))
        tool, scheduler = worker._contexts.get(first)
        # another seed: same binary, same timeline
        other = _spec(base_seed=1234)
        part = worker._run_task(other, (5, 7))
        assert len(worker._contexts) == 1
        assert worker._contexts.get(other) == (tool, scheduler)
        assert part.scheduler_stats["cursor_steps"] < tool.profile.steps
        # another campaign size: same binary, a timeline sized to that cell
        # (every executor of a cell spaces its sync states by the cell's n)
        larger = _spec(n=200)
        worker._run_task(larger, (5, 150))
        assert len(worker._contexts) == 1
        same_tool, resized = worker._contexts.get(larger)
        assert same_tool is tool and resized is not scheduler
        assert resized.n == 200
        # what determines the binary or its fault plans does not
        worker._run_task(_spec(fault_model="multi-bit"), (0,))
        worker._run_task(_spec(opt_level="O0"), (0,))
        assert len(worker._contexts) == 3

    def test_cache_stays_at_its_bound(self):
        # A soak-mode service feeds a worker one new program per campaign.
        worker = Worker("127.0.0.1", 1)
        for k in range(CONTEXT_CAPACITY + 3):
            worker._run_task(_spec(workload=f"demo{k}"), (0, 1))
            assert len(worker._contexts) <= CONTEXT_CAPACITY
        assert len(worker._contexts) == CONTEXT_CAPACITY
        # least recently used went first: the newest cells are still warm
        newest = _spec(workload=f"demo{CONTEXT_CAPACITY + 2}")
        part = worker._run_task(newest, (2, 3))
        assert part.scheduler_stats["sync_states"] == 0


def test_lease_with_indices_outside_the_cell_is_malformed():
    """A lease is input from a peer: ``[[0, 10**12]]`` is refused against
    the spec's ``n`` before a single index is materialised."""
    worker = Worker("127.0.0.1", 1)
    lease = {
        "type": "lease", "task_id": 0, "attempt": 0,
        "spec": _spec().to_dict(), "indices": [[0, 10**12]],
    }
    worker._client.request_task = lambda: lease
    with pytest.raises(DistError, match="malformed lease.*does not fit"):
        worker._serve(WorkerStats(name="w"), runner=None)
