"""What the golden timeline inherited from the snapshot engine it replaced:
the auto rule for how far apart its sync states sit, the per-tool trigger
counter its forks are keyed on, and the hit / miss split — a tail served
from a fork skips the golden prefix, one without a fork runs from scratch
and computes the same thing."""

from __future__ import annotations

from bisect import bisect_left

import pytest

from repro.campaign.io import experiment_event_fields
from repro.engine.blocks import discover_blocks
from repro.errors import CampaignError
from repro.campaign import make_tool
from repro.campaign.schedule import (
    MIN_SYNC_INTERVAL,
    SYNC_DENSITY,
    GoldenTimeline,
    TriggerScheduler,
)
from repro.fi.tools import TOOL_CLASSES
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def ep_tool():
    return make_tool("REFINE", get_workload("EP").source, "EP")


class TestIntervalResolution:
    """``4 * isqrt(n)`` sync states, at most ``SYNC_DENSITY`` of them, at
    least ``MIN_SYNC_INTERVAL`` steps apart."""

    def test_auto_scales_with_golden_steps(self):
        steps = 1_000_000
        assert GoldenTimeline.auto_interval(steps, 24) == steps // 16
        assert GoldenTimeline.auto_interval(steps, 320) == steps // 68
        assert GoldenTimeline.auto_interval(steps, 1) == steps // 4

    def test_the_papers_n_keeps_the_densest_spacing(self):
        steps = 1_000_000
        for n in (1024, 1068, 1088, 5000, 10**6):
            assert GoldenTimeline.auto_interval(steps, n) == steps // SYNC_DENSITY

    def test_auto_floor_for_tiny_workloads(self):
        assert GoldenTimeline.auto_interval(100, 1068) == MIN_SYNC_INTERVAL
        assert GoldenTimeline.auto_interval(100, 1) == MIN_SYNC_INTERVAL

    def test_recorded_timeline_uses_the_auto_rule(self, ep_tool):
        """A sync state sits at the first block entry at or past each
        multiple of the interval (the reference loop finds those steps on
        its own), on a block leader, and the timeline lists them in step
        order."""
        tool = ep_tool
        sched = TriggerScheduler(tool, 4)
        list(sched.run_batch(1, range(4)))
        timeline = sched._timeline
        steps = tool.profile.steps
        assert timeline.interval == GoldenTimeline.auto_interval(steps, 4)

        leaders = set(discover_blocks(tool.program)[0])
        entries = [0]
        cpu = tool._make_cpu(None)
        cpu.record_snapshots(
            1, lambda c, pc: pc in leaders and entries.append(c.steps)
        )
        cpu.run()
        firsts = [bisect_left(entries, m)
                  for m in range(timeline.interval, steps, timeline.interval)]
        want = sorted({0} | {entries[i] for i in firsts if i < len(entries)})
        assert len(want) > 4
        assert timeline.sync_steps == sorted(timeline.sync_states) == want
        assert all(
            state.pc in leaders for state in timeline.sync_states.values()
        )


    def test_a_missing_sync_state_fails_the_pass(self, ep_tool):
        """The pass cross-checks its timeline: a multiple no state answers
        within one block is an error, not a thinner timeline."""
        sched = TriggerScheduler(ep_tool, 4)
        record = sched._sync_hook
        calls = []

        def drop_the_third(timeline, cpu, pc, reach):
            calls.append(pc)
            if len(calls) != 3:
                record(timeline, cpu, pc, reach)

        sched._sync_hook = drop_the_third
        with pytest.raises(CampaignError, match="not within one block"):
            list(sched.run_batch(1, range(4)))


class TestEngine:
    def test_hits_skip_golden_prefix(self, ep_tool):
        sched = TriggerScheduler(ep_tool, 4)
        records = list(sched.run_batch(1, range(4)))
        assert all(rec.snapshot_hit for rec in records)
        assert sched.stats.fork_hits == 4 and sched.stats.scratch == 0
        assert sched.stats.prefix_steps_saved > 0

    def test_missing_fork_falls_back_to_scratch(self, ep_tool, monkeypatch):
        """The scheduler's safety net: a trigger the cursor never forked is
        run from instruction 0 instead — slower, same record."""
        forked = {
            rec.index: experiment_event_fields(rec)
            for rec in TriggerScheduler(ep_tool, 4).run_batch(1, range(4))
        }
        sched = TriggerScheduler(ep_tool, 4)
        advance = sched._advance_cursor

        def lose_the_forks():
            advance()
            sched._forks.clear()

        monkeypatch.setattr(sched, "_advance_cursor", lose_the_forks)
        scratch = {
            rec.index: experiment_event_fields(rec)
            for rec in sched.run_batch(1, range(4))
        }
        assert sched.stats.scratch == 4 and sched.stats.fork_hits == 0
        assert all(fields.pop("snapshot_hit") for fields in forked.values())
        assert not any(fields.pop("snapshot_hit") for fields in scratch.values())
        assert scratch == forked

    @pytest.mark.parametrize("tool_name", sorted(TOOL_CLASSES))
    def test_every_tool_has_a_counter(self, tool_name):
        assert TOOL_CLASSES[tool_name]._SNAPSHOT_COUNTER is not None
