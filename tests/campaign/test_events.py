"""Telemetry tests: JSONL event log and the live stats aggregator."""

import io
import json

import pytest

from repro.campaign import (
    CampaignStats,
    EventLog,
    Outcome,
    make_tool,
    read_events,
    run_campaign,
)

from tests.conftest import DEMO_SOURCE


class TestEventLog:
    def test_writes_jsonl_with_sequence(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path=path, clock=lambda: 1234.5) as log:
            log.emit("campaign_start", workload="demo", n=3)
            log.emit("experiment", index=0, outcome="crash")
        events = read_events(path)
        assert [e["event"] for e in events] == ["campaign_start", "experiment"]
        assert [e["seq"] for e in events] == [0, 1]
        assert all(e["ts"] == 1234.5 for e in events)
        assert events[0]["workload"] == "demo"

    def test_appends_across_instances(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path=path) as log:
            log.emit("campaign_start")
        with EventLog(path=path) as log:
            log.emit("campaign_finish")
        assert [e["event"] for e in read_events(path)] == [
            "campaign_start", "campaign_finish",
        ]

    def test_stream_sink(self):
        buf = io.StringIO()
        log = EventLog(stream=buf)
        log.emit("checkpoint", completed=5, n=10)
        event = json.loads(buf.getvalue())
        assert event["event"] == "checkpoint"
        assert event["completed"] == 5

    def test_emit_after_close_is_noop(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=path)
        log.emit("campaign_start")
        log.close()
        log.emit("experiment")  # must not raise or write
        assert len(read_events(path)) == 1

    def test_rejects_both_sinks(self, tmp_path):
        with pytest.raises(ValueError):
            EventLog(path=tmp_path / "x", stream=io.StringIO())

    def test_campaign_emits_expected_stream(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with EventLog(path=path) as log:
            run_campaign(
                make_tool("REFINE", DEMO_SOURCE, "demo"), n=5,
                checkpoint_path=tmp_path / "c.json", checkpoint_every=2,
                events=log,
            )
        events = read_events(path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_finish"
        assert kinds.count("experiment") == 5
        # 5 experiments at checkpoint_every=2 -> saves at 2, 4 and the tail
        assert kinds.count("checkpoint") == 3
        finish = events[-1]
        assert sum(finish["counts"].values()) == 5
        assert finish["experiments_per_sec"] > 0
        for e in events:
            if e["event"] == "experiment":
                assert {"index", "seed", "outcome", "cycles", "wall_s"} <= set(e)

    def test_resumed_campaign_start_carries_prior_counts(self, tmp_path):
        """A resumed run's campaign_start must report the checkpointed
        outcome tallies so live progress doesn't show zeros."""
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        ckpt = tmp_path / "c.json"
        first = run_campaign(tool, n=4, checkpoint_path=ckpt)
        path = tmp_path / "resume.jsonl"
        with EventLog(path=path) as log:
            run_campaign(tool, n=4, checkpoint_path=ckpt, events=log)
        start = read_events(path)[0]
        assert start["resumed"] == 4
        assert start["resumed_counts"] == {
            o.value: k for o, k in first.counts.items()
        }


class TestCampaignStats:
    def test_counts_and_rate(self):
        now = [100.0]
        stats = CampaignStats(total=10, clock=lambda: now[0])
        now[0] += 2.0
        for outcome in (Outcome.CRASH, Outcome.BENIGN, Outcome.BENIGN):
            stats.note(outcome)
        assert stats.done == 3
        assert stats.counts[Outcome.BENIGN] == 2
        assert stats.rate() == pytest.approx(1.5)
        assert stats.eta_seconds() == pytest.approx(7 / 1.5)

    def test_restored_experiments_do_not_inflate_rate(self):
        now = [0.0]
        stats = CampaignStats(total=100, done=50, clock=lambda: now[0])
        now[0] = 10.0
        stats.note(Outcome.SOC)
        # 1 fresh experiment in 10s, not 51 in 10s
        assert stats.rate() == pytest.approx(0.1)
        assert stats.done == 51

    def test_restored_counts_seed_the_tallies(self):
        stats = CampaignStats(
            total=100, done=50,
            counts={Outcome.CRASH: 10, Outcome.SOC: 15, Outcome.BENIGN: 25},
        )
        stats.note(Outcome.CRASH)
        assert stats.counts[Outcome.CRASH] == 11
        assert stats.done == 51
        assert "crash=11" in stats.render()

    def test_render_contains_progress_and_outcomes(self):
        now = [0.0]
        stats = CampaignStats(total=8, clock=lambda: now[0])
        now[0] = 1.0
        stats.note(Outcome.CRASH)
        text = stats.render()
        assert "1/8" in text
        assert "crash=1" in text
        assert "exp/s" in text
        assert "ETA" in text

    def test_eta_unknown_before_data(self):
        stats = CampaignStats(total=5)
        assert stats.eta_seconds() is None
        assert "ETA --:--" in stats.render()

    def test_render_without_workers_has_no_worker_block(self):
        stats = CampaignStats(total=10)
        assert "w[" not in stats.render()

    def test_scheduler_line_counts_rejoins_and_reused_endings_apart(self):
        stats = CampaignStats(total=10)
        batch = {"forks": 7, "rejoins": 2, "rides": 5, "ending_hits": 3,
                 "prefix_steps_saved": 1000, "tail_steps_saved": 234}
        stats.note_scheduler(batch)
        stats.note_scheduler(batch)  # cumulative: replaces
        assert stats.render().endswith(
            "| sched 7 forks, 2 rejoins, 5 rides, 3 endings reused, "
            "1,234 steps saved"
        )
        stats.note_scheduler(batch, accumulate=True)  # a chunk's own: adds
        assert "14 forks, 4 rejoins, 10 rides, 6 endings reused, 2,468" in stats.render()
