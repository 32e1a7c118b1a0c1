"""Ingest paths: live sink, event-log replay, result-file backfill.

The invariant under test throughout: whatever the path (and however many
times it runs), the store converges on rows bit-identical to the
in-memory sequential result.
"""

import json

import pytest

from repro.campaign import run_campaign
from repro.campaign.classify import Outcome
from repro.campaign.io import merge_results, result_to_dict, save_matrix
from repro.campaign.parallel import run_campaign_parallel
from repro.campaign.events import EventLog
from repro.campaign import make_tool
from repro.campaign.runner import DEFAULT_SEED
from repro.errors import ResultsDBError
from repro.resultsdb import (
    DatabaseSink,
    ResultsDB,
    ingest_events,
    ingest_result,
    ingest_results_file,
    matrix_from_db,
    to_campaign_result,
)
from repro.resultsdb.ingest import seed_from_db, seed_to_db

from tests.conftest import DEMO_SOURCE

KEY = ("demo", "REFINE")


def _assert_identical(a, b):
    assert result_to_dict(a) == result_to_dict(b)


class TestEventReplay:
    def test_replay_matches_memory_bit_for_bit(self, ground_truth):
        with ResultsDB() as db:
            summary = ingest_events(db, ground_truth.log)
            assert summary["experiments"] == 2 * ground_truth.n
            assert summary["campaigns"] == 2
            matrix = matrix_from_db(db)
            for tool_name, mem in ground_truth.results.items():
                _assert_identical(matrix[("demo", tool_name)], mem)

    def test_replay_twice_is_idempotent(self, ground_truth):
        with ResultsDB() as db:
            ingest_events(db, ground_truth.log)
            before = db.run_count()
            ingest_events(db, ground_truth.log)
            assert db.run_count() == before == 2 * ground_truth.n
            _assert_identical(
                matrix_from_db(db)[KEY], ground_truth.results["REFINE"]
            )

    def test_missing_log_raises(self):
        with ResultsDB() as db:
            with pytest.raises(ResultsDBError, match="cannot read"):
                ingest_events(db, "/nonexistent/events.jsonl")

    def test_malformed_line_raises(self, tmp_path):
        log = tmp_path / "bad.jsonl"
        log.write_text('{"seq": 0, "ts": 0.0, "no_event_key": true}\n')
        with ResultsDB() as db:
            with pytest.raises(ResultsDBError, match="without 'event'"):
                ingest_events(db, log)


class TestDatabaseSink:
    def test_experiment_before_campaign_start_raises(self):
        with ResultsDB() as db:
            sink = DatabaseSink(db)
            with pytest.raises(ResultsDBError, match="campaign_start"):
                sink.emit(
                    "experiment", workload="demo", tool="REFINE", index=0,
                    seed=1, outcome="crash", cycles=1.0, steps=1, trap=None,
                    exit_code=0, fault=None,
                )

    def test_batch_must_be_positive(self):
        with ResultsDB() as db:
            with pytest.raises(ResultsDBError, match="batch"):
                DatabaseSink(db, batch=0)

    def test_small_batches_flush_incrementally(self, ground_truth):
        # batch=7 across 96 events: several mid-stream transactions, same
        # final rows.
        with ResultsDB() as db:
            sink = DatabaseSink(db, batch=7)
            from repro.campaign.events import read_events

            for record in read_events(ground_truth.log):
                fields = {
                    k: v for k, v in record.items()
                    if k not in ("seq", "ts", "event")
                }
                sink.emit(record["event"], **fields)
            sink.close()
            _assert_identical(
                matrix_from_db(db)[KEY], ground_truth.results["REFINE"]
            )

    def test_unrelated_events_ignored(self):
        with ResultsDB() as db:
            sink = DatabaseSink(db)
            sink.emit("snapshot_stats", workload="demo", tool="REFINE",
                      hits=3)
            sink.emit("task_requeue", task=0, worker="w", reason="timeout")
            sink.close()
            assert db.run_count() == 0


class TestLiveWriteThrough:
    def test_sequential_campaign_streams_into_store(self, tmp_path):
        # The refine-campaign --db wiring, without the CLI: chain a sink
        # behind the event log and run a real campaign through it.
        class Tee(EventLog):
            def __init__(self, sink):
                super().__init__(stream=None)
                self._sink = sink

            def emit(self, event, **fields):
                self._sink.emit(event, **fields)

        with ResultsDB(tmp_path / "store.sqlite") as db:
            tool = make_tool("REFINE", DEMO_SOURCE, "demo")
            mem = run_campaign(
                tool, n=20, keep_records=True, events=Tee(DatabaseSink(db))
            )
            stored = to_campaign_result(
                db, db.campaign_id("demo", "REFINE", n=20, base_seed=DEFAULT_SEED)
            )
        # The event stream carries everything except golden output and
        # candidate totals (ingest_result fills those in the CLI path).
        assert stored.counts == mem.counts
        assert stored.total_cycles == mem.total_cycles
        assert stored.total_steps == mem.total_steps
        assert stored.records == mem.records

    def test_parallel_campaign_events_ingest_identically(self, tmp_path):
        log = tmp_path / "parallel.jsonl"
        with EventLog(log) as events:
            par = run_campaign_parallel(
                "REFINE", DEMO_SOURCE, "demo", n=20, workers=2,
                chunk_size=6, keep_records=True, events=events,
            )
        with ResultsDB() as db:
            ingest_events(db, log)
            stored = matrix_from_db(db)[KEY]
        # Chunk completion order is nondeterministic, but rows key on the
        # global index, so the reconstruction is in sequential order.
        _assert_identical(stored, par)


class TestResultImport:
    def test_matrix_file_round_trip(self, ground_truth, tmp_path):
        path = tmp_path / "matrix.json"
        matrix = {
            ("demo", name): res for name, res in ground_truth.results.items()
        }
        save_matrix(matrix, path)
        with ResultsDB() as db:
            summary = ingest_results_file(db, path)
            assert summary == {
                "campaigns": 2, "experiments": 2 * ground_truth.n
            }
            for name, mem in ground_truth.results.items():
                _assert_identical(matrix_from_db(db)[("demo", name)], mem)

    def test_imported_counts_equal_merge_results(self, ground_truth):
        # The backfill contract: importing the parts of a sliced campaign
        # tallies exactly what merge_results computes from the same parts
        # — including dropping a duplicate (requeued) part.
        from repro.campaign import CampaignSpec, run_slice

        n = 12
        slices = [tuple(range(0, 6)), tuple(range(6, n)),
                  tuple(range(6, n))]  # the last is a duplicate delivery
        spec = CampaignSpec(
            workload="demo", source=DEMO_SOURCE, tool_name="REFINE", n=n,
            keep_records=True,
        )
        parts = [run_slice(spec, ix) for ix in slices]
        merged = merge_results(parts, indices=slices)
        with ResultsDB() as db:
            # Each part lands on the same campaign row (same identity) and
            # the duplicate's rows vanish on the (campaign, idx) key.
            for part in parts:
                part.n = n
                ingest_result(db, part, base_seed=DEFAULT_SEED)
            cid = db.campaign_id("demo", "REFINE", n=n, base_seed=DEFAULT_SEED)
            stored = to_campaign_result(db, cid)
            assert db.run_count(cid) == n
        # Tallies written per part reflect only the last part; the runs
        # themselves are authoritative for the merged whole.
        counted = {o: 0 for o in Outcome}
        for rec in stored.records:
            counted[rec.outcome] += 1
        assert counted == merged.counts
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        sequential = run_campaign(tool, n=n, keep_records=True)
        assert counted == sequential.counts
        assert stored.records == sequential.records

    def test_summary_file_import(self, tmp_path):
        # The results/full_campaign*.json shape: counts only, no records.
        payload = {
            "n": 100,
            "results": {
                "demo/REFINE": {
                    "crash": 20, "soc": 30, "benign": 50,
                    "total_cycles": 123.0, "total_candidates": 456,
                },
            },
        }
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(payload))
        with ResultsDB() as db:
            summary = ingest_results_file(db, path)
            assert summary == {"campaigns": 1, "experiments": 0}
            cid = db.campaign_id("demo", "REFINE", n=100)
            stored = to_campaign_result(db, cid)
        assert stored.counts == {
            Outcome.CRASH: 20, Outcome.SOC: 30, Outcome.BENIGN: 50,
        }
        assert stored.total_cycles == 123.0
        assert stored.total_candidates == 456
        assert stored.records == []

    def test_repo_artifact_imports(self, repo_root=None):
        # The committed full-campaign artifact (the paper's 44,856-run
        # matrix at n=1068) must import as 42 summary campaigns, on the
        # base seed the file names.
        from pathlib import Path

        artifact = (
            Path(__file__).resolve().parents[2]
            / "results" / "full_campaign.json"
        )
        reference = json.loads(artifact.read_text())
        ref = reference["results"]["AMG2013/LLFI"]
        with ResultsDB() as db:
            summary = ingest_results_file(db, artifact)
            assert summary["campaigns"] == 42
            cid = db.campaign_id(
                "AMG2013", "LLFI", n=1068, base_seed=reference["base_seed"]
            )
            counts = to_campaign_result(db, cid).counts
        assert counts == {
            Outcome.CRASH: ref["crash"], Outcome.SOC: ref["soc"],
            Outcome.BENIGN: ref["benign"],
        }

    def test_unknown_format_raises(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text('{"neither": true}')
        with ResultsDB() as db:
            with pytest.raises(ResultsDBError, match="unrecognized"):
                ingest_results_file(db, path)

    def test_non_object_raises(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with ResultsDB() as db:
            with pytest.raises(ResultsDBError, match="JSON object"):
                ingest_results_file(db, path)

    def test_unreadable_raises(self):
        with ResultsDB() as db:
            with pytest.raises(ResultsDBError, match="cannot load"):
                ingest_results_file(db, "/nonexistent.json")


class TestSeedEncoding:
    def test_uint64_seed_round_trips(self):
        for seed in (0, 1, 2**63 - 1, 2**63, 2**64 - 1):
            stored = seed_to_db(seed)
            assert -(2**63) <= stored < 2**63  # fits SQLite INTEGER
            assert seed_from_db(stored) == seed


class TestSchedulePhases:
    def test_finish_event_persists_schedule_and_phases(self, tmp_path):
        from repro.resultsdb.queries import list_campaigns

        log_path = tmp_path / "events.jsonl"
        with EventLog(log_path) as log:
            tool = make_tool("REFINE", DEMO_SOURCE, "demo")
            run_campaign(tool, 8, events=log)
        with ResultsDB() as db:
            ingest_events(db, log_path)
            info = list_campaigns(db)[0]
        assert info.schedule == "trigger"
        assert set(info.phases) == {
            "translate_s", "prefix_s", "fork_s", "tail_s", "classify_s"
        }

    def test_old_logs_leave_schedule_null(self, ground_truth, tmp_path):
        """A log written before trigger order was the only order — an
        ``index`` schedule on its finish events (or none at all), plus the
        snapshot engine's ``snapshot_golden``/``snapshot_stats`` lines —
        still ingests, and says what it said."""
        from repro.campaign.events import read_events
        from repro.resultsdb.queries import list_campaigns

        old = tmp_path / "old.jsonl"
        with EventLog(old) as log:
            for record in read_events(ground_truth.log):
                fields = {
                    k: v for k, v in record.items()
                    if k not in ("seq", "ts", "event")
                }
                if record["event"] == "campaign_start":
                    log.emit(
                        "snapshot_golden", workload="demo",
                        tool=fields["tool"], interval=256, snapshots=2,
                        pages=3, reused=False, wall_s=0.01,
                    )
                if record["event"] == "campaign_finish":
                    log.emit(
                        "snapshot_stats", workload="demo",
                        tool=fields["tool"], hits=3, misses=1, hit_rate=0.75,
                    )
                    if fields["tool"] == "REFINE":
                        fields["schedule"] = "index"
                    else:
                        del fields["schedule"]
                    del fields["scheduler"]
                log.emit(record["event"], **fields)
        with ResultsDB() as db:
            ingest_events(db, old)
            by_tool = {info.tool: info for info in list_campaigns(db)}
            assert by_tool["REFINE"].schedule == "index"
            assert by_tool["PINFI"].schedule is None
            assert all(info.phases is not None for info in by_tool.values())
            _assert_identical(
                matrix_from_db(db)[KEY], ground_truth.results["REFINE"]
            )

    def test_pre_column_store_migrates_in_place(self, tmp_path):
        import sqlite3

        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)
                WITHOUT ROWID;
            INSERT INTO meta VALUES ('schema_version', '1');
            CREATE TABLE campaigns (
                id INTEGER PRIMARY KEY, workload TEXT NOT NULL,
                tool TEXT NOT NULL, n INTEGER NOT NULL,
                base_seed INTEGER NOT NULL DEFAULT -1,
                total_candidates INTEGER, golden_output TEXT,
                total_cycles REAL, total_steps INTEGER, source TEXT,
                UNIQUE (workload, tool, base_seed, n));
            """
        )
        conn.commit()
        conn.close()
        with ResultsDB(path) as db:
            cols = {r[1] for r in db.execute("PRAGMA table_info(campaigns)")}
            assert {"schedule", "phases"} <= cols
