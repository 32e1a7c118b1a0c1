"""Fault models in the results store: additive migration, the bit=-1
sentinel, mixed-model stores and the per-model report grouping
(ISSUE satellite 6, store side)."""

from __future__ import annotations

import sqlite3

import pytest

from repro.campaign import run_campaign
from repro.campaign import make_tool
from repro.errors import ResultsDBError
from repro.resultsdb.db import ResultsDB
from repro.resultsdb.ingest import ingest_result
from repro.resultsdb.queries import (
    breakdown,
    list_campaigns,
    to_campaign_result,
)
from repro.resultsdb.report import build_report

from tests.conftest import DEMO_SOURCE


def _campaign(fault_model, n=16, tool="REFINE"):
    t = make_tool(tool, DEMO_SOURCE, "demo", fault_model=fault_model)
    return run_campaign(t, n=n, keep_records=True)


@pytest.fixture(scope="module")
def mixed_store(tmp_path_factory):
    """One store holding a single-bit, a multi-bit and a cache-line
    campaign (distinct seeds — model is an attribute, not identity)."""
    path = tmp_path_factory.mktemp("models") / "store.db"
    with ResultsDB(path) as db:
        for seed, model in enumerate(
            ("single-bit", "multi-bit:k=3", "cache-line"), start=1
        ):
            ingest_result(db, _campaign(model), base_seed=seed)
    return path


class TestMigration:
    def test_pre_model_store_gains_columns(self, tmp_path):
        """A store created before fault models shipped opens cleanly: the
        additive columns appear, existing rows read as single-bit."""
        path = tmp_path / "old.db"
        with ResultsDB(path) as db:
            db.campaign_id("demo", "REFINE", n=4, base_seed=7)
        # Strip this PR's additive columns to recreate the old shape.
        conn = sqlite3.connect(path)
        for table, columns in (
            ("campaigns", ("fault_model",)),
            ("faults", ("model", "bits", "address", "dwell")),
        ):
            for column in columns:
                conn.execute(f"ALTER TABLE {table} DROP COLUMN {column}")
        conn.commit()
        conn.close()
        with ResultsDB(path) as db:
            cols = {r[1] for r in db.execute("PRAGMA table_info(campaigns)")}
            assert "fault_model" in cols
            fcols = {r[1] for r in db.execute("PRAGMA table_info(faults)")}
            assert {"model", "bits", "address", "dwell"} <= fcols
            row = db.execute(
                "SELECT fault_model FROM campaigns"
            ).fetchone()
            assert row[0] is None  # pre-model rows stay NULL -> single-bit
            infos = list_campaigns(db)
            assert infos[0].fault_model is None


class TestModelIdentity:
    def test_known_model_fills_null(self):
        with ResultsDB() as db:
            cid = db.campaign_id("demo", "REFINE", n=8, base_seed=1)
            assert db.campaign_id(
                "demo", "REFINE", n=8, base_seed=1, fault_model="multi-bit"
            ) == cid
            row = db.execute(
                "SELECT fault_model FROM campaigns WHERE id=?", (cid,)
            ).fetchone()
            assert row[0] == "multi-bit"

    def test_conflicting_model_refused(self):
        """Two different models cannot silently share one campaign row —
        matrix-save files carry no base_seed, so this is the only guard
        against relabeling another model's experiments."""
        with ResultsDB() as db:
            db.campaign_id(
                "demo", "REFINE", n=8, base_seed=1, fault_model="cache-line"
            )
            with pytest.raises(ResultsDBError, match="already holds"):
                db.campaign_id(
                    "demo", "REFINE", n=8, base_seed=1,
                    fault_model="stuck-at:dwell=16",
                )


class TestMixedStore:
    def test_campaigns_keep_their_models(self, mixed_store):
        with ResultsDB(mixed_store) as db:
            models = {i.fault_model for i in list_campaigns(db)}
        assert models == {"single-bit", "multi-bit:k=3", "cache-line"}

    def test_fault_records_roundtrip(self, mixed_store):
        with ResultsDB(mixed_store) as db:
            for info in list_campaigns(db):
                result = to_campaign_result(db, info.id)
                assert result.fault_model == info.fault_model
                for rec in result.records:
                    if rec.fault is None:
                        continue
                    assert rec.fault.model == info.fault_model
                    if info.fault_model == "cache-line":
                        assert rec.fault.bit is None  # -1 sentinel decoded
                        assert rec.fault.address is not None
                    if info.fault_model == "multi-bit:k=3":
                        if rec.fault.bits is not None:
                            assert rec.fault.bit == rec.fault.bits[0]

    def test_model_breakdown_dimension(self, mixed_store):
        with ResultsDB(mixed_store) as db:
            for info in list_campaigns(db):
                groups = breakdown(db, info.id, by="model")
                assert [g.key for g in groups] == [info.fault_model]

    def test_bit_buckets_degrade_on_bitless_faults(self, mixed_store):
        with ResultsDB(mixed_store) as db:
            info = next(
                i for i in list_campaigns(db)
                if i.fault_model == "cache-line"
            )
            groups = breakdown(db, info.id, by="bit", bit_buckets=8)
            assert [g.key for g in groups] == ["bits[n/a]"]

    def test_report_groups_overview_by_model(self, mixed_store, tmp_path):
        with ResultsDB(mixed_store) as db:
            index = build_report(db, tmp_path / "html")
        text = index.read_text()
        for model in ("single-bit", "multi-bit:k=3", "cache-line"):
            assert f"Fault model: <code>{model}</code>" in text
