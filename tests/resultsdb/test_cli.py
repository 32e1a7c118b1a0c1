"""refine-db CLI: verbs, exit codes, one-invocation round-trip."""

import pytest

from repro.campaign.io import save_matrix
from repro.campaign import matrix_to_csv
from repro.resultsdb.cli import main


@pytest.fixture(scope="module")
def artifacts(ground_truth, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    matrix = {
        ("demo", name): res for name, res in ground_truth.results.items()
    }
    matrix_path = root / "matrix.json"
    save_matrix(matrix, matrix_path)
    return root, matrix, matrix_path


class TestIngest:
    def test_events_and_results_and_report_in_one_call(
        self, artifacts, ground_truth, capsys
    ):
        root, _, matrix_path = artifacts
        db = root / "combined.sqlite"
        rc = main([
            "ingest", str(db),
            "--events", str(ground_truth.log),
            "--results", str(matrix_path),
            "--report", str(root / "combined-report"),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert f"{2 * ground_truth.n} experiment event(s)" in err
        assert "report:" in err
        assert (root / "combined-report" / "index.html").exists()

    def test_nothing_to_ingest_is_usage_error(self, tmp_path):
        assert main(["ingest", str(tmp_path / "empty.sqlite")]) == 2

    def test_bad_input_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main([
            "ingest", str(tmp_path / "db.sqlite"), "--results", str(bad)
        ])
        assert rc == 1
        assert "refine-db: error:" in capsys.readouterr().err


class TestQuery:
    @pytest.fixture(scope="class")
    def db(self, artifacts):
        root, _, matrix_path = artifacts
        path = root / "query.sqlite"
        assert main(["ingest", str(path), "--results", str(matrix_path)]) == 0
        return path

    def test_overview_lists_cells(self, db, ground_truth, capsys):
        assert main(["query", str(db)]) == 0
        out = capsys.readouterr().out
        assert "REFINE" in out and "PINFI" in out
        assert str(ground_truth.n) in out

    def test_csv_matches_reporting_layer(self, db, artifacts, capsys):
        _, matrix, _ = artifacts
        assert main(["query", str(db), "--csv"]) == 0
        assert capsys.readouterr().out.strip() == matrix_to_csv(matrix).strip()

    def test_breakdown_renders(self, db, capsys):
        rc = main([
            "query", str(db), "--workload", "demo", "--tool", "REFINE",
            "--by", "func",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "demo/REFINE by func" in out

    def test_rank_renders(self, db, capsys):
        rc = main([
            "query", str(db), "--workload", "demo", "--tool", "REFINE",
            "--by", "register", "--rank", "--top", "3",
        ])
        assert rc == 0
        assert "wilson-95%" in capsys.readouterr().out

    def test_by_without_cell_is_usage_error(self, db, capsys):
        assert main(["query", str(db), "--by", "func"]) == 2

    def test_missing_campaign_exits_one(self, db, capsys):
        rc = main([
            "query", str(db), "--workload", "demo", "--tool", "NOPE",
            "--by", "func",
        ])
        assert rc == 1
        assert "no campaign" in capsys.readouterr().err


class TestReportAndVacuum:
    def test_report_verb(self, artifacts, tmp_path, capsys):
        root, _, matrix_path = artifacts
        db = tmp_path / "r.sqlite"
        assert main(["ingest", str(db), "--results", str(matrix_path)]) == 0
        out_dir = tmp_path / "html"
        assert main([
            "report", str(db), str(out_dir), "--title", "cli title"
        ]) == 0
        assert "cli title" in (out_dir / "index.html").read_text()

    def test_vacuum_verb(self, artifacts, tmp_path):
        root, _, matrix_path = artifacts
        db = tmp_path / "v.sqlite"
        assert main(["ingest", str(db), "--results", str(matrix_path)]) == 0
        assert main(["vacuum", str(db)]) == 0
        # WAL folded back in: the sidecar files are gone or empty.
        wal = db.with_name(db.name + "-wal")
        assert not wal.exists() or wal.stat().st_size == 0
