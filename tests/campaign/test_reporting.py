"""The paper's tables and figures on synthetic campaign results (no
campaigns run — fast, deterministic): results go into a ``:memory:``
store, :func:`report_data` reduces it, the Markdown serialiser prints it."""

import pytest

from repro.campaign import Outcome, matrix_to_csv
from repro.campaign.results import CampaignResult
from repro.resultsdb import (
    ResultsDB,
    generated_blocks,
    ingest_result,
    render_markdown,
    report_data,
)


def result(workload, tool, crash, soc, benign, cycles=1000.0):
    return CampaignResult(
        workload=workload,
        tool=tool,
        n=crash + soc + benign,
        counts={
            Outcome.CRASH: crash,
            Outcome.SOC: soc,
            Outcome.BENIGN: benign,
        },
        total_cycles=cycles,
    )


@pytest.fixture
def matrix():
    # Shaped like the paper's AMG2013 row of Table 6.
    return {
        ("AMG2013", "LLFI"): result("AMG2013", "LLFI", 395, 168, 505, 5.5e6),
        ("AMG2013", "REFINE"): result("AMG2013", "REFINE", 254, 87, 727, 0.7e6),
        ("AMG2013", "PINFI"): result("AMG2013", "PINFI", 269, 70, 729, 1.0e6),
    }


def report(matrix):
    """``(data, Markdown blocks)`` of a campaign matrix."""
    with ResultsDB() as db:
        for res in matrix.values():
            ingest_result(db, res)
        (data,) = report_data(db)
    return data, generated_blocks(render_markdown([data]))


class TestFigure4:
    def test_panel_percentages(self, matrix):
        text = report(matrix)[1]["figure4"]
        assert "37.0%" in text  # LLFI crash: 395/1068
        assert "crash" in text and "soc" in text and "benign" in text

    def test_panel_has_confidence_intervals(self, matrix):
        data, blocks = report(matrix)
        low, high = data["results"]["AMG2013/LLFI"]["wilson"]["crash"]
        assert low < 395 / 1068 < high
        assert f"[{low * 100:.1f}, {high * 100:.1f}]" in blocks["figure4"]

    def test_figure4_multi_workload(self, matrix):
        matrix[("CG", "PINFI")] = result("CG", "PINFI", 100, 0, 968)
        text = report(matrix)[1]["figure4"]
        assert text.count("PMF") == 1  # one table, a row per cell
        assert text.count("| AMG2013 |") == 3 and text.count("| CG |") == 1


class TestFigure5:
    def test_normalization_to_pinfi(self, matrix):
        data, blocks = report(matrix)
        # LLFI = 5.5e6 / 1.0e6 = 5.50, REFINE = 0.70
        assert data["cycle_ratios"]["programs"]["AMG2013"] == {
            "LLFI": 5.5, "REFINE": 0.7,
        }
        assert "| AMG2013 | 5.50 | 0.70 |" in blocks["figure5"]

    def test_total_row(self, matrix):
        matrix[("CG", "LLFI")] = result("CG", "LLFI", 100, 0, 968, 3.0e6)
        matrix[("CG", "PINFI")] = result("CG", "PINFI", 100, 0, 968, 1.0e6)
        data, blocks = report(matrix)
        # a total is a ratio of sums, over the programs that ran the tool
        assert data["cycle_ratios"]["total"] == {"LLFI": 8.5e6 / 2e6, "REFINE": 0.7}
        assert "| Total | 4.25 | 0.70 |" in blocks["figure5"]


class TestTables:
    def test_table4_matches_paper_layout(self, matrix):
        text = report(matrix)[1]["table4"]
        assert "| LLFI | 395 | 168 | 505 | 1068 |" in text
        assert "| PINFI | 269 | 70 | 729 | 1068 |" in text
        assert "| Total | 664 | 238 | 1234 |" in text

    def test_table5_verdicts(self, matrix):
        data, blocks = report(matrix)
        assert data["chi2"]["AMG2013/LLFI-vs-PINFI"]["significant"] is True
        assert data["chi2"]["AMG2013/REFINE-vs-PINFI"]["significant"] is False
        assert data["verdicts"] == {
            "LLFI-vs-PINFI": {"significant": 1, "of": 1},
            "REFINE-vs-PINFI": {"significant": 0, "of": 1},
        }
        llfi, refine = [
            line for line in blocks["table5"].splitlines() if "| AMG2013 |" in line
        ]
        assert "LLFI vs PINFI" in llfi and llfi.endswith("| yes |")
        assert "REFINE vs PINFI" in refine and refine.endswith("| no |")

    def test_table5_small_p_formatting(self, matrix):
        text = report(matrix)[1]["table5"]
        assert "~0.00" in text  # LLFI p-value is essentially zero

    def test_table6_rows(self, matrix):
        text = report(matrix)[1]["table6"]
        assert "| AMG2013 | LLFI | 1068 | 395 | 168 | 505 |" in text
        assert "| AMG2013 | PINFI | 1068 | 269 | 70 | 729 |" in text

    def test_csv_fields(self, matrix):
        csv = matrix_to_csv(matrix)
        line = next(l for l in csv.splitlines() if l.startswith("AMG2013,LLFI"))
        fields = line.split(",")
        assert fields[2] == "1068"
        assert fields[3] == "395"
