"""Integration tests: the paper's statistical claims on mini campaigns.

These use a reduced sample count (n = 100) on two representative workloads,
so the assertions target the *direction* of each effect with comfortable
statistical headroom rather than the paper's exact percentages.
"""

import os

import pytest

from repro.campaign import Outcome, matrix_to_csv, run_matrix
from repro.resultsdb import (
    ResultsDB,
    generated_blocks,
    ingest_result,
    render_markdown,
    report_data,
)
from repro.stats import ContingencyTable
from repro.workloads import get_workload

N = int(os.environ.get("REPRO_TEST_SAMPLES", "100"))
PICK = ["HPCCG-1.0", "DC"]
TOOLS = ["LLFI", "REFINE", "PINFI"]


@pytest.fixture(scope="module")
def matrix():
    sources = {name: get_workload(name).source for name in PICK}
    return run_matrix(sources, TOOLS, n=N)


class TestAccuracyClaims:
    def test_refine_indistinguishable_from_pinfi(self, matrix):
        """Paper Table 5, lower half: REFINE vs PINFI never significant."""
        for workload in PICK:
            table = ContingencyTable.from_results(
                matrix[(workload, "REFINE")], matrix[(workload, "PINFI")]
            )
            result = table.test()
            assert not result.significant, (
                f"{workload}: REFINE vs PINFI p={result.p_value:.4f}"
            )

    def test_llfi_differs_from_pinfi(self, matrix):
        """Paper Table 5, upper half: LLFI vs PINFI significant for all."""
        for workload in PICK:
            table = ContingencyTable.from_results(
                matrix[(workload, "LLFI")], matrix[(workload, "PINFI")]
            )
            result = table.test()
            assert result.significant, (
                f"{workload}: LLFI vs PINFI p={result.p_value:.4f}"
            )

    def test_llfi_underestimates_crashes(self, matrix):
        """LLFI cannot hit stack/address state, so it sees fewer crashes on
        pointer-heavy workloads (the dominant direction in Figure 4)."""
        workload = "DC"
        llfi = matrix[(workload, "LLFI")]
        pinfi = matrix[(workload, "PINFI")]
        assert llfi.proportion(Outcome.CRASH) < pinfi.proportion(Outcome.CRASH)


class TestSpeedClaims:
    def test_llfi_slowest(self, matrix):
        """Figure 5: LLFI campaigns take a multiple of PINFI's time."""
        for workload in PICK:
            llfi = matrix[(workload, "LLFI")].total_cycles
            pinfi = matrix[(workload, "PINFI")].total_cycles
            assert llfi > 1.5 * pinfi

    def test_refine_close_to_pinfi(self, matrix):
        """Figure 5: REFINE within the paper's 0.7x-1.8x band of PINFI."""
        for workload in PICK:
            refine = matrix[(workload, "REFINE")].total_cycles
            pinfi = matrix[(workload, "PINFI")].total_cycles
            assert 0.6 < refine / pinfi < 2.0

    def test_refine_faster_than_llfi(self, matrix):
        for workload in PICK:
            assert (
                matrix[(workload, "REFINE")].total_cycles
                < matrix[(workload, "LLFI")].total_cycles
            )


class TestReporting:
    """The one renderer over the live matrix, through a ``:memory:`` store."""

    @pytest.fixture(scope="class")
    def blocks(self, matrix):
        with ResultsDB() as db:
            for res in matrix.values():
                ingest_result(db, res)
            return generated_blocks(render_markdown(report_data(db)))

    def test_figure4_renders(self, blocks):
        text = blocks["figure4"]
        for workload in PICK:
            assert workload in text
        assert "crash" in text and "benign" in text
        assert "PMF" in text

    def test_figure5_renders(self, blocks):
        text = blocks["figure5"]
        assert "Total" in text
        assert "LLFI" in text and "REFINE" in text

    def test_table4_style_contingency(self, blocks):
        text = blocks["table4"]
        assert "LLFI" in text and "PINFI" in text
        assert "Total" in text

    def test_table5_renders(self, blocks):
        text = blocks["table5"]
        assert "LLFI vs PINFI" in text
        assert "REFINE vs PINFI" in text

    def test_table6_renders(self, blocks):
        text = blocks["table6"]
        for workload in PICK:
            assert workload in text

    def test_csv_round_numbers(self, matrix):
        csv = matrix_to_csv(matrix)
        lines = csv.splitlines()
        assert lines[0].startswith("workload,tool,")
        assert len(lines) == 1 + len(PICK) * len(TOOLS)
        for line in lines[1:]:
            fields = line.split(",")
            assert int(fields[3]) + int(fields[4]) + int(fields[5]) == N
