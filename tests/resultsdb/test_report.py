"""The report — one data structure, three serialisations: structure,
drill-downs, graceful degradation."""

import json

import pytest

from repro.campaign.classify import OUTCOME_ORDER, Outcome
from repro.campaign.results import CampaignResult
from repro.resultsdb import (
    ResultsDB,
    build_report,
    find_campaign,
    ingest_events,
    ingest_result,
    report_data,
)
from repro.resultsdb.report import PREFIX, _fmt_p


@pytest.fixture(scope="module")
def report_dir(ground_truth, tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    with ResultsDB() as db:
        ingest_events(db, ground_truth.log)
        index = build_report(db, out, title="demo report")
        ids = {
            name: find_campaign(db, "demo", name)
            for name in ("REFINE", "PINFI")
        }
    return out, index, ids


class TestIndexPage:
    def test_index_written(self, report_dir):
        out, index, _ = report_dir
        assert index == out / "index.html"
        assert index.exists()

    def test_title_and_campaigns_listed(self, report_dir, ground_truth):
        _, index, _ = report_dir
        html = index.read_text()
        assert "demo report" in html
        assert "REFINE" in html and "PINFI" in html
        assert f"<td>{ground_truth.n}</td>" in html

    def test_outcome_counts_rendered(self, report_dir, ground_truth):
        _, index, _ = report_dir
        html = index.read_text()
        for mem in ground_truth.results.values():
            assert f"<td>{mem.frequency(Outcome.CRASH)}" in html

    def test_chisq_section_present(self, report_dir):
        # Two tools on one workload: the Table-5 view must appear, with
        # PINFI as the baseline pair.
        _, index, _ = report_dir
        html = index.read_text()
        assert "Table 5 view" in html
        assert "REFINE vs PINFI" in html

    def test_self_contained(self, report_dir):
        # Archivable: no scripts, no external assets.
        _, index, _ = report_dir
        html = index.read_text()
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html


class TestDrillDown:
    def test_campaign_pages_written(self, report_dir):
        out, _, ids = report_dir
        for cid in ids.values():
            assert (out / f"campaign-{cid}.html").exists()

    def test_breakdown_sections_present(self, report_dir):
        out, _, ids = report_dir
        html = (out / f"campaign-{ids['REFINE']}.html").read_text()
        for section in (
            "By source function", "By instruction opcode",
            "By operand kind", "By flipped bit range",
            "Registers by crash rate", "Bit positions by crash rate",
        ):
            assert section in html

    def test_links_back_to_index(self, report_dir):
        out, _, ids = report_dir
        html = (out / f"campaign-{ids['REFINE']}.html").read_text()
        assert 'href="index.html"' in html


class TestSummaryOnlyStore:
    def test_no_drilldown_without_records(self, ground_truth, tmp_path):
        # Counts-only campaigns (summary imports) render in the overview
        # but get no per-experiment drill-down page.
        mem = ground_truth.results["REFINE"]
        summary_only = type(mem)(
            workload=mem.workload, tool=mem.tool, n=mem.n,
            counts=dict(mem.counts),
        )
        with ResultsDB() as db:
            cid = ingest_result(db, summary_only)
            out = tmp_path / "report"
            build_report(db, out)
            assert (out / "index.html").exists()
            assert not (out / f"campaign-{cid}.html").exists()
            assert "summary only" in (out / "index.html").read_text()

    def test_empty_store_renders(self, tmp_path):
        with ResultsDB() as db:
            index = build_report(db, tmp_path / "empty")
            assert "0 campaign(s)" in index.read_text()


def _summary(tool, crash, soc, benign, cycles, candidates):
    return CampaignResult(
        workload="CG", tool=tool, n=crash + soc + benign,
        counts=dict(zip(OUTCOME_ORDER, (crash, soc, benign))),
        total_cycles=cycles, total_candidates=candidates,
    )


class TestOneStructureThreeSerialisations:
    """HTML, Markdown and JSON say the same thing because they are printed
    from the same data: nothing is recomputed per format."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("three")
        with ResultsDB() as db:  # counts only, as a summary import leaves it
            ingest_result(db, _summary("LLFI", 147, 450, 471, 3.85e6, 25357))
            ingest_result(db, _summary("REFINE", 275, 282, 511, 1.04e6, 68754))
            ingest_result(db, _summary("PINFI", 254, 328, 486, 1.00e6, 68754))
            build_report(db, out)
            (data,) = report_data(db)
        return data, out

    def test_json_is_the_data(self, written):
        data, out = written
        assert json.loads((out / "report.json").read_text()) == data
        assert {"n", "base_seed", "results", "chi2", "provenance"} <= set(data)

    def test_every_number_is_in_both_texts(self, written):
        data, out = written
        numbers = [
            str(cell[o.value])
            for cell in data["results"].values() for o in OUTCOME_ORDER
        ] + [
            text for test in data["chi2"].values()
            for text in (f"{test['statistic']:.2f}", _fmt_p(test["p_value"]))
        ] + [
            f"{ratio:.2f}"
            for by_tool in (*data["cycle_ratios"]["programs"].values(),
                            data["cycle_ratios"]["total"])
            for ratio in by_tool.values()
        ] + ["25357", "68754", "37%"]  # candidates: LLFI, PINFI, LLFI / PINFI
        assert len(numbers) == 9 + 4 + 4 + 3
        for name in ("index.html", "report.md"):
            text = (out / name).read_text(encoding="utf-8")
            missing = [n for n in numbers if f">{n}<" not in text
                       and f"| {n} |" not in text]
            assert not missing, (name, missing)

    def test_counts_only_store_renders_everything_but_drilldowns(self, written):
        data, out = written
        html = (out / "index.html").read_text(encoding="utf-8")
        for view in ("Figure 4 view", "Table 4 view", "Table 5 view",
                     "Figure 5 view", "Table 6 view", "candidate populations"):
            assert view in html, view
        assert not list(out.glob("campaign-*.html"))
        assert "summary only" in html
        cell = data["results"]["CG/LLFI"]
        assert cell["records"] is None and cell["prefix"] is None

    def test_pairs_without_a_baseline(self):
        # no PINFI in the store: every tool pair is tested, nothing is
        # normalized, and a one-outcome table is reported as not testable
        with ResultsDB() as db:
            ingest_result(db, _summary("LLFI", 10, 0, 0, 1.0, 5))
            ingest_result(db, _summary("REFINE", 10, 0, 0, 1.0, 5))
            (data,) = report_data(db)
        assert list(data["chi2"]) == ["CG/LLFI-vs-REFINE"]
        assert "error" in data["chi2"]["CG/LLFI-vs-REFINE"]
        assert data["verdicts"] == {"LLFI-vs-REFINE": {"significant": 0, "of": 0}}
        assert data["cycle_ratios"] == {"programs": {}, "total": {}}
        assert data["candidates"] == {}


class TestRecordDigests:
    def test_digests_need_the_records(self, ground_truth):
        with ResultsDB() as db:
            ingest_events(db, ground_truth.log)
            (data,) = report_data(db)
        for tool, mem in ground_truth.results.items():
            cell = data["results"][f"demo/{tool}"]
            assert cell["records"]["n"] == ground_truth.n
            assert cell["prefix"]["n"] == PREFIX
            assert cell["records"]["counts"] == list(mem.frequencies())
            assert cell["records"]["total_steps"] == mem.total_steps
            assert float.fromhex(cell["records"]["total_cycles"]) == mem.total_cycles
            assert cell["golden_sha256"] is not None
            kept = data["provenance"]["campaigns"][f"demo/{tool}"]
            assert kept["runs"] == ground_truth.n
