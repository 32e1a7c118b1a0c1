"""The published numbers (``results/full_campaign*.json``, EXPERIMENTS.md)
against today's code, at tier-1 cost.

The whole matrix at n = 1068 through the service is the slow ``paper``
job (``tests/test_paper.py``).  Here: every binary fact and the first
``PREFIX`` records of every cell are re-derived — index i's record is a
pure function of (seed, program, tool, i), so an n = ``PREFIX`` campaign
*is* the published prefix — the paper's claims are asserted on the
published files themselves, and EXPERIMENTS.md's generated blocks are the
renderer's output over them.  No chi-squared at small n: it has no power.
"""

import json
from pathlib import Path

import pytest

from repro.campaign import DEFAULT_SEED, OUTCOME_ORDER, PAPER_SAMPLES
from repro.cli import campaign_main
from repro.errors import ResultsDBError
from repro.fi import TOOL_ORDER
from repro.resultsdb import (
    ResultsDB,
    generated_blocks,
    ingest_results_file,
    list_campaigns,
    matrix_from_db,
    render_markdown,
    report_data,
    splice_blocks,
)
from repro.resultsdb.report import PREFIX
from repro.workloads import workload_names

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
FILES = {
    DEFAULT_SEED: ROOT / "results" / "full_campaign.json",
    0xA11CE: ROOT / "results" / "full_campaign_seed2.json",
}
CELLS = [f"{w}/{t}" for w in workload_names() for t in TOOL_ORDER]


@pytest.fixture(scope="module", params=FILES, ids=hex)
def published(request):
    data = json.loads(FILES[request.param].read_text())
    assert data["base_seed"] == request.param and data["n"] == PAPER_SAMPLES
    assert list(data["results"]) == CELLS
    return data


@pytest.fixture(scope="module")
def prefix(tmp_path_factory):
    """All 42 cells at n = PREFIX, default seed, the way a user runs them:
    ``refine-campaign --db`` then the report's data over that store."""
    store = str(tmp_path_factory.mktemp("prefix") / "run.sqlite")
    assert campaign_main(["-n", str(PREFIX), "-q", "--db", store]) == 0
    with ResultsDB(store) as db:
        (matrix,) = report_data(db)
    return matrix["results"]


def binary_mismatches(published: dict, cells: dict) -> list[str]:
    """Published cells whose seed-independent facts — candidate population,
    golden output — are not what today's compiled binary reports."""
    return [
        f"{key}: {field} {was[field]} != {cells[key][field]}"
        for key, was in published["results"].items()
        for field in ("total_candidates", "golden_sha256")
        if was[field] != cells[key][field]
    ]


class TestAgainstTodaysCode:
    def test_binary_facts(self, published, prefix):
        assert binary_mismatches(published, prefix) == []

    def test_prefix_records(self, prefix, capsys):
        capsys.readouterr()  # the campaign's CSV
        published = json.loads(FILES[DEFAULT_SEED].read_text())["results"]
        for key in CELLS:
            assert prefix[key]["records"] == published[key]["prefix"], key

    def test_prefix_equals_the_perfbench_pin(self):
        # two pins of one fact, in one form (perfbench/verify.py::summarize)
        pins = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        pinned = pins["seeds"][f"{DEFAULT_SEED:#x}"]
        published = json.loads(FILES[DEFAULT_SEED].read_text())["results"]
        for key in CELLS:
            assert published[key]["prefix"] == pinned[f"{key}/single-bit/{PREFIX}"]


class TestPaperClaims:
    """Asserted on the published files: they are the n = 1068 result."""

    def test_cells_are_whole(self, published):
        for key, cell in published["results"].items():
            assert cell["crash"] + cell["soc"] + cell["benign"] == PAPER_SAMPLES
            assert cell["records"]["n"] == PAPER_SAMPLES, key
            assert cell["records"]["counts"] == [
                cell["crash"], cell["soc"], cell["benign"]
            ]
            assert float.fromhex(cell["records"]["total_cycles"]) == cell["total_cycles"]

    def test_table5_verdicts(self, published):
        significant = {
            pair: [k.split("/")[0] for k, t in published["chi2"].items()
                   if k.endswith(pair) and t["significant"]]
            for pair in ("LLFI-vs-PINFI", "REFINE-vs-PINFI")
        }
        assert significant["LLFI-vs-PINFI"] == workload_names()  # 14/14
        # REFINE and PINFI sample one population: rejections are the
        # alpha = 0.05 false alarms of 14 independent tests, SP at seed 1
        assert significant["REFINE-vs-PINFI"] == (
            ["SP"] if published["base_seed"] == DEFAULT_SEED else []
        )

    def test_figure5_shape(self, published):
        ratios = published["cycle_ratios"]
        assert list(ratios["programs"]) == workload_names()
        for program, by_tool in ratios["programs"].items():
            assert by_tool["REFINE"] < by_tool["LLFI"], program
            assert 0.7 < by_tool["REFINE"] < 1.8, program
        assert 0.7 < ratios["total"]["REFINE"] < 1.8 < ratios["total"]["LLFI"]

    def test_llfi_sees_a_fraction_of_the_candidates(self, published):
        for program, c in published["candidates"].items():
            assert 0.25 < c["ratio"] < 0.5, program


class TestTwoSeedsOneStore:
    """The summary import keys the campaign row on the file's base seed
    (it used to drop it: seed 2 silently overwrote seed 1)."""

    @pytest.fixture(scope="class")
    def db(self):
        with ResultsDB() as db:
            for path in FILES.values():
                assert ingest_results_file(db, path)["campaigns"] == len(CELLS)
            yield db

    def test_both_files_survive(self, db):
        infos = list_campaigns(db)
        assert len(infos) == 2 * len(CELLS)
        first = json.loads(FILES[DEFAULT_SEED].read_text())["results"]
        amg = next(i for i in infos if (i.workload, i.tool) == ("AMG2013", "LLFI"))
        assert amg.base_seed == DEFAULT_SEED
        assert [amg.counts[o] for o in OUTCOME_ORDER] == [
            first["AMG2013/LLFI"][o.value] for o in OUTCOME_ORDER
        ]

    def test_a_seed_selects_one_matrix(self, db):
        with pytest.raises(ResultsDBError, match="base_seed"):
            matrix_from_db(db)
        assert len(matrix_from_db(db, base_seed=0xA11CE)) == len(CELLS)
        assert [m["base_seed"] for m in report_data(db)] == list(FILES)
        (second,) = report_data(db, base_seed=0xA11CE)
        published = json.loads(FILES[0xA11CE].read_text())
        for part in ("chi2", "verdicts", "cycle_ratios", "candidates"):
            assert second[part] == published[part]  # file -> store -> report

    def test_a_legacy_file_keeps_the_unknown_seed(self, tmp_path):
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({
            "n": 8, "results": {"EP/REFINE": {"crash": 1, "soc": 2, "benign": 5}},
        }))
        with ResultsDB() as db:
            ingest_results_file(db, legacy)
            (info,) = list_campaigns(db)
        assert (info.base_seed, info.fault_model) == (-1, None)


def spliced_experiments() -> str:
    """EXPERIMENTS.md with its generated blocks refilled from the published
    files (``make experiments-md`` writes this back)."""
    with ResultsDB() as db:
        for path in FILES.values():
            ingest_results_file(db, path)
        blocks = generated_blocks(render_markdown(report_data(db)))
    return splice_blocks(EXPERIMENTS.read_text(encoding="utf-8"), blocks)


def test_experiments_md_embeds_the_renderers_output():
    text = EXPERIMENTS.read_text(encoding="utf-8")
    embedded = set(generated_blocks(text))
    assert {"table4", "table5", "table6", "figure5", "candidates"} <= embedded
    assert spliced_experiments() == text, "run `make experiments-md`"
