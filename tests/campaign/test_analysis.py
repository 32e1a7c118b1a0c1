"""Tests for the post-campaign sensitivity analysis (source correlation)."""

import pytest

from repro.campaign import (
    GroupSensitivity,
    Outcome,
    by_bit_range,
    by_function,
    by_operand_kind,
    render_sensitivity,
    run_campaign,
)
from repro.campaign import make_tool
from repro.errors import CampaignError

from tests.conftest import DEMO_SOURCE


@pytest.fixture(scope="module")
def campaign():
    tool = make_tool("REFINE", DEMO_SOURCE, "demo")
    return run_campaign(tool, n=150, keep_records=True)


class TestByFunction:
    def test_groups_cover_all_records(self, campaign):
        groups = by_function(campaign)
        assert sum(g.total for g in groups) == campaign.n

    def test_known_functions_present(self, campaign):
        names = {g.key for g in by_function(campaign)}
        # Faults must land in the program's actual functions.
        assert names <= {"main", "dot", "fact"}
        assert "dot" in names  # the hot loop gets most faults

    def test_sorted_by_crash_rate(self, campaign):
        groups = by_function(campaign)
        rates = [g.proportion(Outcome.CRASH) for g in groups]
        assert rates == sorted(rates, reverse=True)

    def test_requires_records(self):
        tool = make_tool("PINFI", DEMO_SOURCE, "demo")
        result = run_campaign(tool, n=5)  # no keep_records
        with pytest.raises(CampaignError):
            by_function(result)


class TestByOperandKind:
    def test_kinds_valid(self, campaign):
        kinds = {g.key for g in by_operand_kind(campaign)}
        assert kinds <= {"ireg", "freg", "flags"}
        assert "ireg" in kinds and "freg" in kinds

    def test_proportions_sum_to_one(self, campaign):
        for g in by_operand_kind(campaign):
            total = sum(g.proportion(o) for o in Outcome)
            assert total == pytest.approx(1.0)


class TestByBitRange:
    def test_bucket_labels_ordered(self, campaign):
        groups = by_bit_range(campaign, buckets=8)
        assert [g.key for g in groups] == sorted(g.key for g in groups)

    def test_bucket_bounds_checked(self, campaign):
        with pytest.raises(CampaignError):
            by_bit_range(campaign, buckets=0)

    def test_high_bits_crash_more_than_low_bits(self, campaign):
        """Bit position matters: flips in high bits of integers/addresses
        crash or corrupt far more often than low-bit flips get masked."""
        groups = {g.key: g for g in by_bit_range(campaign, buckets=2)}
        low = groups.get("bits[00-31]")
        high = groups.get("bits[32-63]")
        assert low is not None and high is not None
        assert high.proportion(Outcome.BENIGN) <= low.proportion(
            Outcome.BENIGN
        ) + 0.15


class TestRendering:
    def test_render_contains_groups(self, campaign):
        groups = by_function(campaign)
        text = render_sensitivity(groups, "per-function sensitivity")
        assert "per-function sensitivity" in text
        for g in groups:
            assert g.key in text

    def test_intervals_available(self, campaign):
        g = by_function(campaign)[0]
        iv = g.interval(Outcome.CRASH)
        assert 0.0 <= iv.low <= iv.p <= iv.high <= 1.0


class TestOpcodeCorruption:
    """Paper Section 4.5 extension (``fault_model="opcode"``; off by
    default)."""

    def test_llfi_rejects_opcode_faults(self):
        with pytest.raises(CampaignError, match="OP-code"):
            make_tool("LLFI", DEMO_SOURCE, "demo", fault_model="opcode")

    def test_refine_opcode_faults_always_crash(self):
        tool = make_tool("REFINE", DEMO_SOURCE, "demo", fault_model="opcode")
        result = run_campaign(tool, n=30, keep_records=True)
        assert result.frequency(Outcome.CRASH) == 30
        for rec in result.records:
            assert rec.fault.operand_desc == "opcode"
            assert rec.trap == "illegal-instruction"

    def test_opcode_faults_hit_the_single_bit_sites(self, campaign):
        """The opcode model draws what the single-bit model draws: each
        experiment corrupts the same dynamic instruction, in its encoding
        instead of an output."""
        tool = make_tool("REFINE", DEMO_SOURCE, "demo", fault_model="opcode")
        result = run_campaign(tool, n=campaign.n, keep_records=True)
        for single, opcode in zip(campaign.records, result.records, strict=True):
            assert (opcode.fault.dynamic_index, opcode.fault.pc) == (
                single.fault.dynamic_index, single.fault.pc
            )
            assert opcode.fault.operand_desc == "opcode"

    def test_default_off(self, campaign):
        descs = {r.fault.operand_desc for r in campaign.records}
        assert "opcode" not in descs


class TestEdgeCasesAgainstStore:
    """Degenerate campaigns, cross-checked against repro.resultsdb: the
    DB query layer must return the same numbers as the in-memory path
    even at the edges (no faults at all, one outcome, empty groups)."""

    @staticmethod
    def _db_groups(result, by, **kwargs):
        from repro.resultsdb import ResultsDB, breakdown, ingest_result

        with ResultsDB() as db:
            cid = ingest_result(db, result)
            return [
                (g.key, g.counts) for g in breakdown(db, cid, by=by, **kwargs)
            ]

    def test_no_fault_records_means_empty_groups(self):
        # Fault-free records (fault=None) group nowhere: the in-memory
        # analysis skips them and the DB has no fault rows to join.
        from repro.campaign.results import CampaignResult, ExperimentRecord

        result = CampaignResult(
            workload="demo", tool="REFINE", n=3,
            counts={Outcome.BENIGN: 3},
        )
        result.records = [
            ExperimentRecord(
                seed=i, outcome=Outcome.BENIGN, cycles=1.0, steps=1,
                trap=None, exit_code=0, fault=None, index=i,
            )
            for i in range(3)
        ]
        assert by_function(result) == []
        assert self._db_groups(result, "func") == []

    def test_single_outcome_campaign(self):
        # Opcode corruption: every experiment crashes.  One group, 100%
        # crash, identical through the store.
        tool = make_tool("REFINE", DEMO_SOURCE, "demo", fault_model="opcode")
        result = run_campaign(tool, n=12, keep_records=True)
        mem = by_function(result)
        assert all(g.proportion(Outcome.CRASH) == 1.0 for g in mem)
        assert self._db_groups(result, "func") == [
            (g.key, g.counts) for g in mem
        ]
        kinds = self._db_groups(result, "kind")
        assert kinds == [("opcode", {Outcome.CRASH: 12, Outcome.SOC: 0,
                                     Outcome.BENIGN: 0})]

    def test_zero_total_wilson_interval_raises(self):
        # A group can never be empty (groups exist because a record landed
        # in them), so the zero-total case lives in the interval math —
        # both layers surface it as StatsError rather than dividing by 0.
        from repro.errors import StatsError
        from repro.stats.intervals import wilson_interval

        empty = GroupSensitivity("nothing", {o: 0 for o in Outcome})
        assert empty.total == 0
        assert empty.proportion(Outcome.CRASH) == 0.0
        with pytest.raises(StatsError):
            empty.interval(Outcome.CRASH)
        with pytest.raises(StatsError):
            wilson_interval(0, 0)

    def test_rank_sites_agrees_with_intervals(self):
        # The DB ranking's Wilson intervals equal the in-memory group
        # intervals for the same sites.
        from repro.resultsdb import ResultsDB, ingest_result, rank_sites

        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        result = run_campaign(tool, n=40, keep_records=True)
        mem = {g.key: g for g in by_operand_kind(result)}
        with ResultsDB() as db:
            cid = ingest_result(db, result)
            for site in rank_sites(db, cid, by="kind"):
                group = mem[site.key]
                assert site.total == group.total
                assert site.interval == group.interval(Outcome.CRASH)
