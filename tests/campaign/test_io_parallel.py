"""Tests for campaign persistence and the multi-process runner."""

import dataclasses
import json
import math
import sys

import pytest

from repro.campaign import (
    CampaignResult,
    ExperimentRecord,
    Outcome,
    load_matrix,
    make_tool,
    merge_results,
    result_from_dict,
    result_to_dict,
    run_campaign,
    run_campaign_parallel,
    run_matrix,
    save_matrix,
)
from repro.errors import CampaignError
from repro.machine.cpu import FaultRecord

from tests.conftest import DEMO_SOURCE


def _synthetic_result(value_before, value_after):
    """One-record result with chosen fault values, for round-trip checks."""
    fault = FaultRecord(
        tool="REFINE", dynamic_index=3, pc=7, func="main", block="entry",
        instr_text="add r1, r2", operand_index=0, operand_desc="ireg:1",
        bit=5, value_before=value_before, value_after=value_after,
    )
    record = ExperimentRecord(
        seed=123, outcome=Outcome.SOC, cycles=10.5, steps=42,
        trap=None, exit_code=0, fault=fault, index=0,
    )
    result = CampaignResult(
        workload="demo", tool="REFINE", n=1,
        counts={Outcome.CRASH: 0, Outcome.SOC: 1, Outcome.BENIGN: 0},
        total_cycles=10.5, total_steps=42, golden_output=("1",),
        total_candidates=99, records=[record],
    )
    return result


@pytest.fixture(scope="module")
def small_matrix():
    return run_matrix({"demo": DEMO_SOURCE}, ("REFINE", "PINFI"), n=12)


class TestSerialization:
    def test_result_roundtrip(self, small_matrix):
        original = small_matrix[("demo", "REFINE")]
        restored = result_from_dict(result_to_dict(original))
        assert restored.workload == original.workload
        assert restored.counts == original.counts
        assert restored.total_cycles == original.total_cycles
        assert restored.golden_output == original.golden_output

    def test_records_roundtrip(self):
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        original = run_campaign(tool, n=6, keep_records=True)
        restored = result_from_dict(result_to_dict(original))
        assert len(restored.records) == 6
        for a, b in zip(original.records, restored.records):
            assert a.seed == b.seed
            assert a.outcome == b.outcome
            assert a.fault.pc == b.fault.pc
            assert a.fault.bit == b.fault.bit

    def test_matrix_file_roundtrip(self, small_matrix, tmp_path):
        path = tmp_path / "matrix.json"
        save_matrix(small_matrix, path)
        restored = load_matrix(path)
        assert set(restored) == set(small_matrix)
        for key in small_matrix:
            assert restored[key].counts == small_matrix[key].counts

    @pytest.mark.parametrize(
        "before,after",
        [
            (-42, 1 << 62),                      # plain ints
            (0.1, -2.5e300),                     # floats with no exact repr
            (float("inf"), float("-inf")),       # non-finite floats
            ("add r1, r2", "<invalid opcode>"),  # opcode-corruption strings
            (None, None),
        ],
    )
    def test_fault_values_roundtrip_exactly(self, before, after, tmp_path):
        """The headline bugfix: values must come back with identical type
        and bits, not as repr() strings."""
        original = _synthetic_result(before, after)
        for restored in (
            result_from_dict(result_to_dict(original)),
            self._file_roundtrip(original, tmp_path),
        ):
            fault = restored.records[0].fault
            assert fault.value_before == before
            assert fault.value_after == after
            assert type(fault.value_before) is type(before)
            assert type(fault.value_after) is type(after)

    def test_nan_fault_value_roundtrips(self, tmp_path):
        restored = self._file_roundtrip(
            _synthetic_result(float("nan"), 1.0), tmp_path
        )
        assert math.isnan(restored.records[0].fault.value_before)
        assert restored.records[0].fault.value_after == 1.0

    @staticmethod
    def _file_roundtrip(result, tmp_path):
        path = tmp_path / "roundtrip.json"
        save_matrix({(result.workload, result.tool): result}, path)
        return load_matrix(path)[(result.workload, result.tool)]

    def test_real_campaign_fault_values_roundtrip(self, tmp_path):
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        original = run_campaign(tool, n=8, keep_records=True)
        path = tmp_path / "m.json"
        save_matrix({("demo", "REFINE"): original}, path)
        restored = load_matrix(path)[("demo", "REFINE")]
        for a, b in zip(original.records, restored.records):
            assert dataclasses.asdict(a.fault) == dataclasses.asdict(b.fault)
            assert a.index == b.index

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CampaignError):
            load_matrix(path)

    @pytest.mark.parametrize("version", [1, 99])
    def test_load_rejects_wrong_version(self, tmp_path, version):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": version, "cells": []}))
        with pytest.raises(CampaignError, match="version"):
            load_matrix(path)


class TestMerge:
    def test_merge_counts_add(self, small_matrix):
        a = small_matrix[("demo", "REFINE")]
        merged = merge_results([a, a])
        assert merged.n == 2 * a.n
        for o in Outcome:
            assert merged.frequency(o) == 2 * a.frequency(o)

    def test_merge_rejects_mixed_tools(self, small_matrix):
        with pytest.raises(CampaignError):
            merge_results(
                [small_matrix[("demo", "REFINE")],
                 small_matrix[("demo", "PINFI")]]
            )

    def test_merge_rejects_empty(self):
        with pytest.raises(CampaignError):
            merge_results([])

    def test_merge_rejects_mismatched_candidates(self, small_matrix):
        """Parts produced under different FIConfig filters disagree on
        total_candidates and must not merge silently."""
        a = small_matrix[("demo", "REFINE")]
        import dataclasses as dc

        b = dc.replace(a, total_candidates=a.total_candidates + 1)
        with pytest.raises(CampaignError, match="total_candidates"):
            merge_results([a, b])


class TestParallelRunner:
    def test_matches_sequential_exactly(self):
        """Seeds derive from global experiment indices, so worker count must
        not change any outcome."""
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        sequential = run_campaign(tool, n=16, base_seed=99)
        parallel = run_campaign_parallel(
            "REFINE", DEMO_SOURCE, "demo", n=16, workers=3, base_seed=99
        )
        assert parallel.counts == sequential.counts
        assert parallel.total_cycles == sequential.total_cycles
        assert parallel.n == 16

    def test_single_worker_path(self):
        result = run_campaign_parallel(
            "PINFI", DEMO_SOURCE, "demo", n=5, workers=1
        )
        assert result.n == 5

    def test_more_workers_than_experiments(self):
        result = run_campaign_parallel(
            "PINFI", DEMO_SOURCE, "demo", n=3, workers=8
        )
        assert result.n == 3

    def test_validation(self):
        with pytest.raises(CampaignError):
            run_campaign_parallel("REFINE", DEMO_SOURCE, "demo", n=0)
        with pytest.raises(CampaignError):
            run_campaign_parallel("REFINE", DEMO_SOURCE, "demo", n=5, workers=0)
        with pytest.raises(CampaignError):
            run_campaign_parallel("GDB", DEMO_SOURCE, "demo", n=5)

    def test_keep_records_matches_sequential(self):
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        sequential = run_campaign(tool, n=12, base_seed=3, keep_records=True)
        parallel = run_campaign_parallel(
            "REFINE", DEMO_SOURCE, "demo", n=12, workers=3, base_seed=3,
            keep_records=True,
        )
        assert len(parallel.records) == 12
        assert [r.index for r in parallel.records] == list(range(12))
        for a, b in zip(sequential.records, parallel.records):
            assert (a.seed, a.outcome, a.cycles, a.steps) == (
                b.seed, b.outcome, b.cycles, b.steps
            )
            assert a.fault.pc == b.fault.pc
            assert a.fault.value_before == b.fault.value_before

    def test_opcode_faults_matches_sequential(self):
        """The parallel runner must run the same fault model as the
        sequential one under OP-code corruption."""
        tool = make_tool("REFINE", DEMO_SOURCE, "demo", fault_model="opcode")
        sequential = run_campaign(tool, n=12, base_seed=11, keep_records=True)
        parallel = run_campaign_parallel(
            "REFINE", DEMO_SOURCE, "demo", n=12, workers=3, base_seed=11,
            keep_records=True, fault_model="opcode",
        )
        assert parallel.counts == sequential.counts
        assert [r.fault for r in parallel.records] == [
            r.fault for r in sequential.records
        ]
        assert all(r.fault.operand_desc == "opcode" for r in parallel.records)

    def test_opcode_faults_rejected_for_llfi(self):
        with pytest.raises(CampaignError, match="instruction encoding"):
            run_campaign_parallel(
                "LLFI", DEMO_SOURCE, "demo", n=5, fault_model="opcode"
            )

    def test_progress_reports_chunk_completions(self):
        seen = []
        run_campaign_parallel(
            "REFINE", DEMO_SOURCE, "demo", n=8, workers=2, chunk_size=2,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert sorted(seen) == [(2, 8), (4, 8), (6, 8), (8, 8)]

    def test_more_workers_than_cores_report_each_task_once(self):
        """The coordinator folds on its threads and the caller hears of each
        task on its own: under contention no report is lost or doubled."""
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        sequential = run_campaign(tool, n=24, base_seed=5)
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            parallel = run_campaign_parallel(
                "REFINE", DEMO_SOURCE, "demo", n=24, workers=4, base_seed=5,
                chunk_size=1, progress=lambda done, n: seen.append(done),
            )
        finally:
            sys.setswitchinterval(interval)
        assert seen == list(range(1, 25))
        assert parallel.counts == sequential.counts
        assert parallel.total_cycles == sequential.total_cycles


class TestMatrixRecords:
    def test_run_matrix_keeps_records_when_asked(self):
        matrix = run_matrix(
            {"demo": DEMO_SOURCE}, ("REFINE",), n=4, keep_records=True
        )
        records = matrix[("demo", "REFINE")].records
        assert len(records) == 4
        assert all(r.fault is not None for r in records)

    def test_run_matrix_records_survive_save(self, tmp_path):
        matrix = run_matrix(
            {"demo": DEMO_SOURCE}, ("REFINE",), n=4, keep_records=True
        )
        path = tmp_path / "matrix.json"
        save_matrix(matrix, path)
        restored = load_matrix(path)
        assert len(restored[("demo", "REFINE")].records) == 4

    def test_run_matrix_default_drops_records(self):
        matrix = run_matrix({"demo": DEMO_SOURCE}, ("REFINE",), n=4)
        assert matrix[("demo", "REFINE")].records == []

    def test_run_matrix_rejects_workers_below_one(self):
        for workers in (0, -3):
            with pytest.raises(CampaignError, match="workers must be positive"):
                run_matrix(
                    {"demo": DEMO_SOURCE}, ("REFINE",), n=4, workers=workers
                )

    def test_run_matrix_parallel_workers_match_sequential(self):
        seq = run_matrix({"demo": DEMO_SOURCE}, ("REFINE",), n=10, base_seed=2)
        par = run_matrix(
            {"demo": DEMO_SOURCE}, ("REFINE",), n=10, base_seed=2, workers=2
        )
        assert par[("demo", "REFINE")].counts == seq[("demo", "REFINE")].counts


class TestMergeDistributedParts:
    """Merging with explicit index sets — the distributed coordinator's
    aggregation path, where chunks arrive out of order, possibly twice."""

    def _part(self, counts, candidates=99):
        n = sum(counts.values())
        return CampaignResult(
            workload="demo", tool="REFINE", n=n,
            counts={o: counts.get(o, 0) for o in Outcome},
            total_cycles=float(10 * n), total_steps=42 * n,
            golden_output=("1",), total_candidates=candidates,
        )

    def test_out_of_order_chunks_equal_sequential(self):
        from repro.campaign import CampaignSpec, run_slice

        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        seq = run_campaign(tool, n=12, keep_records=True)
        chunks = [tuple(range(8, 12)), tuple(range(0, 4)), tuple(range(4, 8))]
        spec = CampaignSpec.for_tool(tool, n=12, keep_records=True)
        parts = [run_slice(spec, chunk) for chunk in chunks]
        merged = merge_results(parts, indices=chunks)
        merged.records.sort(key=lambda rec: rec.index)
        assert result_to_dict(merged) == result_to_dict(seq)

    def test_duplicate_chunk_is_dropped(self):
        p0 = self._part({Outcome.BENIGN: 2})
        p1 = self._part({Outcome.CRASH: 1, Outcome.SOC: 1})
        merged = merge_results(
            [p0, p1, p0], indices=[(0, 1), (2, 3), (0, 1)]
        )
        assert merged.n == 4
        assert merged.frequency(Outcome.BENIGN) == 2
        assert merged.frequency(Outcome.CRASH) == 1
        assert merged.total_steps == p0.total_steps + p1.total_steps

    def test_duplicate_of_every_part_leaves_one_copy(self):
        p0 = self._part({Outcome.BENIGN: 2})
        merged = merge_results([p0, p0, p0], indices=[(0, 1)] * 3)
        assert merged.n == 2
        assert merged.frequency(Outcome.BENIGN) == 2

    def test_partial_overlap_raises(self):
        p0 = self._part({Outcome.BENIGN: 2})
        p1 = self._part({Outcome.CRASH: 2})
        with pytest.raises(CampaignError, match="partially overlap"):
            merge_results([p0, p1], indices=[(0, 1), (1, 2)])

    def test_part_index_tally_mismatch_raises(self):
        p0 = self._part({Outcome.BENIGN: 2})
        with pytest.raises(CampaignError, match="index set has 3"):
            merge_results([p0], indices=[(0, 1, 2)])

    def test_index_set_count_mismatch_raises(self):
        p0 = self._part({Outcome.BENIGN: 2})
        with pytest.raises(CampaignError, match="1 index sets"):
            merge_results([p0, p0], indices=[(0, 1)])

    def test_total_candidates_disagreement_raises(self):
        p0 = self._part({Outcome.BENIGN: 2}, candidates=99)
        p1 = self._part({Outcome.CRASH: 2}, candidates=42)
        with pytest.raises(CampaignError, match="total_candidates disagree"):
            merge_results([p0, p1], indices=[(0, 1), (2, 3)])

    def test_without_indices_duplicates_are_not_detected(self):
        # The legacy path has no index information: callers who merge the
        # same part twice double-count, which is why the distributed
        # coordinator always passes indices.
        p0 = self._part({Outcome.BENIGN: 2})
        merged = merge_results([p0, p0])
        assert merged.n == 4
