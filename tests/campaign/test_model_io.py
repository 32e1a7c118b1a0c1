"""Fault-model persistence: lossless v3 serialization, v2 backward
compatibility, merge validation, checkpoint guards and graceful analysis
degradation (ISSUE satellite 4)."""

from __future__ import annotations

import json
import struct

import pytest

from repro.campaign import (
    CampaignResult,
    ExperimentRecord,
    Outcome,
    by_bit_range,
    by_fault_model,
    load_matrix,
    make_tool,
    merge_results,
    result_from_dict,
    result_to_dict,
    run_campaign,
    save_matrix,
)
from repro.campaign.checkpoint import (
    CampaignCheckpoint,
    checkpoint_from_dict,
    checkpoint_to_dict,
)
from repro.campaign.io import experiment_event_fields
from repro.errors import CampaignError
from repro.machine.cpu import FaultRecord
from repro.resultsdb import DatabaseSink, ResultsDB
from repro.resultsdb.queries import to_campaign_result

from tests.conftest import DEMO_SOURCE


def _fault(**overrides) -> FaultRecord:
    fields = dict(
        tool="REFINE", dynamic_index=3, pc=7, func="main", block="entry",
        instr_text="add r1, r2", operand_index=0, operand_desc="ireg:1",
        bit=5, value_before=1, value_after=33,
    )
    fields.update(overrides)
    return FaultRecord(**fields)


def _result(fault, fault_model="single-bit") -> CampaignResult:
    record = ExperimentRecord(
        seed=123, outcome=Outcome.SOC, cycles=10.5, steps=42,
        trap=None, exit_code=0, fault=fault, index=0,
    )
    return CampaignResult(
        workload="demo", tool="REFINE", n=1,
        counts={Outcome.CRASH: 0, Outcome.SOC: 1, Outcome.BENIGN: 0},
        total_cycles=10.5, total_steps=42, golden_output=("1",),
        total_candidates=99, records=[record], fault_model=fault_model,
    )


class TestV3Roundtrip:
    def test_model_fields_roundtrip_losslessly(self):
        fault = _fault(
            model="multi-bit:k=3", bits=(5, 17, 60), address=None, dwell=1,
        )
        restored = result_from_dict(result_to_dict(_result(fault, "multi-bit:k=3")))
        back = restored.records[0].fault
        assert back.model == "multi-bit:k=3"
        assert back.bits == (5, 17, 60)
        assert back.dwell == 1
        assert restored.fault_model == "multi-bit:k=3"

    def test_bitless_fault_roundtrips(self):
        """cache-line faults have no single bit index (bit=None)."""
        fault = _fault(
            bit=None, model="cache-line", bits=(9,), address=0x1040,
            value_before=None, value_after=None, operand_desc="line:0x1040",
        )
        back = result_from_dict(result_to_dict(_result(fault, "cache-line")))
        restored = back.records[0].fault
        assert restored.bit is None
        assert restored.address == 0x1040
        assert restored.bits == (9,)

    def test_dwell_roundtrips(self):
        fault = _fault(model="stuck-at:dwell=128", dwell=128)
        back = result_from_dict(result_to_dict(_result(fault)))
        assert back.records[0].fault.dwell == 128

    def test_real_campaign_roundtrip(self, tmp_path):
        tool = make_tool("REFINE", DEMO_SOURCE, "demo", fault_model="multi-bit")
        original = run_campaign(tool, n=6, keep_records=True)
        path = tmp_path / "m.json"
        save_matrix({("demo", "REFINE"): original}, path)
        restored = load_matrix(path)[("demo", "REFINE")]
        assert restored.fault_model == "multi-bit"
        for a, b in zip(original.records, restored.records):
            assert a.outcome == b.outcome
            if a.fault is not None:
                assert a.fault.model == b.fault.model
                assert a.fault.bits == b.fault.bits


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _nan(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class TestNaNPayloads:
    """A flip into a NaN's payload survives every path a fault value takes:
    the saved matrix, the wire format and the results database.
    ``float.hex()`` alone prints every NaN as ``nan``."""

    SIGNALLING = 0x7FF0BA2070899998
    QUIET = 0x7FF8000000C0FFEE

    def _nan_result(self) -> CampaignResult:
        fault = _fault(
            operand_desc="freg:1", value_before=_nan(self.QUIET),
            value_after=_nan(self.SIGNALLING),
        )
        return _result(fault)

    def _assert_payloads(self, fault: FaultRecord) -> None:
        assert hex(_bits(fault.value_after)) == hex(self.SIGNALLING)
        assert hex(_bits(fault.value_before)) == hex(self.QUIET)

    def test_save_and_load_matrix(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix({("demo", "REFINE"): self._nan_result()}, path)
        restored = load_matrix(path)[("demo", "REFINE")]
        self._assert_payloads(restored.records[0].fault)

    def test_wire_format(self):
        wire = json.loads(json.dumps(result_to_dict(self._nan_result())))
        self._assert_payloads(result_from_dict(wire).records[0].fault)

    def test_results_database(self):
        result = self._nan_result()
        with ResultsDB() as db:
            sink = DatabaseSink(db)
            cell = dict(workload="demo", tool="REFINE")
            sink.emit("cell_start", n=1, base_seed=7, **cell)
            sink.emit(
                "experiment", **cell,
                **experiment_event_fields(result.records[0]),
            )
            sink.emit("cell_finish", counts={"soc": 1}, **cell)
            sink.close()
            (cid,) = [row[0] for row in db.execute("SELECT id FROM campaigns")]
            restored = to_campaign_result(db, cid)
        self._assert_payloads(restored.records[0].fault)

    def test_files_without_the_pattern_still_read(self):
        payload = result_to_dict(self._nan_result())
        for side in ("value_before", "value_after"):
            del payload["records"][0]["fault"][side]["bits"]
        fault = result_from_dict(payload).records[0].fault
        assert fault.value_after != fault.value_after  # still a NaN

    def test_other_floats_keep_their_encoding(self):
        fault = _fault(value_before=1.5, value_after=float("-inf"))
        record = result_to_dict(_result(fault))["records"][0]["fault"]
        assert record["value_before"] == {"kind": "float", "hex": (1.5).hex()}
        assert record["value_after"] == {"kind": "float", "hex": "-inf"}


class TestV2Compat:
    """A version-2 log (pre-fault-models) loads with single-bit defaults."""

    def _v2_payload(self):
        payload = {
            "version": 3,
            "cells": [result_to_dict(_result(_fault()))],
        }
        # Rewrite as the v2 format: no model fields anywhere.
        payload["version"] = 2
        cell = payload["cells"][0]
        cell.pop("fault_model")
        for rec in cell["records"]:
            for key in ("model", "bits", "address", "dwell"):
                rec["fault"].pop(key)
        return payload

    def test_v2_log_loads_with_single_bit_defaults(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(self._v2_payload()))
        restored = load_matrix(path)[("demo", "REFINE")]
        assert restored.fault_model == "single-bit"
        fault = restored.records[0].fault
        assert fault.model == "single-bit"
        assert fault.bits is None
        assert fault.address is None
        assert fault.dwell == 1
        assert fault.bit == 5  # the one field v2 did carry

    def test_unreadable_version_rejected(self, tmp_path):
        path = tmp_path / "v99.json"
        payload = self._v2_payload()
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(CampaignError, match="unsupported"):
            load_matrix(path)


class TestMergeValidation:
    def test_mixed_model_parts_refused(self):
        a = _result(_fault(), "single-bit")
        b = _result(_fault(model="multi-bit"), "multi-bit")
        with pytest.raises(CampaignError, match="fault models disagree"):
            merge_results([a, b])

    def test_same_model_parts_merge(self):
        a = _result(_fault(model="multi-bit"), "multi-bit")
        b = _result(_fault(model="multi-bit"), "multi-bit")
        merged = merge_results([a, b], indices=[[0], [1]])
        assert merged.fault_model == "multi-bit"
        assert merged.counts[Outcome.SOC] == 2


class TestCheckpointGuard:
    def test_fault_model_mismatch_refused(self):
        ckpt = CampaignCheckpoint(
            workload="demo", tool="REFINE", n=10, base_seed=1,
            keep_records=False, fault_model="multi-bit:k=3",
        )
        with pytest.raises(CampaignError, match="fault_model"):
            ckpt.matches("demo", "REFINE", 10, 1, False, "single-bit")
        ckpt.matches("demo", "REFINE", 10, 1, False, "multi-bit:k=3")

    def test_dict_roundtrip_keeps_model(self):
        ckpt = CampaignCheckpoint(
            workload="demo", tool="REFINE", n=10, base_seed=1,
            keep_records=False, fault_model="stuck-at:dwell=8",
        )
        back = checkpoint_from_dict(checkpoint_to_dict(ckpt))
        assert back.fault_model == "stuck-at:dwell=8"

    def test_pre_model_checkpoint_dict_defaults_to_single_bit(self):
        ckpt = CampaignCheckpoint(
            workload="demo", tool="REFINE", n=10, base_seed=1,
            keep_records=False,
        )
        data = checkpoint_to_dict(ckpt)
        data.pop("fault_model")
        assert checkpoint_from_dict(data).fault_model == "single-bit"


class TestAnalysisDegradation:
    def test_by_bit_range_handles_bitless_faults(self):
        result = _result(_fault(bit=None, model="cache-line", bits=(3,)))
        groups = by_bit_range(result)
        assert "bits[n/a]" in {g.key for g in groups}

    def test_by_fault_model_groups(self):
        result = _result(_fault(model="multi-bit:k=3"))
        result.records.append(
            ExperimentRecord(
                seed=9, outcome=Outcome.BENIGN, cycles=1.0, steps=4,
                trap=None, exit_code=0, fault=_fault(model="single-bit"),
                index=1,
            )
        )
        groups = by_fault_model(result)
        assert {g.key for g in groups} == {"multi-bit:k=3", "single-bit"}
