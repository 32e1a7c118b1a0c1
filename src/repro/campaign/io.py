"""Campaign persistence: JSON serialization of results and fault logs.

Large FI studies run in batches (the paper's 44,856 experiments ran on a
cluster); results must round-trip losslessly so analysis and reporting can
happen offline.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Iterable

from repro.campaign.classify import Outcome
from repro.campaign.results import CampaignResult, ExperimentRecord
from repro.errors import CampaignError
from repro.machine.cpu import FaultRecord

FORMAT_VERSION = 3

#: Older formats we can still read.  Version 2 predates pluggable fault models: faults carried only a single ``bit``
#: and no model/mask/address/dwell fields; loading fills the single-bit
#: defaults.  Version 3 adds those fields plus the campaign's
#: ``fault_model`` spec.
_READABLE_VERSIONS = (2, FORMAT_VERSION)


def _value_to_dict(value: object) -> dict | None:
    """Tag-encode a fault value so it round-trips losslessly through JSON.

    Floats travel as ``float.hex()`` strings: bit-exact, and safe for
    ``nan``/``inf`` which bare JSON numbers cannot represent portably.
    ``float.hex()`` prints every NaN as ``nan``, so a NaN also carries its
    64-bit pattern (``bits``, hex), which a reader prefers: a bit flip that
    lands in a NaN's payload survives the round trip.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise CampaignError(
            f"cannot serialize fault value of type {type(value).__name__}"
        )
    if isinstance(value, int):
        return {"kind": "int", "value": value}
    if isinstance(value, float):
        if math.isnan(value):
            (bits,) = struct.unpack("<Q", struct.pack("<d", value))
            return {"kind": "float", "hex": value.hex(), "bits": hex(bits)}
        return {"kind": "float", "hex": value.hex()}
    return {"kind": "str", "value": value}


def _value_from_dict(data: object) -> object:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise CampaignError(f"malformed fault value {data!r}")
    kind = data.get("kind")
    if kind == "int":
        return int(data["value"])
    if kind == "float":
        if "bits" in data:  # a NaN, payload and all
            bits = struct.pack("<Q", int(data["bits"], 16))
            return struct.unpack("<d", bits)[0]
        return float.fromhex(data["hex"])
    if kind == "str":
        return data["value"]
    raise CampaignError(f"unknown fault value kind {kind!r}")


def _fault_to_dict(fault: FaultRecord | None) -> dict | None:
    if fault is None:
        return None
    return {
        "tool": fault.tool,
        "dynamic_index": fault.dynamic_index,
        "pc": fault.pc,
        "func": fault.func,
        "block": fault.block,
        "instr_text": fault.instr_text,
        "operand_index": fault.operand_index,
        "operand_desc": fault.operand_desc,
        "bit": fault.bit,
        "value_before": _value_to_dict(fault.value_before),
        "value_after": _value_to_dict(fault.value_after),
        # v3 fault-model fields (repro.fi.models): lossless for multi-bit
        # masks, memory addresses and stuck-at dwell windows.
        "model": fault.model,
        "bits": None if fault.bits is None else list(fault.bits),
        "address": fault.address,
        "dwell": fault.dwell,
    }


def _fault_from_dict(data: dict | None) -> FaultRecord | None:
    if data is None:
        return None
    bits = data.get("bits")
    return FaultRecord(
        tool=data["tool"],
        dynamic_index=data["dynamic_index"],
        pc=data["pc"],
        func=data["func"],
        block=data["block"],
        instr_text=data["instr_text"],
        operand_index=data["operand_index"],
        operand_desc=data["operand_desc"],
        bit=data["bit"],
        value_before=_value_from_dict(data["value_before"]),
        value_after=_value_from_dict(data["value_after"]),
        # v2 logs predate fault models: single-bit defaults.
        model=data.get("model", "single-bit"),
        bits=None if bits is None else tuple(bits),
        address=data.get("address"),
        dwell=data.get("dwell", 1),
    )


def encode_indices(indices: Iterable[int]) -> list[list[int]]:
    """Run-length encode experiment indices, in the order given, as
    ``[start, stop)`` ranges.  The one index code of checkpoint files and
    lease frames: a thousand contiguous experiments are a few bytes."""
    ranges: list[list[int]] = []
    for i in indices:
        if ranges and ranges[-1][1] == i:
            ranges[-1][1] = i + 1
        else:
            ranges.append([i, i + 1])
    return ranges


def decode_indices(ranges: list[list[int]], n: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_indices` for a cell of ``n`` experiments.

    The ranges come from a file or a peer, so each is checked *before* it
    is materialised: one that runs backwards, leaves ``[0, n)`` or takes
    the total past ``n`` raises :class:`ValueError`, which the caller
    reports as its own malformed-input error.
    """
    out: list[int] = []
    for start, stop in ranges:
        if not 0 <= start <= stop <= n or len(out) + stop - start > n:
            raise ValueError(
                f"index range [{start}, {stop}) does not fit a cell of "
                f"{n} experiments"
            )
        out.extend(range(start, stop))
    return tuple(out)


def experiment_event_fields(record: ExperimentRecord) -> dict:
    """The ``experiment`` telemetry event's per-record payload, and a
    record as :func:`result_to_dict` saves it.

    One definition, emitted from one place (the cell ledger,
    :mod:`repro.campaign.cell`), so every executor writes the same event
    schema and :mod:`repro.resultsdb` can ingest any stream.
    """
    return {
        "index": record.index,
        "seed": record.seed,
        "outcome": record.outcome.value,
        "cycles": record.cycles,
        "steps": record.steps,
        "trap": record.trap,
        "exit_code": record.exit_code,
        "engine": record.engine,
        "snapshot_hit": record.snapshot_hit,
        "fault": _fault_to_dict(record.fault),
    }


#: Optional statistic blocks piggy-backed on a partial result by the slice
#: runners (plain JSON dicts), forwarded so the distributed coordinator can
#: aggregate worker-side phase/scheduler telemetry.
_RESULT_STATS_ATTRS = ("phase_times", "scheduler_stats")


def result_to_dict(result: CampaignResult) -> dict:
    """Serialize one campaign result (records included when kept)."""
    data = {
        "workload": result.workload,
        "tool": result.tool,
        "n": result.n,
        "counts": {o.value: result.frequency(o) for o in Outcome},
        "total_cycles": result.total_cycles,
        "total_steps": result.total_steps,
        "golden_output": list(result.golden_output),
        "total_candidates": result.total_candidates,
        "fault_model": result.fault_model,
        "records": [experiment_event_fields(rec) for rec in result.records],
    }
    for extra in _RESULT_STATS_ATTRS:
        value = getattr(result, extra, None)
        if value is not None:
            data[extra] = value
    return data


def result_from_dict(data: dict) -> CampaignResult:
    result = CampaignResult(
        workload=data["workload"],
        tool=data["tool"],
        n=data["n"],
        counts={Outcome(k): v for k, v in data["counts"].items()},
        total_cycles=data["total_cycles"],
        total_steps=data["total_steps"],
        golden_output=tuple(data["golden_output"]),
        total_candidates=data["total_candidates"],
        fault_model=data.get("fault_model", "single-bit"),
    )
    for rec in data.get("records", ()):
        result.records.append(
            ExperimentRecord(
                index=rec.get("index", -1),
                seed=rec["seed"],
                outcome=Outcome(rec["outcome"]),
                cycles=rec["cycles"],
                steps=rec["steps"],
                trap=rec["trap"],
                exit_code=rec["exit_code"],
                engine=rec.get("engine"),
                snapshot_hit=rec.get("snapshot_hit"),
                fault=_fault_from_dict(rec["fault"]),
            )
        )
    for extra in _RESULT_STATS_ATTRS:
        if extra in data:
            setattr(result, extra, data[extra])
    return result


def save_matrix(
    matrix: dict[tuple[str, str], CampaignResult], path: str | Path
) -> None:
    """Persist a campaign matrix to a JSON file."""
    payload = {
        "version": FORMAT_VERSION,
        "cells": [result_to_dict(res) for res in matrix.values()],
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def check_version(payload: dict) -> None:
    """Raise :class:`CampaignError` unless a :func:`save_matrix` payload is
    in a version this module reads."""
    if payload.get("version") not in _READABLE_VERSIONS:
        raise CampaignError(
            f"unsupported campaign file version {payload.get('version')!r}"
        )


def load_matrix(path: str | Path) -> dict[tuple[str, str], CampaignResult]:
    """Load a campaign matrix saved by :func:`save_matrix`."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CampaignError(f"cannot load campaign matrix: {exc}") from exc
    check_version(payload)
    matrix = {}
    for cell in payload["cells"]:
        result = result_from_dict(cell)
        matrix[(result.workload, result.tool)] = result
    return matrix


def merge_results(
    parts: Iterable[CampaignResult],
    indices: Iterable[Iterable[int]] | None = None,
) -> CampaignResult:
    """Combine partial campaigns of the same (workload, tool) — the batch
    aggregation step of a cluster run.

    ``indices`` (parallel to ``parts``) gives each part's global experiment
    indices and enables **exact deduplication**: a part whose index set was
    already merged is dropped rather than double-counted.  At-least-once
    task delivery (a distributed worker whose lease expired may still
    finish and submit) makes duplicates normal, and because every
    experiment is a pure function of its global index, the duplicate part
    is provably identical to the one already merged.  Parts that overlap
    only *partially* cannot be reconciled from counts alone and raise.
    """
    parts = list(parts)
    if indices is not None:
        index_sets = [frozenset(ix) for ix in indices]
        if len(index_sets) != len(parts):
            raise CampaignError(
                f"merge got {len(parts)} parts but {len(index_sets)} "
                "index sets"
            )
        seen: set[int] = set()
        kept = []
        for part, ixs in zip(parts, index_sets):
            if len(ixs) != sum(part.counts.values()):
                raise CampaignError(
                    f"part tallies {sum(part.counts.values())} experiments "
                    f"but its index set has {len(ixs)}"
                )
            overlap = seen & ixs
            if not overlap:
                seen |= ixs
                kept.append(part)
            elif overlap != ixs:
                raise CampaignError(
                    "parts partially overlap in global experiment indices "
                    "and cannot be merged without double-counting"
                )
            # else: exact duplicate of already-merged indices — drop it
        parts = kept
    if not parts:
        raise CampaignError("cannot merge zero campaign parts")
    first = parts[0]
    for other in parts[1:]:
        if (other.workload, other.tool) != (first.workload, first.tool):
            raise CampaignError(
                "cannot merge campaigns of different (workload, tool)"
            )
        if other.golden_output != first.golden_output:
            raise CampaignError("golden outputs disagree between parts")
        if other.total_candidates != first.total_candidates:
            raise CampaignError(
                "total_candidates disagree between parts "
                f"({other.total_candidates} vs {first.total_candidates}); "
                "were the campaigns configured with the same FIConfig?"
            )
        if other.fault_model != first.fault_model:
            raise CampaignError(
                f"fault models disagree between parts ({other.fault_model!r} "
                f"vs {first.fault_model!r})"
            )
    merged = CampaignResult(
        workload=first.workload,
        tool=first.tool,
        n=sum(p.n for p in parts),
        counts={
            o: sum(p.frequency(o) for p in parts) for o in Outcome
        },
        total_cycles=sum(p.total_cycles for p in parts),
        total_steps=sum(p.total_steps for p in parts),
        golden_output=first.golden_output,
        total_candidates=first.total_candidates,
        fault_model=first.fault_model,
    )
    for p in parts:
        merged.records.extend(p.records)
    return merged
