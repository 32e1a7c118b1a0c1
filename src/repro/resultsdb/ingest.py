"""Ingest layer: write-through event sink plus offline backfill.

Three paths feed the store, all converging on the same rows:

* :class:`DatabaseSink` — consumes the live telemetry stream (see
  :mod:`repro.campaign.events`) from the sequential runner, the parallel
  runner or the distributed coordinator.  Inserts are batched into one
  transaction per ``batch`` experiments and keyed by the experiment's
  global index, so checkpoint resume and requeued distributed tasks
  re-delivering the same experiment are silently deduplicated
  (``INSERT OR IGNORE``): every experiment is a pure function of its
  global index, so the ignored duplicate is provably identical.
* :func:`ingest_events` — replays a JSONL event log through the same
  sink, so an offline backfill is bit-identical to having run live.
* :func:`ingest_result` / :func:`ingest_results_file` — import persisted
  :class:`CampaignResult` JSON: both the full ``save_matrix`` format
  (records included when kept) and the summary format ``refine-db
  report`` writes (``report.json`` = ``results/full_campaign*.json``:
  counts and totals only, keyed on the file's ``base_seed``).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from repro.campaign.classify import Outcome
from repro.campaign.events import read_events
# The tag-encoding of fault values must match the JSON persistence layer
# bit-for-bit (floats travel as float.hex()), so the one implementation in
# repro.campaign.io is deliberately shared rather than duplicated.
from repro.campaign.io import (
    _value_from_dict,
    check_version,
    experiment_event_fields,
    result_from_dict,
)
from repro.campaign.results import CampaignResult
from repro.errors import CampaignError, ResultsDBError
from repro.resultsdb.db import ResultsDB

#: Experiments buffered per transaction.  Large enough that transaction
#: overhead amortizes to nothing (>> 5k rows/s), small enough that a live
#: progress query never lags far behind the campaign.
DEFAULT_BATCH = 512


def seed_to_db(seed: int) -> int:
    """Experiment seeds are uint64 (:func:`repro.utils.derive_seed`);
    SQLite INTEGER is int64.  Store the two's-complement reinterpretation."""
    return seed - (1 << 64) if seed >= (1 << 63) else seed


def seed_from_db(seed: int) -> int:
    """Inverse of :func:`seed_to_db`: back to the uint64 seed."""
    return seed & ((1 << 64) - 1)


def fault_opcode(instr_text: str) -> str:
    """Instruction opcode = first token of the disassembly text."""
    parts = instr_text.split(None, 1)
    return parts[0] if parts else ""


def operand_kind(desc: str) -> str:
    """Operand kind = descriptor prefix (``ireg:3`` -> ``ireg``)."""
    return desc.split(":")[0]


def _encode_value(tagged: object) -> str | None:
    """Store a tag-encoded fault value dict as its JSON text."""
    if tagged is None:
        return None
    return json.dumps(tagged, sort_keys=True)


def decode_value(text: str | None) -> object:
    """Inverse of :func:`_encode_value`: back to the Python value."""
    if text is None:
        return None
    return _value_from_dict(json.loads(text))


def _fault_row(campaign_id: int, index: int, fault: dict) -> tuple:
    # ``bit`` predates non-bit-indexed models and stays NOT NULL: a fault
    # with no single bit position (a cache-line smear) stores -1.
    bit = fault["bit"]
    bits = fault.get("bits")
    return (
        campaign_id, index, fault["tool"], fault["dynamic_index"],
        fault["pc"], fault["func"], fault["block"], fault["instr_text"],
        fault_opcode(fault["instr_text"]), fault["operand_index"],
        fault["operand_desc"], operand_kind(fault["operand_desc"]),
        -1 if bit is None else bit, _encode_value(fault["value_before"]),
        _encode_value(fault["value_after"]),
        fault.get("model", "single-bit"),
        None if bits is None else json.dumps(list(bits)),
        fault.get("address"), fault.get("dwell", 1),
    )


_INSERT_RUN = (
    "INSERT OR IGNORE INTO runs(campaign_id, idx, seed, outcome_id, cycles,"
    " steps, trap, exit_code, engine, snapshot_hit)"
    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)

_INSERT_FAULT = (
    "INSERT OR IGNORE INTO faults(campaign_id, idx, tool, dynamic_index, pc,"
    " func, block, instr_text, opcode, operand_index, operand_desc,"
    " operand_kind, bit, value_before, value_after, model, bits, address,"
    " dwell)"
    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)


class DatabaseSink:
    """Event-stream consumer that writes experiments through to a store.

    Feed it every telemetry event (``sink.emit(event, **fields)``); it
    reacts to ``campaign_start``/``cell_start`` (get-or-create the
    campaign row), ``experiment`` (buffer one run + fault row) and
    ``campaign_finish``/``cell_finish`` (flush, record finalized outcome
    tallies and totals).  All other events pass through untouched, so the
    sink can be chained behind any :class:`repro.campaign.events.EventLog`.

    Idempotency contract: replaying the same stream (or any interleaving
    of streams of the same campaign) leaves the store unchanged — rows
    are keyed by ``(campaign, global index)`` and duplicates are ignored.

    Thread-safe: the distributed coordinator emits from its connection
    handler threads, so buffer mutation is guarded by a lock (statement
    execution is additionally serialized inside :class:`ResultsDB`).
    """

    def __init__(
        self,
        db: ResultsDB,
        batch: int = DEFAULT_BATCH,
        source: str | None = None,
    ) -> None:
        if batch < 1:
            raise ResultsDBError("batch must be >= 1")
        self._db = db
        self._batch = batch
        self._source = source
        self._mu = threading.RLock()
        #: (workload, tool) -> campaign row id for streams in flight
        self._campaigns: dict[tuple[str, str], int] = {}
        self._runs: list[tuple] = []
        self._faults: list[tuple] = []
        self.experiments = 0  #: experiment events consumed (pre-dedup)

    # ------------------------------------------------------------- events

    def emit(self, event: str, **fields) -> None:
        with self._mu:
            if event in ("campaign_start", "cell_start"):
                key = (fields["workload"], fields["tool"])
                self._campaigns[key] = self._db.campaign_id(
                    *key, n=fields["n"],
                    base_seed=fields.get("base_seed", -1),
                    source=self._source,
                    fault_model=fields.get("fault_model"),
                )
            elif event == "experiment":
                self._note_experiment(self._campaign_for(fields), fields)
            elif event in ("campaign_finish", "cell_finish"):
                self._finish(fields)

    def _campaign_for(self, fields: dict) -> int:
        key = (fields["workload"], fields["tool"])
        try:
            return self._campaigns[key]
        except KeyError:
            raise ResultsDBError(
                f"experiment event for {key[0]}/{key[1]} arrived before its "
                "campaign_start/cell_start — is the event stream truncated?"
            ) from None

    def _note_experiment(self, cid: int, fields: dict) -> None:
        """Buffer one run row (+ fault row) of campaign ``cid`` from an
        ``experiment`` payload (:func:`repro.campaign.io.experiment_event_fields`)."""
        index = fields["index"]
        snapshot_hit = fields.get("snapshot_hit")
        self._runs.append((
            cid, index, seed_to_db(fields["seed"]),
            self._db.outcome_ids[fields["outcome"]], fields["cycles"],
            fields["steps"], fields["trap"], fields["exit_code"],
            fields.get("engine"),
            None if snapshot_hit is None else int(snapshot_hit),
        ))
        fault = fields.get("fault")
        if fault is not None:
            self._faults.append(_fault_row(cid, index, fault))
        self.experiments += 1
        if len(self._runs) >= self._batch:
            self.flush()

    def _finish(self, fields: dict) -> None:
        self.flush()
        cid = self._campaign_for(fields)
        _write_tallies(self._db, cid, fields.get("counts", {}))
        self._db.execute(
            "UPDATE campaigns SET total_cycles=?, total_steps=? WHERE id=?",
            (fields.get("total_cycles"), fields.get("total_steps"), cid),
        )
        # Newer streams make the log self-contained; logs predating these
        # fields leave the metadata NULL (a result import can fill it).
        if fields.get("total_candidates") is not None:
            self._db.execute(
                "UPDATE campaigns SET total_candidates=? WHERE id=?",
                (fields["total_candidates"], cid),
            )
        if fields.get("golden_output") is not None:
            self._db.execute(
                "UPDATE campaigns SET golden_output=? WHERE id=?",
                (json.dumps(fields["golden_output"]), cid),
            )
        if fields.get("schedule") is not None:
            self._db.execute(
                "UPDATE campaigns SET schedule=? WHERE id=?",
                (fields["schedule"], cid),
            )
        if fields.get("phases") is not None:
            self._db.execute(
                "UPDATE campaigns SET phases=? WHERE id=?",
                (json.dumps(fields["phases"], sort_keys=True), cid),
            )
        if fields.get("fault_model") is not None:
            self._db.execute(
                "UPDATE campaigns SET fault_model=? WHERE id=?",
                (fields["fault_model"], cid),
            )
        self._db.commit()

    # ----------------------------------------------------------- plumbing

    def flush(self) -> None:
        """Write buffered rows in one transaction."""
        with self._mu:
            if not self._runs and not self._faults:
                return
            with self._db.transaction() as conn:
                conn.executemany(_INSERT_RUN, self._runs)
                conn.executemany(_INSERT_FAULT, self._faults)
            self._runs.clear()
            self._faults.clear()

    def close(self) -> None:
        """Flush and commit (the database itself stays open)."""
        self.flush()
        self._db.commit()


def _write_tallies(db: ResultsDB, campaign_id: int, counts: dict) -> None:
    """Record finalized outcome counts (name -> int) for a campaign."""
    db.executemany(
        "INSERT OR REPLACE INTO tallies(campaign_id, outcome_id, count)"
        " VALUES (?, ?, ?)",
        [
            (campaign_id, db.outcome_ids[name], int(k))
            for name, k in counts.items()
        ],
    )


# ---------------------------------------------------------------- backfill


def ingest_events(db: ResultsDB, path: str | Path) -> dict:
    """Replay a JSONL event log into the store.

    Returns ``{"experiments": <events consumed>, "campaigns": <touched>}``.
    Replaying the same log twice is a no-op for the second pass.
    """
    sink = DatabaseSink(db, source=str(path))
    try:
        events = read_events(path)
    except (OSError, ValueError) as exc:
        raise ResultsDBError(f"cannot read event log {path}: {exc}") from exc
    for record in events:
        fields = dict(record)
        fields.pop("seq", None)
        fields.pop("ts", None)
        event = fields.pop("event", None)
        if event is None:
            raise ResultsDBError(f"event log {path} has a line without 'event'")
        sink.emit(event, **fields)
    sink.close()
    return {
        "experiments": sink.experiments,
        "campaigns": len(sink._campaigns),
    }


def ingest_result(
    db: ResultsDB,
    result: CampaignResult,
    base_seed: int = -1,
    source: str | None = None,
) -> int:
    """Import one :class:`CampaignResult` (records included when kept).

    Fills campaign metadata the event stream does not carry
    (``golden_output``, ``total_candidates``) and records the result's
    outcome counts as the campaign's finalized tallies.  Returns the
    campaign row id.  Idempotent: re-importing the same result converges
    on the same rows.
    """
    cid = db.campaign_id(
        result.workload, result.tool, n=result.n, base_seed=base_seed,
        source=source, fault_model=result.fault_model,
    )
    db.execute(
        "UPDATE campaigns SET total_candidates=?, golden_output=?,"
        " total_cycles=?, total_steps=? WHERE id=?",
        (
            result.total_candidates, json.dumps(list(result.golden_output)),
            result.total_cycles, result.total_steps, cid,
        ),
    )
    _write_tallies(
        db, cid, {o.value: k for o, k in result.counts.items()}
    )
    # the live sink's row builders, fed the records' event payloads
    sink = DatabaseSink(db)
    for rec in result.records:
        sink._note_experiment(cid, experiment_event_fields(rec))
    sink.close()
    return cid


def ingest_results_file(db: ResultsDB, path: str | Path) -> dict:
    """Import persisted campaign results, auto-detecting the format.

    * ``save_matrix`` files (``{"version": .., "cells": [..]}``) import
      every cell with records when present.
    * Summary files (``{"n": .., "base_seed": .., "results":
      {"workload/tool": {..}}}``, what ``refine-db report`` writes and
      ``results/full_campaign*.json`` are) import counts and totals only —
      no per-experiment rows.

    Returns ``{"campaigns": <count>, "experiments": <record rows seen>}``.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ResultsDBError(f"cannot load results {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ResultsDBError(f"{path}: expected a JSON object at top level")
    source = str(path)

    if "cells" in payload:
        try:
            check_version(payload)
        except CampaignError as exc:
            raise ResultsDBError(f"{path}: {exc}") from exc
        campaigns = experiments = 0
        for cell in payload["cells"]:
            try:
                result = result_from_dict(cell)
            except (CampaignError, KeyError, TypeError, ValueError) as exc:
                raise ResultsDBError(f"{path}: malformed cell: {exc}") from exc
            ingest_result(db, result, source=source)
            campaigns += 1
            experiments += len(result.records)
        return {"campaigns": campaigns, "experiments": experiments}

    if "results" in payload:
        n = payload.get("n")
        if not isinstance(n, int):
            raise ResultsDBError(f"{path}: summary file missing integer 'n'")
        campaigns = 0
        for key, cell in payload["results"].items():
            workload, _, tool = key.partition("/")
            if not tool:
                raise ResultsDBError(
                    f"{path}: result key {key!r} is not 'workload/tool'"
                )
            cid = db.campaign_id(
                workload, tool, n=n, source=source,
                base_seed=payload.get("base_seed", -1),  # legacy file: unknown
                fault_model=payload.get("fault_model"),
            )
            db.execute(
                "UPDATE campaigns SET total_candidates=?, total_cycles=?"
                " WHERE id=?",
                (cell.get("total_candidates"), cell.get("total_cycles"), cid),
            )
            _write_tallies(
                db, cid,
                {o.value: cell.get(o.value, 0) for o in Outcome},
            )
            campaigns += 1
        db.commit()
        return {"campaigns": campaigns, "experiments": 0}

    raise ResultsDBError(
        f"{path}: unrecognized results format (neither 'cells' nor 'results')"
    )
