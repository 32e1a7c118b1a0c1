"""Typed query API over the results store.

Two kinds of consumers, two guarantees:

* **Decision support** — native SQL aggregations (outcome breakdowns per
  instruction class, per-register / per-bit vulnerability rankings with
  Wilson intervals, cross-tool contingency tables feeding
  :mod:`repro.stats.chisq`).  Grouping and ordering reproduce
  :mod:`repro.campaign.analysis` exactly: groups form in first-seen
  order (= ascending first global index) and are stable-sorted by crash
  proportion, so a DB-backed breakdown is bit-identical to the
  in-memory one.
* **Round-trip** — :func:`to_campaign_result` / :func:`matrix_from_db`
  reconstruct full :class:`CampaignResult` objects, so
  ``campaign.analysis`` and ``matrix_to_csv`` consume DB data unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.campaign.analysis import GroupSensitivity
from repro.campaign.classify import OUTCOME_ORDER, Outcome
from repro.campaign.results import CampaignResult, ExperimentRecord
from repro.errors import ResultsDBError
from repro.machine.cpu import FaultRecord
from repro.resultsdb.db import ResultsDB
from repro.resultsdb.ingest import decode_value, seed_from_db
from repro.stats.intervals import Interval, wilson_interval
from repro.stats.tables import ContingencyTable


@dataclass(frozen=True)
class CampaignInfo:
    """One campaign row plus its outcome counts and stored-run tally."""

    id: int
    workload: str
    tool: str
    n: int
    base_seed: int
    counts: dict[Outcome, int]
    runs: int                      #: per-experiment rows actually stored
    total_cycles: float | None
    total_candidates: int | None
    source: str | None
    schedule: str | None = None    #: 'index' / 'trigger' (None = old log)
    #: Per-phase wall seconds from campaign_finish/cell_finish
    #: (translate_s/prefix_s/fork_s/tail_s/classify_s), None when the
    #: campaign predates phase telemetry.
    phases: dict[str, float] | None = None
    #: :mod:`repro.fi.models` spec (None = log predating fault models,
    #: which is the single-bit default by construction)
    fault_model: str | None = None
    #: Auto-validation verdict ('passed'/'failed'/'pinned'/'skipped'),
    #: None = never validated (see :mod:`repro.service.validate`).
    validation: str | None = None
    #: Chi-squared p-value behind the verdict (None when not tested).
    validation_p: float | None = None


def list_campaigns(db: ResultsDB) -> list[CampaignInfo]:
    """Every campaign in the store, in insertion order."""
    rows = db.execute(
        "SELECT id, workload, tool, n, base_seed, total_cycles,"
        " total_candidates, source, schedule, phases, fault_model,"
        " validation, validation_p"
        " FROM campaigns ORDER BY id"
    ).fetchall()
    return [
        CampaignInfo(
            id=cid, workload=w, tool=t, n=n, base_seed=seed,
            counts=outcome_counts(db, cid), runs=db.run_count(cid),
            total_cycles=cycles, total_candidates=cands, source=src,
            schedule=schedule,
            phases=None if phases is None else json.loads(phases),
            fault_model=model,
            validation=validation, validation_p=validation_p,
        )
        for cid, w, t, n, seed, cycles, cands, src, schedule, phases, model,
            validation, validation_p
        in rows
    ]


def find_campaign(
    db: ResultsDB, workload: str, tool: str, base_seed: int | None = None
) -> int:
    """Resolve (workload, tool[, base_seed]) to a campaign id.

    Raises :class:`ResultsDBError` when missing, or when the pair is
    ambiguous (several seeds/sizes) and no ``base_seed`` disambiguates.
    """
    sql = "SELECT id FROM campaigns WHERE workload=? AND tool=?"
    params: list = [workload, tool]
    if base_seed is not None:
        sql += " AND base_seed=?"
        params.append(base_seed)
    rows = db.execute(sql + " ORDER BY id", params).fetchall()
    if not rows:
        raise ResultsDBError(f"no campaign for {workload}/{tool} in {db.path}")
    if len(rows) > 1:
        raise ResultsDBError(
            f"{len(rows)} campaigns match {workload}/{tool}; pass base_seed"
        )
    return rows[0][0]


def outcome_counts(db: ResultsDB, campaign_id: int) -> dict[Outcome, int]:
    """Outcome counts for one campaign.

    Finalized tallies (written by ``campaign_finish``/``cell_finish`` or a
    result import) are authoritative; a live or partially-ingested
    campaign falls back to aggregating its stored runs.
    """
    rows = db.execute(
        "SELECT outcome_id, count FROM tallies WHERE campaign_id=?",
        (campaign_id,),
    ).fetchall()
    if not rows:
        rows = db.execute(
            "SELECT outcome_id, COUNT(*) FROM runs WHERE campaign_id=?"
            " GROUP BY outcome_id",
            (campaign_id,),
        ).fetchall()
    counts = {o: 0 for o in Outcome}
    for oid, k in rows:
        counts[Outcome(db.outcome_names[oid])] = k
    return counts


# ------------------------------------------------------------- round-trip


def _fault_records(db: ResultsDB, campaign_id: int) -> dict[int, FaultRecord]:
    return {
        idx: FaultRecord(
            tool=tool, dynamic_index=dyn, pc=pc, func=func, block=block,
            instr_text=instr, operand_index=op_idx, operand_desc=op_desc,
            bit=None if bit < 0 else bit,  # -1 = not bit-indexed
            value_before=decode_value(before),
            value_after=decode_value(after),
            model="single-bit" if model is None else model,
            bits=None if bits is None else tuple(json.loads(bits)),
            address=address,
            dwell=1 if dwell is None else dwell,
        )
        for idx, tool, dyn, pc, func, block, instr, op_idx, op_desc, bit,
            before, after, model, bits, address, dwell in db.execute(
            "SELECT idx, tool, dynamic_index, pc, func, block, instr_text,"
            " operand_index, operand_desc, bit, value_before, value_after,"
            " model, bits, address, dwell"
            " FROM faults WHERE campaign_id=?",
            (campaign_id,),
        )
    }


def to_campaign_result(db: ResultsDB, campaign_id: int) -> CampaignResult:
    """Reconstruct a full :class:`CampaignResult` from the store.

    Records come back in global-index order — the sequential runner's
    order — so analysis and reporting over the reconstruction match the
    in-memory result bit-for-bit.  ``total_cycles``/``total_steps`` prefer
    the finalized values the campaign itself reported (float accumulation
    order matters); they are re-summed from runs only when never
    finalized.
    """
    row = db.execute(
        "SELECT workload, tool, n, total_cycles, total_steps, golden_output,"
        " total_candidates, fault_model FROM campaigns WHERE id=?",
        (campaign_id,),
    ).fetchone()
    if row is None:
        raise ResultsDBError(f"no campaign with id {campaign_id}")
    (workload, tool, n, total_cycles, total_steps, golden, candidates,
     fault_model) = row

    faults = _fault_records(db, campaign_id)
    records = [
        ExperimentRecord(
            index=idx, seed=seed_from_db(seed),
            outcome=Outcome(db.outcome_names[oid]),
            cycles=cycles, steps=steps, trap=trap, exit_code=exit_code,
            engine=engine,
            snapshot_hit=None if hit is None else bool(hit),
            fault=faults.get(idx),
        )
        for idx, seed, oid, cycles, steps, trap, exit_code, engine, hit
        in db.execute(
            "SELECT idx, seed, outcome_id, cycles, steps, trap, exit_code,"
            " engine, snapshot_hit FROM runs WHERE campaign_id=?"
            " ORDER BY idx",
            (campaign_id,),
        )
    ]
    if total_cycles is None:
        total_cycles = 0.0
        for rec in records:  # idx order = the sequential accumulation order
            total_cycles += rec.cycles
    if total_steps is None:
        total_steps = sum(rec.steps for rec in records)
    result = CampaignResult(
        workload=workload, tool=tool, n=n,
        counts=outcome_counts(db, campaign_id),
        total_cycles=total_cycles, total_steps=total_steps,
        golden_output=() if golden is None else tuple(json.loads(golden)),
        total_candidates=0 if candidates is None else candidates,
        fault_model="single-bit" if fault_model is None else fault_model,
    )
    result.records = records
    return result


def matrix_from_db(
    db: ResultsDB, base_seed: int | None = None
) -> dict[tuple[str, str], CampaignResult]:
    """The whole store as a campaign matrix (what ``matrix_to_csv``
    prints).  Raises when a (workload, tool) cell is ambiguous and
    ``base_seed`` does not disambiguate."""
    sql = "SELECT id, workload, tool FROM campaigns"
    params: tuple = ()
    if base_seed is not None:
        sql += " WHERE base_seed=?"
        params = (base_seed,)
    matrix: dict[tuple[str, str], CampaignResult] = {}
    for cid, workload, tool in db.execute(sql + " ORDER BY id", params):
        if (workload, tool) in matrix:
            raise ResultsDBError(
                f"store holds several campaigns for {workload}/{tool}; "
                "pass base_seed to select one"
            )
        matrix[(workload, tool)] = to_campaign_result(db, cid)
    return matrix


# --------------------------------------------------------------- analysis

#: Fault-site grouping dimensions understood by :func:`breakdown` and
#: :func:`rank_sites`: name -> SQL expression over the ``faults`` table.
DIMENSIONS = {
    "func": "func",
    "opcode": "opcode",
    "kind": "operand_kind",
    "register": "operand_desc",
    "bit": "bit",
    "trigger": "dynamic_index",
    # Rows ingested before fault models existed are single-bit by
    # construction (there was nothing else to run).
    "model": "COALESCE(model, 'single-bit')",
}


def breakdown(
    db: ResultsDB, campaign_id: int, by: str = "func",
    bit_buckets: int | None = None,
) -> list[GroupSensitivity]:
    """Outcome breakdown of fault sites along one dimension.

    Reproduces :mod:`repro.campaign.analysis` bit-for-bit: ``by="func"``
    matches :func:`~repro.campaign.analysis.by_function`, ``by="kind"``
    matches :func:`~repro.campaign.analysis.by_operand_kind`, and
    ``by="bit"`` with ``bit_buckets`` matches
    :func:`~repro.campaign.analysis.by_bit_range` (groups form in
    first-seen order, then a stable sort by crash proportion — or by key
    for bit ranges).
    """
    if by not in DIMENSIONS:
        raise ResultsDBError(
            f"unknown dimension {by!r}; choose from {sorted(DIMENSIONS)}"
        )
    expr = DIMENSIONS[by]
    if by == "bit" and bit_buckets is not None:
        if not 1 <= bit_buckets <= 64:
            raise ResultsDBError("bit_buckets must be in [1, 64]")
        width = 64 // bit_buckets
        # bit = -1 marks faults with no single bit position (cache-line
        # smears); keep them out of bucket 0 and in their own group.
        expr = f"CASE WHEN bit < 0 THEN -1 ELSE (bit / {width}) * {width} END"
    rows = db.execute(
        f"SELECT {expr} AS grp, r.outcome_id, COUNT(*), MIN(r.idx)"
        " FROM faults f JOIN runs r"
        " ON r.campaign_id = f.campaign_id AND r.idx = f.idx"
        " WHERE f.campaign_id=? GROUP BY grp, r.outcome_id",
        (campaign_id,),
    ).fetchall()

    def label(grp) -> str:
        if by == "bit" and bit_buckets is not None:
            if grp < 0:
                return "bits[n/a]"  # matches analysis.by_bit_range
            width = 64 // bit_buckets
            return f"bits[{grp:02d}-{min(grp + width - 1, 63):02d}]"
        if by == "bit" and grp < 0:
            return "n/a"
        return str(grp)

    first_seen: dict[str, int] = {}
    groups: dict[str, GroupSensitivity] = {}
    for grp, oid, count, min_idx in rows:
        key = label(grp)
        if key not in groups:
            groups[key] = GroupSensitivity(key, {o: 0 for o in Outcome})
            first_seen[key] = min_idx
        groups[key].counts[Outcome(db.outcome_names[oid])] += count
        first_seen[key] = min(first_seen[key], min_idx)
    ordered = sorted(groups.values(), key=lambda g: first_seen[g.key])
    if by == "bit" and bit_buckets is not None:
        # by_bit_range sorts its crash-ordered groups back by key.
        ordered = sorted(
            ordered, key=lambda g: g.proportion(Outcome.CRASH), reverse=True
        )
        return sorted(ordered, key=lambda g: g.key)
    return sorted(
        ordered, key=lambda g: g.proportion(Outcome.CRASH), reverse=True
    )


@dataclass(frozen=True)
class SiteRank:
    """One fault-site group ranked by outcome rate with its Wilson CI."""

    key: str
    total: int
    hits: int                      #: experiments with the ranked outcome
    interval: Interval             #: Wilson CI of hits/total

    @property
    def rate(self) -> float:
        return self.interval.p


def rank_sites(
    db: ResultsDB, campaign_id: int, by: str = "register",
    outcome: Outcome = Outcome.CRASH, confidence: float = 0.95,
    min_total: int = 1, limit: int | None = None,
) -> list[SiteRank]:
    """Vulnerability ranking: which sites most reliably produce ``outcome``.

    Groups fault sites along ``by`` (any :data:`DIMENSIONS` key) and
    orders by the **lower bound** of the Wilson interval — the standard
    guard against crowning a 1-of-1 site over a 90-of-100 one.
    """
    ranked = [
        SiteRank(
            key=g.key, total=g.total, hits=g.frequency(outcome),
            interval=wilson_interval(
                g.frequency(outcome), g.total, confidence
            ),
        )
        for g in breakdown(db, campaign_id, by=by)
        if g.total >= min_total
    ]
    ranked.sort(key=lambda s: (-s.interval.low, -s.rate, s.key))
    return ranked if limit is None else ranked[:limit]


def contingency(
    db: ResultsDB, workload: str, tool_a: str, tool_b: str,
    base_seed: int | None = None,
) -> ContingencyTable:
    """Cross-tool contingency table for one workload, feeding
    :meth:`ContingencyTable.test` (the paper's Table 4/5 instrument)."""
    rows = [
        tuple(
            outcome_counts(db, find_campaign(db, workload, tool, base_seed))[o]
            for o in OUTCOME_ORDER
        )
        for tool in (tool_a, tool_b)
    ]
    return ContingencyTable(workload, tool_a, tool_b, *rows)
