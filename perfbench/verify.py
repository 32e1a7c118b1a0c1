"""Correctness of a lap's results: pins, structure, oracle sample, paper shape.

A cell's result is reduced to a *summary* — outcome counts, simulated
steps and cycles, golden output, and a digest over every experiment
record — that is the same whether the records came from ``run_campaign``
or were read back from the results database.  Simulated cycles are summed
with :func:`math.fsum`, so the trigger-ordered and worker-interleaved
paths agree with the index-ordered oracle bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

from repro.campaign import OUTCOME_ORDER, run_experiment
from repro.errors import StatsError
from repro.stats import chi2_contingency

from perfbench import adapter
from perfbench.spec import TOOLS

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Paper invariants (Figure 5 cost ordering, Table 5 verdicts).
REFINE_OVER_PINFI = (0.7, 1.8)
ALPHA = 0.05
PAPER_N = 1068


def _row(record) -> tuple:
    return (
        record.index, record.outcome.value, float(record.cycles).hex(),
        record.steps, record.exit_code, record.trap,
    )


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def summarize(result, n: int | None = None) -> dict:
    """The pinned statistics of a result (of its first ``n`` experiments)."""
    records = sorted(result.records, key=lambda r: r.index)
    if n is not None:
        records = records[:n]
    counts = {o: 0 for o in OUTCOME_ORDER}
    for record in records:
        counts[record.outcome] += 1
    return {
        "n": len(records),
        "counts": [counts[o] for o in OUTCOME_ORDER],
        "total_steps": sum(r.steps for r in records),
        "total_cycles": math.fsum(r.cycles for r in records).hex(),
        "records_sha256": _sha([_row(r) for r in records]),
    }


def binary_summary(result) -> dict:
    """Seed-independent facts of the cell's binary."""
    return {
        "golden_sha256": _sha(list(result.golden_output)),
        "total_candidates": result.total_candidates,
    }


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def seed_key(seed: int) -> str:
    return f"{seed:#x}"


def check_cell(cell, seed: int, result, summary: dict, expected: dict) -> str | None:
    """Why this cell's result (``summary`` = its :func:`summarize`) is
    wrong, or ``None``."""
    indices = sorted(r.index for r in result.records)
    if indices != list(range(cell.n)):
        return f"records cover {len(indices)} indices, not exactly 0..{cell.n - 1}"
    if [result.frequency(o) for o in OUTCOME_ORDER] != summary["counts"]:
        return "outcome counts disagree with the records"
    if result.total_steps != summary["total_steps"]:
        return "total_steps disagrees with the records"
    pinned_binary = expected["binaries"].get(f"{cell.program}/{cell.tool}")
    if pinned_binary is not None and binary_summary(result) != pinned_binary:
        return "golden output or candidate count differs from the pin"
    pinned = expected["seeds"].get(seed_key(seed))
    if pinned is not None:
        if cell.key not in pinned:
            return "cell has no pin for this seed (re-run perfbench.pin)"
        if pinned[cell.key] != summary:
            return f"simulated statistics differ from the oracle pin: {summary}"
    return None


def oracle_sample(results: dict, seed: int, k: int) -> list[tuple[str, str]] | None:
    """Re-run ``k`` experiments of the lap on the reference engine and
    compare record for record (the check for seeds that have no pin).
    ``None`` if the program no longer has a reference engine to ask."""
    rng = random.Random(seed)
    cells = sorted(results, key=lambda c: c.key)
    picks: dict = {}
    for _ in range(k):
        cell = rng.choice(cells)
        picks.setdefault(cell, set()).add(rng.randrange(cell.n))
    tools = {cell: adapter.reference_tool(cell) for cell in picks}
    if None in tools.values():
        return None
    failures = []
    for cell, indices in picks.items():
        tool = tools[cell]
        got = {r.index: _row(r) for r in results[cell].records}
        for index in sorted(indices):
            want = _row(run_experiment(tool, seed, index))
            if got.get(index) != want:
                failures.append(
                    (cell.key, f"[{index}] {got.get(index)} != oracle {want}")
                )
    return failures


def paper_shape(results: dict) -> dict:
    """Paper invariants over the lap's own (simulated) results.

    Per (program, model, n) group that ran all three tools: simulated
    cycles LLFI > REFINE and REFINE/PINFI inside ``REFINE_OVER_PINFI``;
    at the paper's n additionally chi-squared REFINE-vs-PINFI similar and
    LLFI-vs-PINFI different.  Deterministic: repeats exactly.
    """
    groups: dict = {}
    for cell, result in results.items():
        groups.setdefault((cell.program, cell.model, cell.n), {})[cell.tool] = result
    complete = [g for g in groups.items() if all(t in g[1] for t in TOOLS)]
    violations = 0
    cycles = {t: 0.0 for t in TOOLS}
    p_refine: list[float] = []
    p_llfi: list[float] = []
    for (_, _, n), by_tool in complete:
        cyc = {t: math.fsum(r.cycles for r in by_tool[t].records) for t in TOOLS}
        for t in TOOLS:
            cycles[t] += cyc[t]
        lo, hi = REFINE_OVER_PINFI
        violations += not cyc["LLFI"] > cyc["REFINE"]
        violations += not lo < cyc["REFINE"] / cyc["PINFI"] < hi
        try:
            pr, pl = (
                chi2_contingency(
                    [by_tool[t].frequencies(), by_tool["PINFI"].frequencies()]
                ).p_value
                for t in ("REFINE", "LLFI")
            )
        except StatsError:  # a smoke-sized table with one non-empty outcome
            continue
        p_refine.append(pr)
        p_llfi.append(pl)
        if n >= PAPER_N:
            violations += pr < ALPHA
            violations += pl >= ALPHA
    pinfi = cycles["PINFI"]
    return {
        "paper_shape_violations": violations,
        "fi.sim_cycles_refine_over_pinfi": cycles["REFINE"] / pinfi if pinfi else 0.0,
        "fi.sim_cycles_llfi_over_pinfi": cycles["LLFI"] / pinfi if pinfi else 0.0,
        # the group closest to breaking each verdict
        "stats.chisq_p_refine_pinfi": min(p_refine, default=0.0),
        "stats.chisq_p_llfi_pinfi": max(p_llfi, default=0.0),
    }
