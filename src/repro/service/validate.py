"""Auto-validation: chi-squared regression check against pinned baselines.

When a campaign drains, each cell's outcome distribution is compared with
the reference distribution pinned in the results database for the same
(workload, tool, fault model) — the same Pearson test the paper uses to
compare tools (:mod:`repro.stats.chisq`), pointed at *time* instead: did
this campaign sample the same outcome population as the blessed run?

Per-cell verdicts:

* ``passed``  — p >= alpha: statistically the same population.
* ``failed``  — p < alpha: the distribution moved (a compiler/simulator
  regression, a perturbed workload, or a genuinely different campaign
  pinned under the same name).
* ``pinned``  — no baseline existed; this run's distribution was pinned
  as the reference (first contact bootstraps the store).
* ``skipped`` — the test is undefined (a degenerate table).

Every service campaign is validated this way when the service has a
results database, at the paper's alpha (:data:`DEFAULT_ALPHA`).  The
overall verdict is ``failed`` if any cell failed, else ``passed`` if any
cell was actually tested, else whichever bootstrap state applies.
Verdicts are written onto the campaign rows (``validation`` /
``validation_p``) so ``refine-db query`` and the HTML report surface them.
"""

from __future__ import annotations

from repro.campaign.classify import OUTCOME_ORDER
from repro.campaign.results import CampaignResult
from repro.errors import StatsError
from repro.resultsdb.db import ResultsDB
from repro.stats.chisq import chi2_contingency

#: Significance threshold: the paper's alpha (Table 5).
DEFAULT_ALPHA = 0.05


def validate_cell(
    db: ResultsDB,
    result: CampaignResult,
    *,
    base_seed: int,
    source: str | None = None,
) -> dict:
    """Validate one cell; returns its verdict dict (and records it on the
    cell's campaign row).  A cell with no baseline pins its own."""
    counts = {o.value: result.frequency(o) for o in OUTCOME_ORDER}
    baseline = db.get_baseline(result.workload, result.tool,
                               result.fault_model)
    p_value: float | None = None
    if baseline is None:
        db.pin_baseline(
            result.workload, result.tool,
            fault_model=result.fault_model, n=result.n,
            counts=counts, base_seed=base_seed, source=source,
        )
        verdict = "pinned"
    else:
        table = [
            [baseline["counts"].get(o.value, 0) for o in OUTCOME_ORDER],
            [counts[o.value] for o in OUTCOME_ORDER],
        ]
        try:
            test = chi2_contingency(table, alpha=DEFAULT_ALPHA)
            p_value = test.p_value
            verdict = "failed" if test.significant else "passed"
        except StatsError:
            # Degenerate table (e.g. both runs 100% one outcome): there is
            # no distribution shift a chi-squared test can see.
            verdict = "skipped"
    cid = db.campaign_id(
        result.workload, result.tool, n=result.n, base_seed=base_seed,
        source=source, fault_model=result.fault_model,
    )
    db.set_validation(cid, verdict, p_value)
    return {
        "verdict": verdict,
        "p_value": p_value,
        "counts": counts,
        "baseline": None if baseline is None else baseline["counts"],
        "campaign_row": cid,
    }


def validate_results(
    db: ResultsDB,
    results: dict[tuple[str, str], CampaignResult],
    *,
    base_seed: int,
    source: str | None = None,
) -> dict:
    """Validate every cell of a drained campaign.

    Returns ``{"overall": verdict, "alpha": DEFAULT_ALPHA, "cells":
    {"workload/tool": {...}}}``; per-cell details are as
    :func:`validate_cell`.
    """
    cells: dict[str, dict] = {}
    for (workload, tool), result in sorted(results.items()):
        cells[f"{workload}/{tool}"] = validate_cell(
            db, result, base_seed=base_seed, source=source,
        )
    verdicts = [c["verdict"] for c in cells.values()]
    if "failed" in verdicts:
        overall = "failed"
    elif "passed" in verdicts:
        overall = "passed"
    elif "pinned" in verdicts:
        overall = "pinned"
    else:
        overall = "skipped"
    return {"overall": overall, "alpha": DEFAULT_ALPHA, "cells": cells}
