"""``python3 -m perfbench --compare A.json B.json``: did B get worse than A?

Each file is an ``--out`` file holding one or more full runs (repeated
``--out`` to the same path appends).  A metric's samples are the per-run
medians when a side has several runs, the laps of its single run
otherwise.  One row per workload x end-to-end metric.
"""

from __future__ import annotations

import json
import statistics

from perfbench import spec

#: Reported by every lap next to the bounded metrics; 0 on a healthy
#: commit, so they compare with ``==`` like the exact layer counts.
EXACT_E2E = ("failed_share", "paper_shape_violations")


def load_runs(path: str) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)["runs"]


def _samples(runs: list[dict], workload: str, metric: str) -> list[float]:
    entries = [r["workloads"][workload]["e2e"][metric] for r in runs]
    if len(entries) == 1:
        return entries[0]["laps"]
    return [e["median"] for e in entries]


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a: list[float], b: list[float], metric: spec.Metric) -> str:
    """``better`` / ``within`` / ``worse`` / ``unresolved`` for B against A."""
    sign = 1 if metric.better == "lower" else -1
    med_a, med_b = statistics.median(a), statistics.median(b)
    if all(sign * y < sign * x for x in a for y in b):
        return "better"
    allowed = max(metric.bound * med_a, metric.floor)
    if max(q3 - q1 for q1, q3 in (_quartiles(a), _quartiles(b))) > allowed:
        return "unresolved"
    return "worse" if sign * (med_b - med_a) > allowed else "within"


def compare(path_a: str, path_b: str) -> tuple[list[str], bool]:
    """Table lines, and whether every row is acceptable."""
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    lines = [
        f"{'workload':<13}{'metric':<24}{'A median [q1, q3]':>34}"
        f"{'B median [q1, q3]':>34}{'bound':>7}  verdict"
    ]
    ok = True

    def cell(values):
        q1, q3 = _quartiles(values)
        return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"

    for workload in spec.WORKLOADS:
        if any(workload not in r["workloads"] for r in runs_a + runs_b):
            continue
        for metric in spec.END_TO_END:
            a = _samples(runs_a, workload, metric.name)
            b = _samples(runs_b, workload, metric.name)
            v = verdict(a, b, metric)
            ok &= v in ("better", "within")
            lines.append(
                f"{workload:<13}{metric.name:<24}{cell(a):>34}{cell(b):>34}"
                f"{metric.bound:>7.0%}  {v}"
            )
        for name in EXACT_E2E:
            a = _samples(runs_a, workload, name)
            b = _samples(runs_b, workload, name)
            same = set(a) == set(b) and len(set(a)) == 1
            ok &= same
            lines.append(
                f"{workload:<13}{name:<24}{a[0]!s:>34}{b[0]!s:>34}{'==':>7}  "
                + ("same" if same else "DIFFERENT")
            )
        layers_a = runs_a[0]["workloads"][workload]["layers"] or {}
        layers_b = runs_b[0]["workloads"][workload]["layers"] or {}
        for metric in spec.PER_LAYER:
            if metric.exact and layers_a.get(metric.name) != layers_b.get(metric.name):
                ok = False
                lines.append(
                    f"{workload:<13}{metric.name:<24}"
                    f"{layers_a.get(metric.name)!s:>34}"
                    f"{layers_b.get(metric.name)!s:>34}{'==':>7}  DIFFERENT"
                )
    return lines, ok
