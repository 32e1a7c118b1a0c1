"""Smoke test of the harness itself (not part of tier-1):

    PYTHONPATH=src python -m pytest perfbench -q

Runs every workload at ``--smoke`` size (one timed and one traced lap
each, about a minute in total) and checks what a full run relies on.
"""

from __future__ import annotations

import json
import math

import pytest

from perfbench import ROOT, adapter, spec, verify
from perfbench.compare import verdict
from perfbench.runner import run_workload

PHASES = ("translate_s", "prefix_s", "fork_s", "tail_s", "classify_s")
BUILD_SPANS = ("fi.compile", "machine.load", "engine.first_profile")


@pytest.fixture(scope="module", params=list(spec.WORKLOADS))
def smoke_run(request):
    return run_workload(request.param, spec.DEFAULT_SEED, laps=1, traced=True, smoke=True)


def test_results_match_the_pins(smoke_run):
    assert smoke_run["check"] == "pinned"
    assert smoke_run["failures"] == []
    assert smoke_run["e2e"]["failed_share"]["median"] == 0
    assert smoke_run["failed"] == 0 and smoke_run["attempted"] > 0


def test_every_metric_is_reported(smoke_run):
    for metric in spec.END_TO_END:
        value = smoke_run["e2e"][metric.name]["median"]
        assert math.isfinite(value) and value > 0, metric.name
    assert set(smoke_run["layers"]) == {m.name for m in spec.PER_LAYER}
    for name, value in smoke_run["layers"].items():
        assert math.isfinite(value), name
    service_only = {
        m.name for m in spec.PER_LAYER
        if m.name.startswith(("service.", "dist.status_"))
    }
    on_service = smoke_run["workload"] == "service_db"
    for name in service_only - {"service.requeues"}:
        assert (smoke_run["layers"][name] != 0) == on_service, name


def test_accounting_closes_on_inline_laps(smoke_run):
    kind = spec.WORKLOADS[smoke_run["workload"]].kind
    if kind == "service":
        pytest.skip("two workers overlap: phases do not sum to wall")
    layers = smoke_run["layers"]
    inside = sum(layers[f"campaign.{p}"] for p in PHASES)
    wall = inside + layers["campaign.unaccounted_s"]  # the timed region
    if kind == "cold":  # the build is inside the clock
        inside += sum(
            s["dur"] for s in smoke_run["spans"] if s["name"] in BUILD_SPANS
        )
    assert abs(inside - wall) / wall < 0.10


def test_benchmark_json_restates_the_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()
    ]
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    # 4 + 22 runs per workload must fit the driver's 3420 s
    per_run = [
        spec.lap_count(w.name, bench["run_seconds"]) * (w.lap_s + 3)
        for w in spec.WORKLOADS.values()
    ]
    assert (4 / len(per_run) + 22) * sum(per_run) < 3420 * 0.8


def test_compare_verdicts():
    lower = spec.Metric("x", "s", "lower", 0.10)
    higher = spec.Metric("x", "1/s", "higher", 0.10)
    assert verdict([10, 10.1, 10.2], [10.3, 10.4, 10.5], lower) == "within"
    assert verdict([10, 10.1, 10.2], [11.5, 11.6, 11.7], lower) == "worse"
    assert verdict([10, 10.1, 10.2], [9.0, 9.1, 9.2], lower) == "better"
    assert verdict([10, 10.1, 10.2], [8.0, 8.1, 8.2], higher) == "worse"
    assert verdict([8, 10, 12], [9, 11, 13], lower) == "unresolved"


def test_adapter_drops_knobs_the_callee_lost(monkeypatch):
    def new_make_tool(tool_name, source, workload, fault_model=None):
        return "tool"

    assert adapter.accepted(new_make_tool, **adapter.PRODUCTION) == {}
    assert adapter.accepted(lambda **kw: None, **adapter.PRODUCTION) == adapter.PRODUCTION
    with pytest.raises(RuntimeError):
        adapter._strict(new_make_tool, adapter.ORACLE)

    # ROADMAP item 2 landed: laps still build their tools, an unpinned seed
    # loses its oracle sample (not its lap), and only pinning refuses.
    cell = spec.Cell("EP", "REFINE", 4)
    monkeypatch.setattr(adapter, "make_tool", new_make_tool)
    assert adapter.build_tool(cell) == "tool"
    assert adapter.reference_tool(cell) is None
    assert verify.oracle_sample({cell: None}, seed=7, k=3) is None
    with pytest.raises(RuntimeError):
        adapter.build_tool(cell, oracle=True)

    # schedule gone, engine kept: the sample still runs on the reference engine
    def engine_only(tool_name, source, workload, fault_model=None, engine="fast"):
        return engine

    monkeypatch.setattr(adapter, "make_tool", engine_only)
    assert adapter.reference_tool(cell) == "reference"
