"""Figure 5: campaign execution time normalized to PINFI.

Regenerates panels (a)-(o) from the simulated cycle model: LLFI pays for the
de-optimized binary plus an ``injectFault`` call per instrumented value,
REFINE pays an inline check per candidate site, PINFI pays the DBI
translation factor until it detaches after the injection.

Expected shape (paper): LLFI ~3.9x total, REFINE ~1.2x, with LLFI slower
than REFINE for every application except ones where LLFI's faults crash
runs early (EP in the paper).
"""

from __future__ import annotations

from repro.reporting import render_figure5

from benchmarks.conftest import emit_artifact


def test_figure5_normalized_times(benchmark, campaign_matrix, workloads):
    text = benchmark(render_figure5, campaign_matrix, workloads)
    emit_artifact("figure5_speed.txt", text)

    totals = {"LLFI": 0.0, "REFINE": 0.0, "PINFI": 0.0}
    for (workload, tool), res in campaign_matrix.items():
        totals[tool] += res.total_cycles
    llfi_ratio = totals["LLFI"] / totals["PINFI"]
    refine_ratio = totals["REFINE"] / totals["PINFI"]
    # The paper's Figure 5o: LLFI 3.9x, REFINE 1.2x.  Assert the shape.
    assert llfi_ratio > 1.8, f"LLFI only {llfi_ratio:.2f}x PINFI"
    assert 0.7 < refine_ratio < 1.8, f"REFINE at {refine_ratio:.2f}x PINFI"
    assert totals["REFINE"] < totals["LLFI"]
