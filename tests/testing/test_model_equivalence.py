"""Every fault model, production campaign vs the reference campaign (the
14x3 matrix over fault models).

Every fault model must produce identical outcomes whichever way an
experiment is executed — forked off the golden cursor on the fast engine
in trigger order, or from instruction 0 on the interpreter loop in index
order — because the evaluation's accuracy claims compare *tools*, and any
engine/scheduler dependence would confound them.

Tier-1 runs a small smoke subset (two workloads, every model); the full
14-workload x 3-tool sweep over every model runs under ``-m slow`` in CI.
"""

from __future__ import annotations

import pytest

from repro.fi.models import MODEL_ORDER
from repro.testing import check_workload_fault_model_equivalence
from repro.workloads import workload_names

SMOKE_WORKLOADS = ("CG", "lulesh")


class TestFaultModelEquivalenceSmoke:
    @pytest.mark.parametrize("workload", SMOKE_WORKLOADS)
    @pytest.mark.parametrize("model", MODEL_ORDER)
    def test_model_equivalent_across_engines_and_schedulers(
        self, workload, model
    ):
        divergence = check_workload_fault_model_equivalence(
            workload, models=[model], n=4
        )
        assert divergence is None, divergence.describe()


@pytest.mark.slow
class TestFaultModelEquivalenceFull:
    """The full matrix: every workload x every model (tools inside the
    oracle; models a tool cannot host are skipped there)."""

    @pytest.mark.parametrize("workload", workload_names())
    def test_all_models_equivalent(self, workload):
        divergence = check_workload_fault_model_equivalence(workload)
        assert divergence is None, divergence.describe()
