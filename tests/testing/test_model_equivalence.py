"""Every fault model, production campaign vs the reference campaign (the
14x3 matrix over fault models).

Every fault model must produce identical outcomes whichever way an
experiment is executed — forked off the golden cursor on the fast engine
in trigger order, or from instruction 0 on the interpreter loop in index
order — because the evaluation's accuracy claims compare *tools*, and any
engine/scheduler dependence would confound them.

Tier-1 runs a small smoke subset (two workloads, every model and weighted
single-bit); the full 14-workload x 3-tool sweep over the same models runs
under ``-m slow`` in CI.
Both run n = 4..8, where no hang repeats; the scheduler's reuse of recorded
endings (``tests/campaign/test_endings.py``) is held to the oracle on the
cell that motivated it, EP x ``cache-line``, at an n where it fires.
"""

from __future__ import annotations

import pytest

from repro.campaign import make_tool
from repro.campaign.cell import DEFAULT_SEED
from repro.campaign.schedule import TriggerScheduler
from repro.fi.models import MODEL_ORDER
from repro.fi.tools import TOOL_ORDER
from repro.testing import (
    check_workload_equivalence,
    check_workload_fault_model_equivalence,
)
from repro.workloads import get_workload, workload_names

SMOKE_WORKLOADS = ("CG", "lulesh")

#: Every registered model, plus residency-weighted trigger selection.
MODELS = MODEL_ORDER + ("single-bit:weighted=1",)


class TestFaultModelEquivalenceSmoke:
    @pytest.mark.parametrize("workload", SMOKE_WORKLOADS)
    @pytest.mark.parametrize("model", MODELS)
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
        divergence = check_workload_fault_model_equivalence(workload, MODELS)
        assert divergence is None, divergence.describe()


@pytest.mark.slow
class TestRepeatedHangsEquivalence:
    """EP keeps its loop bound in a two-line data segment: under
    ``cache-line`` four in ten tails hang, and the hangs repeat."""

    def test_ep_cache_line_with_endings_reused(self):
        n = 96
        divergence = check_workload_equivalence(
            "EP", n=n, fault_model="cache-line"
        )
        assert divergence is None, divergence.describe()
        # ... and that comparison saw spliced endings, under every tool
        source = get_workload("EP").source
        for tool_name in TOOL_ORDER:
            tool = make_tool(tool_name, source, "EP", fault_model="cache-line")
            sched = TriggerScheduler(tool, n)
            assert sum(1 for _ in sched.run_batch(DEFAULT_SEED, range(n))) == n
            assert sched.stats.ending_hits > 0, tool_name
