"""The reference campaign: the oracle production campaigns are held to.

One definition of "what a campaign computes", sharing nothing with how
production computes it: every run — the profile included — executes on the
interpreter loop of :mod:`repro.machine.cpu`, experiments are visited in
index order, and each starts from instruction 0.  No block translation, no
golden cursor, no forks, no rejoin.  It is n times slower than
:func:`repro.campaign.run_campaign` and exists only to be compared with it
(:func:`repro.testing.oracles.check_workload_equivalence`).
"""

from __future__ import annotations

from repro.campaign.cell import DEFAULT_SEED, _fresh_result, make_tool
from repro.campaign.results import CampaignResult
from repro.campaign.runner import run_experiment
from repro.machine.cpu import CPU, ExecutionResult


class ReferenceEngine:
    """The interpreter loop behind the engine interface a tool runs on."""

    name = "reference"

    def run(self, cpu: CPU, budget: int | None = None) -> ExecutionResult:
        return cpu.run(budget)


def reference_campaign(
    tool_name: str,
    source: str,
    workload: str,
    n: int,
    base_seed: int = DEFAULT_SEED,
    fault_model: str | None = None,
) -> CampaignResult:
    """Run experiments ``0..n-1`` of a campaign the slow, obvious way and
    return the result with every record kept, in index order."""
    tool = make_tool(tool_name, source, workload, fault_model=fault_model)
    tool.engine = ReferenceEngine()
    result = _fresh_result(tool, n)
    for index in range(n):
        result.add(run_experiment(tool, base_seed, index), keep_record=True)
    return result
