"""Fast engine vs the interpreter loop, one experiment at a time.

Campaigns fork their tails off a golden cursor and are held to the oracle
by ``check_workload_equivalence`` (``tests/campaign/test_schedule.py``).
A *single* experiment — replay, the scheduler's safety net — has no prefix
to share and runs ``tool.inject`` from instruction 0 on the fast engine;
that path must match the reference campaign's record for the same index
just the same.
"""

import pytest

from repro.campaign import make_tool, run_experiment
from repro.campaign.io import experiment_event_fields
from repro.campaign.runner import DEFAULT_SEED
from repro.fi.tools import TOOL_ORDER
from repro.testing import reference_campaign
from repro.workloads import get_workload

SMOKE_WORKLOAD = "EP"


def _fields(record):
    fields = experiment_event_fields(record)
    fields.pop("engine")
    return fields


def test_engine_equivalence_smoke():
    source = get_workload(SMOKE_WORKLOAD).source
    for tool_name in TOOL_ORDER:
        oracle = reference_campaign(tool_name, source, SMOKE_WORKLOAD, 4)
        tool = make_tool(tool_name, source, SMOKE_WORKLOAD)
        for want in oracle.records:
            got = run_experiment(tool, DEFAULT_SEED, want.index)
            assert got.engine == "fast" and want.engine == "reference"
            assert _fields(got) == _fields(want), (tool_name, want.index)


@pytest.mark.slow
def test_engine_oracle_on_fuzzed_modules():
    from repro.testing import ORACLES
    from repro.testing.generator import generate_module

    oracle = ORACLES["engine"]
    for seed in range(25):
        module = generate_module(seed=seed)
        divergence = oracle.check(module)
        assert divergence is None, divergence.describe()
