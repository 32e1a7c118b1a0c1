"""Tails forked off golden-run snapshots are bit-identical to from-scratch.

Every experiment of a production campaign resumes from a
:class:`~repro.snapshot.CpuSnapshot` of the golden run instead of
re-executing the fault-free prefix.  That may change *how fast* a campaign
runs, never *what* it computes: cell by cell, record by record, the result
equals the reference campaign's, whose every run starts at instruction 0
(on the interpreter loop, in index order).  The full workload matrix runs
under ``-m slow`` in ``tests/campaign/test_schedule.py``.
"""

from __future__ import annotations

import pytest

from repro.campaign import run_campaign
from repro.campaign.parallel import run_campaign_parallel
from repro.campaign import make_tool
from repro.fi.tools import TOOL_ORDER
from repro.testing import reference_campaign
from repro.workloads import get_workload

WORKLOADS = ("EP", "DC")
N = 8


def _source(name):
    return get_workload(name).source


def assert_records_identical(a, b, context=""):
    assert len(a.records) == len(b.records), context
    for ra, rb in zip(a.records, b.records):
        assert ra.index == rb.index, context
        assert ra.seed == rb.seed, (context, ra.index)
        assert ra.outcome == rb.outcome, (context, ra.index)
        assert ra.steps == rb.steps, (context, ra.index)
        assert ra.trap == rb.trap, (context, ra.index)
        assert ra.exit_code == rb.exit_code, (context, ra.index)
        assert ra.fault == rb.fault, (context, ra.index)
        assert ra.cycles == rb.cycles, (context, ra.index)
    assert a.counts == b.counts, context
    assert a.total_steps == b.total_steps, context


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("tool_name", TOOL_ORDER)
def test_sequential_snapshot_equals_scratch(workload, tool_name):
    source = _source(workload)
    ref = reference_campaign(tool_name, source, workload, N)
    out = run_campaign(
        make_tool(tool_name, source, workload), N, keep_records=True
    )
    assert_records_identical(ref, out, f"{workload}/{tool_name}")
    # every tail was served from a fork, none re-ran the prefix
    assert all(rec.snapshot_hit for rec in out.records)
    assert not any(rec.snapshot_hit for rec in ref.records)


def test_parallel_snapshot_equals_scratch():
    workload, tool_name = "EP", "REFINE"
    source = _source(workload)
    ref = reference_campaign(tool_name, source, workload, N)
    out = run_campaign_parallel(
        tool_name, source, workload, N, workers=2, keep_records=True,
        chunk_size=2,
    )
    assert_records_identical(ref, out, "parallel EP/REFINE")
