"""Shared fixtures: one sequential two-tool campaign with a live event
log, reused as ground truth across the resultsdb test modules."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.campaign import run_campaign
from repro.campaign.events import EventLog
from repro.campaign import make_tool

from tests.conftest import DEMO_SOURCE

#: Experiments per cell — enough for several functions/opcodes/kinds to
#: appear in the breakdowns, small enough for tier-1 speed.
N = 48


@pytest.fixture(scope="session")
def ground_truth(tmp_path_factory):
    """Two sequential cells (REFINE + PINFI) sharing one event log.

    Returns ``.results`` (tool name -> CampaignResult with records),
    ``.log`` (the JSONL event stream both cells wrote) and ``.n``.
    """
    root = tmp_path_factory.mktemp("resultsdb")
    log = root / "events.jsonl"
    results = {}
    with EventLog(log) as events:
        for tool_name in ("REFINE", "PINFI"):
            tool = make_tool(tool_name, DEMO_SOURCE, "demo")
            results[tool_name] = run_campaign(
                tool, n=N, keep_records=True, events=events
            )
    return SimpleNamespace(results=results, log=log, n=N)
