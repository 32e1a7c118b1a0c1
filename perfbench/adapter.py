"""Signature-tolerant calls into ``repro``.

The production path today is selected by three knobs (``engine="fast"``,
``schedule="trigger"``, ``snapshot_interval=0``).  ROADMAP item 2 makes
that path the only one and deletes the knobs; passing each knob only while
the callee still accepts it lets that PR land without editing this
directory.  The oracle (reference engine, index order, no snapshots) is the
opposite: if its knobs are gone, pinning (``pin.py``, the only strict
caller) must fail rather than silently pin the path under test.  A lap
never fails for a lost knob: without a reference engine an unpinned seed
keeps its structural checks and says so.
"""

from __future__ import annotations

import dataclasses
import inspect

from repro.campaign import make_tool, run_campaign
from repro.dist.protocol import CampaignSpec
from repro.workloads import workload_sources

PRODUCTION = {"engine": "fast", "schedule": "trigger", "snapshot_interval": 0}
ORACLE = {"engine": "reference", "schedule": "index", "snapshot_interval": None}


def accepted(callee, **kwargs) -> dict:
    """The subset of ``kwargs`` that ``callee``'s signature still takes."""
    params = inspect.signature(callee).parameters
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return kwargs
    return {k: v for k, v in kwargs.items() if k in params}


def _strict(callee, knobs: dict) -> dict:
    missing = sorted(set(knobs) - set(accepted(callee, **knobs)))
    if missing:
        raise RuntimeError(
            f"{callee.__name__} no longer accepts {missing}: the oracle path "
            "moved, update perfbench/adapter.py before re-pinning"
        )
    return knobs


def _make(cell, knobs: dict):
    model = None if cell.model == "single-bit" else cell.model
    return make_tool(
        cell.tool, workload_sources()[cell.program], cell.program,
        fault_model=model, **accepted(make_tool, **knobs),
    )


def build_tool(cell, *, oracle: bool = False, snapshot_dir=None):
    """The configured (not yet compiled) tool for one cell."""
    knobs = dict(ORACLE if oracle else PRODUCTION)
    if oracle:
        _strict(make_tool, knobs)
    elif snapshot_dir is not None:
        knobs["snapshot_dir"] = snapshot_dir
    return _make(cell, knobs)


def reference_tool(cell):
    """The cell's tool on the reference engine, for the record-for-record
    sample an unpinned seed gets, or ``None`` once ``make_tool`` has lost
    ``engine``.  Unlike pinning this insists on nothing else: a single
    ``run_experiment`` has no visiting order, and the snapshot knob rides
    along only while it exists."""
    if not accepted(make_tool, engine=ORACLE["engine"]):
        return None
    return _make(cell, ORACLE)


def run_cell(tool, cell, seed: int, *, oracle: bool = False, **kwargs):
    """``run_campaign`` of one cell with per-experiment records kept (the
    correctness check digests them)."""
    knobs = {"schedule": (ORACLE if oracle else PRODUCTION)["schedule"]}
    if oracle:
        _strict(run_campaign, knobs)
    return run_campaign(
        tool, cell.n, seed, keep_records=True,
        **accepted(run_campaign, **knobs), **kwargs,
    )


def service_request(campaign, seed: int) -> dict:
    """The wire request for one service campaign, production knobs
    included while the campaign spec still carries them."""
    spec_fields = {f.name for f in dataclasses.fields(CampaignSpec)}
    request = {
        "workloads": [campaign.program], "tools": list(campaign.tools),
        "n": campaign.n, "base_seed": seed,
    }
    if campaign.model != "single-bit":
        request["fault_model"] = campaign.model
    request.update({k: v for k, v in PRODUCTION.items() if k in spec_fields})
    return request


def fault_free_run(tool):
    """Execute the program once with no fault armed, the way profiling
    does, and return the fresh profile."""
    tool.__dict__.pop("profile", None)  # cached_property: force a re-run
    return tool.profile
