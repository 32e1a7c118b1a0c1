"""Multi-process campaign execution: the slice a worker runs.

The paper runs its 44,856 experiments on a cluster, fully subscribing each
node (Appendix A.4).  There is one way onto many cores here, the campaign
service's workers (:mod:`repro.service`, :mod:`repro.dist.worker`); on one
host ``-j N`` is N of them (:func:`repro.campaign.run_cells`).  A cell's
first lease is its **plan** (:func:`run_plan`): the worker builds the cell
— compile, profile — and returns the trigger order of what is left with the
:class:`~repro.campaign.cell.Program` the ledger binds to; the coordinator
cuts that order into **slices**, contiguous trigger ranges, which workers
lease and run here, through :func:`run_slice`.  An executor compiles and
profiles a tool instance once and keeps it, with the trigger scheduler's
golden timeline, across the plans and slices it leases
(:class:`SliceContexts`).  Slices complete in any order; the
cell's ledger does not depend on it (``total_cycles`` included: it is
summed exactly), so a campaign on workers equals the inline one field for
field, whatever the worker count.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Callable, Iterable

from repro.campaign.cell import (
    DEFAULT_SEED,
    CampaignSpec,
    Program,
    _fresh_result,
    trigger_order,
)
from repro.campaign.checkpoint import DEFAULT_CHECKPOINT_EVERY
from repro.campaign.events import EventLog
from repro.campaign.results import CampaignResult
from repro.campaign.runner import _run_cells
from repro.campaign.schedule import TriggerScheduler
from repro.fi.config import FIConfig
from repro.fi.tools import FITool

#: Compiled tools (each with its scheduler and golden timeline, ~4 MiB) one
#: slice executor keeps.  Tasks are leased cell by cell, so an executor
#: works on one cell, straddles two at a boundary, and may see a requeued
#: lease of an older one: three contexts catch every such reuse, while a
#: worker that lives through thousands of campaigns stays bounded.
CONTEXT_CAPACITY = 3


class SliceContexts:
    """A slice executor's LRU of ``(tool, scheduler)`` contexts.

    Owned by exactly one executor at a time — one per distributed
    :class:`~repro.dist.worker.Worker`: tools and schedulers are not
    thread-safe, so ``Worker``s that a caller runs on threads of one
    process never share one.
    """

    def __init__(self) -> None:
        self._contexts: OrderedDict[tuple, tuple] = OrderedDict()

    def __len__(self) -> int:
        return len(self._contexts)

    def get(self, spec: CampaignSpec) -> tuple[FITool, TriggerScheduler]:
        """The tool ``spec`` runs on and the scheduler that sweeps it."""
        key = spec.context_key()
        tool, scheduler = self._contexts.pop(key, (None, None))
        if tool is None:
            tool = spec.make_tool()
        if scheduler is None or scheduler.n != spec.n:
            # (another campaign size over the same binary: same tool, a
            # timeline sized to that cell like every other executor's)
            scheduler = TriggerScheduler(tool, spec.n)
        self._contexts[key] = tool, scheduler  # most recently used last
        while len(self._contexts) > CONTEXT_CAPACITY:
            self._contexts.popitem(last=False)
        return tool, scheduler



def run_plan(
    spec: CampaignSpec,
    indices: Iterable[int],
    contexts: SliceContexts | None = None,
) -> tuple[list[int], Program]:
    """Plan ``spec``'s cell: build its context (kept in ``contexts`` for the
    slices that follow) and return ``indices`` in trigger order, with the
    program the cell's ledger binds to.  A spec that cannot be compiled or
    profiled raises its :class:`~repro.errors.ReproError` here."""
    tool, _ = (SliceContexts() if contexts is None else contexts).get(spec)
    return trigger_order(tool, spec.base_seed, indices), Program.of(tool)


def run_slice(
    spec: CampaignSpec,
    indices: Iterable[int],
    contexts: SliceContexts | None = None,
) -> CampaignResult:
    """Run the experiments ``indices`` of ``spec``'s campaign.

    ``contexts`` is the calling executor's context cache; a slice whose
    tool is already there skips compile and profile, and replays only its
    own window of the retained golden timeline.  Without one, the slice
    builds its tool afresh.

    Per-experiment records are always collected here — the cell ledger
    needs them to tally, to emit ``experiment`` telemetry events and to
    feed write-through result sinks (:mod:`repro.resultsdb`) — and are
    dropped by the ledger when the campaign did not ask for
    ``keep_records``.
    The phase/scheduler breakdowns riding back on the result are this
    slice's own (deltas of a reused context), so the ledger sums them.
    """
    tool, sched = (SliceContexts() if contexts is None else contexts).get(spec)
    indices = tuple(indices)
    result = _fresh_result(tool, len(indices))
    # The slice is a contiguous trigger range: fork it along the
    # scheduler's golden timeline.
    for rec in sched.run_batch(spec.base_seed, indices):
        result.add(rec, keep_record=True)
    result.phase_times = sched.phases.as_dict()
    result.scheduler_stats = sched.stats.as_dict()
    return result


def run_campaign_parallel(
    tool_name: str,
    source: str,
    workload: str,
    n: int,
    workers: int = 2,
    base_seed: int = DEFAULT_SEED,
    config: FIConfig | None = None,
    opt_level: str = "O2",
    keep_records: bool = False,
    opcode_faults: float = 0.0,
    progress: Callable[[int, int], None] | None = None,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    events: EventLog | None = None,
    chunk_size: int | None = None,
    fault_model: str | None = None,
) -> CampaignResult:
    """Run ``n`` experiments on ``workers`` service worker processes
    (``workers=1``: inline), in tasks of ``chunk_size`` experiments
    (default: the service's); ``progress(done, n)`` fires after each.

    Produces the result of the sequential
    :func:`repro.campaign.run_campaign` with the same ``base_seed``: the
    full tool configuration travels in the cell's spec, and
    ``checkpoint_path`` is resumed and kept like the inline runner's.
    """
    config = config or FIConfig()
    spec = CampaignSpec(
        workload=workload, source=source, tool_name=tool_name, n=n,
        base_seed=base_seed, keep_records=keep_records, opt_level=opt_level,
        fi_enabled=config.enabled, fi_funcs=config.funcs,
        fi_instrs=config.instrs, opcode_faults=opcode_faults,
        fault_model=fault_model,
    )
    return _run_cells(
        [(spec, checkpoint_path)], workers,
        progress=None if progress is None
        else lambda _workload, _tool, done, total: progress(done, total),
        checkpoint_every=checkpoint_every, events=events,
        chunk_size=chunk_size,
    )[spec.key]
