"""Multi-process campaign execution.

The paper runs its 44,856 experiments on a cluster, fully subscribing each
node (Appendix A.4).  This executor cuts what is left of a cell into
**chunks** (several per worker; contiguous trigger ranges, see
:meth:`repro.campaign.cell.CampaignCell.shards`), submits them to a process
pool, and folds completions into the cell ledger as they arrive — so
progress callbacks, telemetry events and checkpoints all happen mid-flight
rather than only at the end.  Each pool process compiles and profiles its
own tool instance once (processes share nothing) and keeps it — and the
trigger scheduler's golden timeline — across its chunks
(:class:`SliceContexts`).  Chunks complete in any order; the ledger's
result does not depend on it (``total_cycles`` included: it is summed
exactly), so a parallel campaign equals the inline one field for field,
whatever the worker count.

:func:`run_slice` is the one slice executor: this module's pool processes,
the distributed worker (:mod:`repro.dist.worker`) and its ``-j N``
sub-slices all run through it.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from typing import Callable, Iterable

from repro.campaign.cell import (
    DEFAULT_SEED,
    CampaignCell,
    CampaignSpec,
    _fresh_result,
)
from repro.campaign.checkpoint import DEFAULT_CHECKPOINT_EVERY
from repro.campaign.classify import Outcome
from repro.campaign.events import EventLog
from repro.campaign.io import merge_results
from repro.campaign.results import CampaignResult
from repro.campaign.schedule import (
    PhaseTimes,
    SchedulerStats,
    TriggerScheduler,
)
from repro.errors import CampaignError
from repro.fi.config import FIConfig
from repro.fi.tools import FITool

#: Target number of chunks handed to each worker.  More than one, so that
#: completions trickle in and progress/checkpointing can happen mid-flight.
CHUNKS_PER_WORKER = 4

#: Compiled tools (each with its scheduler and golden timeline, ~4 MiB) one
#: slice executor keeps.  Tasks are leased cell by cell, so an executor
#: works on one cell, straddles two at a boundary, and may see a requeued
#: lease of an older one: three contexts catch every such reuse, while a
#: worker that lives through thousands of campaigns stays bounded.
CONTEXT_CAPACITY = 3


class SliceContexts:
    """A slice executor's LRU of ``(tool, scheduler)`` contexts.

    Owned by exactly one executor at a time — one per distributed
    :class:`~repro.dist.worker.Worker`, one per pool process: tools and
    schedulers are not thread-safe, so ``Worker``s that a caller runs on
    threads of one process never share one.
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


#: The process's own contexts: what lets a pool process's chunks share one
#: compile, one profile and one golden timeline.
_process_contexts = SliceContexts()


def run_slice(
    spec: CampaignSpec,
    indices: Iterable[int],
    contexts: SliceContexts | None = None,
) -> CampaignResult:
    """Run the experiments ``indices`` of ``spec``'s campaign.

    ``contexts`` is the calling executor's context cache; a slice whose
    tool is already there skips compile and profile, and replays only its
    own window of the retained golden timeline.
    The default is the process's own cache — what a pool process's chunks
    share; an executor that is one of several threads passes its own.

    Per-experiment records are always collected here — the cell ledger
    needs them to tally, to emit ``experiment`` telemetry events and to
    feed write-through result sinks (:mod:`repro.resultsdb`) — and are
    dropped by the ledger when the campaign did not ask for
    ``keep_records``.
    The phase/scheduler breakdowns riding back on the result are this
    slice's own (deltas of a reused context), so the ledger sums them.
    """
    if contexts is None:
        contexts = _process_contexts
    tool, sched = contexts.get(spec)
    indices = tuple(indices)
    result = _fresh_result(tool, len(indices))
    # The slice is a contiguous trigger range: fork it along the
    # scheduler's golden timeline.
    for rec in sched.run_batch(spec.base_seed, indices):
        result.add(rec, keep_record=True)
    result.phase_times = sched.phases.as_dict()
    result.scheduler_stats = sched.stats.as_dict()
    return result


def merge_slice_parts(
    parts: list[CampaignResult], slices: list[tuple[int, ...]]
) -> CampaignResult:
    """One part for a task that was run as several sub-slices (a worker's
    ``-j N``): results merged, per-slice breakdowns summed."""
    merged = merge_results(parts, indices=slices)
    merged.n = sum(len(sub) for sub in slices)
    phases, totals = PhaseTimes(), SchedulerStats()
    for part in parts:
        phases.accumulate(part.phase_times)
        totals.accumulate(part.scheduler_stats)
    merged.phase_times = phases.as_dict()
    merged.scheduler_stats = totals.as_dict()
    return merged


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
    """Run ``n`` experiments across ``workers`` processes.

    Produces the result of the sequential
    :func:`repro.campaign.run_campaign` with the same ``base_seed`` — the
    full tool configuration (``config``, ``opcode_faults``) is forwarded to
    the workers, so the parallel fault model is exactly the sequential one.
    See :func:`run_cell_parallel`, which this builds the spec for.
    """
    config = config or FIConfig()
    spec = CampaignSpec(
        workload=workload, source=source, tool_name=tool_name, n=n,
        base_seed=base_seed, keep_records=keep_records, opt_level=opt_level,
        fi_enabled=config.enabled, fi_funcs=config.funcs,
        fi_instrs=config.instrs, opcode_faults=opcode_faults,
        fault_model=fault_model,
    )
    return run_cell_parallel(
        spec, workers, progress=progress, checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every, events=events,
        chunk_size=chunk_size,
    )


def run_cell_parallel(
    spec: CampaignSpec,
    workers: int = 2,
    *,
    progress: Callable[[int, int], None] | None = None,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    events: EventLog | None = None,
    chunk_size: int | None = None,
) -> CampaignResult:
    """The pool executor: run what is left of one cell across ``workers``
    processes, folding each finished chunk into the cell ledger
    (:class:`~repro.campaign.cell.CampaignCell`, which owns resume,
    validation, telemetry and checkpoints).

    ``progress(done, n)`` fires after every completed chunk.  With
    ``checkpoint_path``, the partial result is atomically persisted
    roughly every ``checkpoint_every`` experiments (and on interruption),
    and an existing checkpoint is resumed by cutting chunks from what it
    has not completed.

    Chunks are **contiguous trigger ranges** (``chunk_size`` experiments;
    default: :data:`CHUNKS_PER_WORKER` per worker), so each process's
    golden cursor sweeps one compact window of the timeline.  A single
    chunk runs in this process, skipping the pool.
    """
    if workers <= 0:
        raise CampaignError("workers must be positive")
    if chunk_size is not None and chunk_size <= 0:
        raise CampaignError("chunk_size must be positive")
    # The parent's own context: opening the cell, trigger resolution and a
    # single in-process chunk share one compile.
    contexts = SliceContexts()
    tool, _ = contexts.get(spec)
    emit = None if events is None else events.emit
    cell = CampaignCell(
        spec, tool, checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every, emit=emit,
    )
    cell.start(workers=workers)
    if cell.done:
        return cell.finish()  # resumed a finished campaign: nothing to run

    t0 = time.perf_counter()
    if chunk_size is None:
        left = spec.n - len(cell.completed)
        chunk_size = max(
            1, math.ceil(left / (min(workers, left) * CHUNKS_PER_WORKER))
        )
    chunks = cell.shards(chunk_size)
    cell.phases.translate_s += time.perf_counter() - t0

    def fold_chunk(ci: int, part: CampaignResult) -> None:
        """Fold one finished chunk in, then its summary events, a
        checkpoint if one is due, and the progress callback."""
        cell.fold(chunks[ci], part, chunk=ci)
        if emit is not None:
            emit(
                "chunk_done", chunk=ci, size=len(chunks[ci]),
                completed=len(cell.completed), n=spec.n,
                counts={o.value: part.frequency(o) for o in Outcome},
            )
            emit(
                "scheduler_stats", workload=spec.workload,
                tool=spec.tool_name, chunk=ci, **part.scheduler_stats,
            )
        cell.save_if_due()
        if progress is not None:
            progress(len(cell.completed), spec.n)

    if len(chunks) == 1:
        # One chunk: run in-process, skipping pool overhead.
        try:
            fold_chunk(0, run_slice(spec, chunks[0], contexts))
        except BaseException:
            cell.save()
            raise
        return cell.finish()
    with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        futures = {
            pool.submit(run_slice, spec, chunk): ci
            for ci, chunk in enumerate(chunks)
        }
        if emit is not None:
            for ci, chunk in enumerate(chunks):
                emit("worker_start", chunk=ci, size=len(chunk))
        try:
            for fut in as_completed(futures):
                fold_chunk(futures[fut], fut.result())
        except BaseException:
            # Interrupted (or a progress/worker failure): stop handing
            # out new chunks and persist everything that finished.
            for fut in futures:
                fut.cancel()
            cell.save()
            raise
    return cell.finish()
