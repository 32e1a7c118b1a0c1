"""Multi-process campaign execution.

The paper runs its 44,856 experiments on a cluster, fully subscribing each
node (Appendix A.4).  This runner partitions a campaign's experiment
indices into **chunked sub-slices** (several chunks per worker), submits
them to a process pool, and consumes completions with ``as_completed`` —
so progress callbacks, telemetry events and checkpoints all happen
mid-flight rather than only at the end.  Each worker process compiles and
profiles its own tool instance once (processes share nothing), keeps it —
and the trigger scheduler's golden timeline — across its chunks
(:class:`SliceContexts`), and returns partial :class:`CampaignResult`
objects; parts are merged **in chunk order** by
:func:`repro.campaign.io.merge_results`, so a parallel campaign is
bit-identical to the sequential one regardless of worker count.

:func:`run_slice` is the one slice executor: this module's pool processes,
the distributed worker (:mod:`repro.dist.worker`) and its ``-j N``
sub-slices all run through it.

Seeds are derived from the *global* experiment index, which also makes
checkpoint resume trivial: completed indices are simply excluded from the
next run's chunks.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.campaign.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    CampaignCheckpoint,
    save_checkpoint,
    try_load_checkpoint,
)
from repro.campaign.events import EventLog
from repro.campaign.io import experiment_event_fields, merge_results
from repro.campaign.results import CampaignResult
from repro.campaign.runner import DEFAULT_SEED, _fresh_result
from repro.campaign.schedule import (
    SCHEDULE,
    PhaseTimes,
    SchedulerStats,
    TriggerScheduler,
    resolve_trigger_order,
)
from repro.errors import CampaignError
from repro.fi.config import FIConfig
from repro.fi.models import resolve_fault_model
from repro.fi.tools import TOOL_CLASSES, FITool
from repro.campaign.classify import Outcome

#: Target number of chunks handed to each worker.  More than one, so that
#: completions trickle in and progress/checkpointing can happen mid-flight.
CHUNKS_PER_WORKER = 4

#: Compiled tools (each with its scheduler and golden timeline, ~4 MiB) one
#: slice executor keeps.  Tasks are leased cell by cell, so an executor
#: works on one cell, straddles two at a boundary, and may see a requeued
#: lease of an older one: three contexts catch every such reuse, while a
#: worker that lives through thousands of campaigns stays bounded.
CONTEXT_CAPACITY = 3


@dataclass(frozen=True)
class SliceTask:
    """Everything a worker process needs to run a slice of experiments.

    Shared by the multi-process runner here and the distributed workers in
    :mod:`repro.dist` — both execute campaign slices through the exact same
    machinery, so every execution mode produces bit-identical results.
    """

    tool_name: str
    source: str
    workload: str
    opt_level: str
    fi_enabled: bool
    fi_funcs: str
    fi_instrs: str
    base_seed: int
    indices: tuple[int, ...]
    keep_records: bool
    opcode_faults: float
    chunk: int
    #: canonical fault-model spec (repro.fi.models); the single-bit default
    #: keeps pickled/JSON tasks from older coordinators valid.
    fault_model: str = "single-bit"

    def context_key(self) -> tuple:
        """Everything that determines the compiled tool and its fault plans
        — not which experiments of it are asked for (``base_seed``,
        ``indices``), so every shard of a cell, and every campaign over the
        same binary, maps to one context."""
        return (
            self.tool_name, self.source, self.workload, self.opt_level,
            self.fi_enabled, self.fi_funcs, self.fi_instrs,
            self.opcode_faults, self.fault_model,
        )


def make_slice_context(task: SliceTask) -> tuple[FITool, TriggerScheduler]:
    """Build the tool ``task`` runs on and the scheduler that sweeps it."""
    config = FIConfig(
        enabled=task.fi_enabled, funcs=task.fi_funcs, instrs=task.fi_instrs
    )
    tool = TOOL_CLASSES[task.tool_name](
        task.source, task.workload, config=config, opt_level=task.opt_level,
        opcode_faults=task.opcode_faults, fault_model=task.fault_model,
    )
    return tool, TriggerScheduler(tool)


class SliceContexts:
    """A slice executor's LRU of ``(tool, scheduler)`` contexts.

    Owned by exactly one executor at a time — one per distributed
    :class:`~repro.dist.worker.Worker`, one per pool process: tools and
    schedulers are not thread-safe, so threaded workers never share one.
    """

    def __init__(self) -> None:
        self._contexts: OrderedDict[tuple, tuple] = OrderedDict()

    def __len__(self) -> int:
        return len(self._contexts)

    def get(self, task: SliceTask) -> tuple[FITool, TriggerScheduler]:
        key = task.context_key()
        context = self._contexts.get(key)
        if context is None:
            context = self._contexts[key] = make_slice_context(task)
            while len(self._contexts) > CONTEXT_CAPACITY:
                self._contexts.popitem(last=False)
        else:
            self._contexts.move_to_end(key)
        return context


#: The process's own contexts: what lets a pool process's chunks share one
#: compile, one profile and one golden timeline.
_process_contexts = SliceContexts()


def run_slice(
    task: SliceTask, contexts: SliceContexts | None = None
) -> CampaignResult:
    """Run one slice of a campaign.

    ``contexts`` is the calling executor's context cache; a slice whose
    tool is already there skips compile and profile, and replays only its
    own window of the retained golden timeline.
    The default is the process's own cache — what a pool process's chunks
    share; an executor that is one of several threads passes its own.

    Per-experiment records are always collected here — the parent needs
    them to emit ``experiment`` telemetry events and feed write-through
    result sinks (:mod:`repro.resultsdb`) — and are stripped by the parent
    after emission when the campaign did not ask for ``keep_records``.
    The phase/scheduler breakdowns riding back on the result are this
    slice's own (deltas of a reused context), so the parent sums them.
    """
    if contexts is None:
        contexts = _process_contexts
    tool, sched = contexts.get(task)
    result = _fresh_result(tool, len(task.indices))
    # The slice is a contiguous trigger range: fork it along the
    # scheduler's golden timeline.
    for rec in sched.run_batch(task.base_seed, task.indices):
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

    Produces counts identical to the sequential
    :func:`repro.campaign.run_campaign` with the same ``base_seed`` — the
    full tool configuration (``config``, ``opcode_faults``) is forwarded to
    the workers, so the parallel fault model is exactly the sequential one.

    ``progress(done, n)`` fires after every completed chunk.  With
    ``checkpoint_path``, the merged partial result is atomically persisted
    roughly every ``checkpoint_every`` experiments (and on interruption),
    and an existing checkpoint is resumed by excluding its completed
    indices from the new chunks.

    Chunks are **contiguous trigger ranges**: the parent pre-resolves every
    remaining experiment's trigger (a pure function of its seed), sorts by
    ``(trigger, index)``, and cuts chunks along that order, so each worker's
    golden cursor sweeps one compact window of the timeline.  Results stay
    keyed by global experiment index and the merge accepts out-of-order
    parts.
    """
    if n <= 0:
        raise CampaignError("campaign needs n >= 1 experiments")
    if workers <= 0:
        raise CampaignError("workers must be positive")
    if checkpoint_every <= 0:
        raise CampaignError("checkpoint_every must be positive")
    if tool_name not in TOOL_CLASSES:
        raise CampaignError(f"unknown tool {tool_name!r}")
    cls = TOOL_CLASSES[tool_name]
    if not 0.0 <= opcode_faults <= 1.0:
        raise CampaignError("opcode_faults must be a probability")
    if opcode_faults and not cls.supports_opcode_faults:
        # Fail in the parent with the same error the sequential runner's
        # tool constructor raises, instead of a pickled worker traceback.
        raise CampaignError(
            f"{cls.name} operates above the instruction encoding and "
            "cannot model OP-code corruption"
        )
    # Same fail-fast rule for the fault model: parse and tool-compatibility
    # errors surface in the parent, and workers get the canonical spec.
    model = resolve_fault_model(fault_model)
    model.check_tool(cls)
    config = config or FIConfig()

    phases = PhaseTimes()
    scheduler_totals: dict[str, int] = {}
    completed: set[int] = set()
    prior: CampaignResult | None = None
    ckpt = try_load_checkpoint(checkpoint_path)
    if ckpt is not None:
        ckpt.matches(
            workload, tool_name, n, base_seed, keep_records,
            fault_model=model.spec,
        )
        completed = set(ckpt.completed)
        prior = ckpt.partial
    remaining = [i for i in range(n) if i not in completed]

    if events is not None:
        events.emit(
            "campaign_start", workload=workload, tool=tool_name, n=n,
            base_seed=base_seed, resumed=len(completed), workers=workers,
            resumed_counts={} if prior is None
            else {o.value: k for o, k in prior.counts.items()},
            fault_model=model.spec,
        )

    parts: dict[int, CampaignResult] = {}

    def _merged() -> CampaignResult | None:
        ordered = ([] if prior is None else [prior])
        ordered.extend(parts[ci] for ci in sorted(parts))
        if not ordered:
            return None
        merged = merge_results(ordered)
        merged.n = n  # n is the campaign size, not just what has finished
        # Chunks complete out of order (and resume reshuffles them); global
        # experiment index restores the sequential runner's record order.
        merged.records.sort(key=lambda rec: rec.index)
        return merged

    def _save() -> None:
        save_checkpoint(
            CampaignCheckpoint(
                workload=workload,
                tool=tool_name,
                n=n,
                base_seed=base_seed,
                keep_records=keep_records,
                completed=set(completed),
                partial=_merged(),
                fault_model=model.spec,
            ),
            checkpoint_path,
        )
        if events is not None:
            events.emit(
                "checkpoint", path=str(checkpoint_path),
                completed=len(completed), n=n,
            )

    def _finish(result: CampaignResult) -> CampaignResult:
        if events is not None:
            events.emit(
                "campaign_finish", workload=workload, tool=tool_name,
                counts={o.value: result.frequency(o) for o in Outcome},
                total_cycles=result.total_cycles,
                total_steps=result.total_steps,
                total_candidates=result.total_candidates,
                golden_output=list(result.golden_output),
                schedule=SCHEDULE,
                fault_model=model.spec,
                phases=phases.as_dict(),
                scheduler=dict(scheduler_totals),
            )
        return result

    if not remaining:
        # Resuming an already-finished campaign: nothing to run.
        if prior is None:
            raise CampaignError(
                "checkpoint claims completion but holds no partial result"
            )
        return _finish(prior)

    whole = SliceTask(
        tool_name=tool_name,
        source=source,
        workload=workload,
        opt_level=opt_level,
        fi_enabled=config.enabled,
        fi_funcs=config.funcs,
        fi_instrs=config.instrs,
        base_seed=base_seed,
        indices=(),
        keep_records=keep_records,
        opcode_faults=opcode_faults,
        chunk=0,
        fault_model=model.spec,
    )
    # the parent's own context: trigger resolution and a single in-process
    # chunk share one compile
    contexts = SliceContexts()
    # Pre-resolve every remaining experiment's trigger in the parent and
    # re-order the work list along the golden timeline; contiguous chunks of
    # this list are trigger ranges, so each worker's cursor covers one
    # compact window instead of the whole run.
    t0 = time.perf_counter()
    order_tool, _ = contexts.get(whole)
    remaining = [
        i for _, i in resolve_trigger_order(order_tool, base_seed, remaining)
    ]
    phases.translate_s += time.perf_counter() - t0

    workers = min(workers, len(remaining))
    if chunk_size is None:
        chunk_size = max(
            1, math.ceil(len(remaining) / (workers * CHUNKS_PER_WORKER))
        )
    elif chunk_size <= 0:
        raise CampaignError("chunk_size must be positive")
    chunks = [
        tuple(remaining[lo:lo + chunk_size])
        for lo in range(0, len(remaining), chunk_size)
    ]
    tasks = [
        replace(whole, indices=indices, chunk=ci)
        for ci, indices in enumerate(chunks)
    ]

    since_checkpoint = 0

    def _note_done(task: SliceTask, part: CampaignResult) -> None:
        """Fold one finished chunk in: emit telemetry (one ``experiment``
        event per record, then the chunk summary), strip records the
        campaign did not ask to keep, and checkpoint.  Stripping happens
        before the part can reach a checkpoint, so resumed partials match
        the requested ``keep_records``."""
        nonlocal since_checkpoint
        phases.accumulate(part.phase_times)
        sched_stats = part.scheduler_stats
        for key, val in sched_stats.items():
            scheduler_totals[key] = scheduler_totals.get(key, 0) + val
        if events is not None:
            for rec in part.records:
                events.emit(
                    "experiment", workload=workload, tool=tool_name,
                    chunk=task.chunk, **experiment_event_fields(rec),
                )
        if not keep_records:
            part.records = []
        parts[task.chunk] = part
        completed.update(task.indices)
        since_checkpoint += len(task.indices)
        if events is not None:
            events.emit(
                "chunk_done", chunk=task.chunk, size=len(task.indices),
                completed=len(completed), n=n,
                counts={o.value: part.frequency(o) for o in Outcome},
            )
            events.emit(
                "scheduler_stats", workload=workload, tool=tool_name,
                chunk=task.chunk, **sched_stats,
            )
        if checkpoint_path is not None and since_checkpoint >= checkpoint_every:
            _save()
            since_checkpoint = 0
        if progress is not None:
            progress(len(completed), n)

    if len(tasks) == 1:
        # One chunk: run in-process, skipping pool overhead.
        try:
            part = run_slice(tasks[0], contexts)
        except BaseException:
            if checkpoint_path is not None:
                _save()
            raise
        _note_done(tasks[0], part)
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = {pool.submit(run_slice, t): t for t in tasks}
            if events is not None:
                for t in tasks:
                    events.emit(
                        "worker_start", chunk=t.chunk, size=len(t.indices)
                    )
            try:
                for fut in as_completed(futures):
                    task = futures[fut]
                    _note_done(task, fut.result())
            except BaseException:
                # Interrupted (or a progress/worker failure): stop handing
                # out new chunks and persist everything that finished.
                for fut in futures:
                    fut.cancel()
                if checkpoint_path is not None:
                    _save()
                raise
    if checkpoint_path is not None and since_checkpoint:
        _save()
    return _finish(_merged())
