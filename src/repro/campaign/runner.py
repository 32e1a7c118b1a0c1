"""Campaign orchestration: many single-fault experiments per (workload, tool).

Each experiment is a pure function of ``(base_seed, workload, tool, index)``
via :func:`repro.utils.rng.derive_seed`, so campaigns are reproducible and
each tool samples independent fault coordinates (the paper runs independent
random campaigns per tool and compares the resulting outcome distributions).

That purity is also what makes campaigns *resumable*: a checkpoint is just
the partial result plus the set of completed global indices, and resuming
skips those indices — the final counts are bit-identical to an
uninterrupted run (see :mod:`repro.campaign.checkpoint`).

Experiments are visited in trigger order along one golden run, each faulty
tail forked off it (see :mod:`repro.campaign.schedule`); the index only
names an experiment, it is not when it runs.

A cell runs inline (:func:`run_cell`, one core) or on N campaign-service
workers (``run_cells(specs, workers=N)``: a
:class:`~repro.service.LocalService` on this host); both keep the same
ledger, so either resumes what the other left.
"""

from __future__ import annotations

import queue
import re
import time
from contextlib import ExitStack
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

from repro.campaign.cell import DEFAULT_SEED, CampaignCell, CampaignSpec
from repro.campaign.checkpoint import DEFAULT_CHECKPOINT_EVERY
from repro.campaign.classify import classify
from repro.campaign.events import EventLog
from repro.campaign.results import CampaignResult, ExperimentRecord
from repro.campaign.schedule import PhaseTimes, TriggerScheduler
from repro.errors import CampaignError
from repro.fi.config import FIConfig
from repro.fi.tools import FITool
from repro.utils.rng import derive_seed

#: The paper's sample count (Leveugle et al.: <=3% error at 95% confidence).
PAPER_SAMPLES = 1068


def run_experiment(
    tool: FITool,
    base_seed: int,
    index: int,
    phases: PhaseTimes | None = None,
) -> ExperimentRecord:
    """Run the single experiment at global ``index`` from instruction 0 and
    record it.

    The record equals the one a campaign produces for ``index`` in every
    field but the provenance flag ``snapshot_hit`` (``None`` here: nothing
    was forked).  ``phases`` accumulates the wall-clock breakdown
    (injection run vs. classification).
    """
    seed = derive_seed(base_seed, tool.workload, tool.name, index)
    t0 = time.perf_counter()
    run = tool.inject(seed)
    t1 = time.perf_counter()
    outcome = classify(run.result, tool.profile.golden_output)
    if phases is not None:
        phases.tail_s += t1 - t0
        phases.classify_s += time.perf_counter() - t1
    return ExperimentRecord(
        seed=seed,
        outcome=outcome,
        cycles=run.cycles,
        steps=run.result.steps,
        trap=run.result.trap,
        exit_code=run.result.exit_code,
        fault=run.result.fault,
        index=index,
        engine=tool.engine.name,
    )


def run_campaign(
    tool: FITool,
    n: int,
    base_seed: int = DEFAULT_SEED,
    keep_records: bool = False,
    progress: Callable[[int, int], None] | None = None,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    events: EventLog | None = None,
) -> CampaignResult:
    """Run ``n`` single-fault experiments with the given tool.

    With ``checkpoint_path``, the partial result is atomically persisted
    every ``checkpoint_every`` experiments (and on interruption); if the
    file already exists, the campaign resumes from it, skipping completed
    indices, and the final result is bit-identical to an uninterrupted run.
    ``events`` receives the JSONL telemetry stream (see
    :mod:`repro.campaign.events`).

    Experiments complete in trigger order (see
    :mod:`repro.campaign.schedule`); checkpoints track the completed-index
    *set*, and kept records are returned sorted by index.
    """
    return run_cell(
        CampaignSpec.for_tool(tool, n, base_seed, keep_records), tool,
        progress=progress, checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every, events=events,
    )


def run_cell(
    spec: CampaignSpec,
    tool: FITool | None = None,
    *,
    progress: Callable[[int, int], None] | None = None,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    events: EventLog | None = None,
) -> CampaignResult:
    """The inline executor: run what is left of one cell in this process,
    streaming the scheduler's records into the cell ledger
    (:class:`~repro.campaign.cell.CampaignCell`, which owns resume,
    telemetry and checkpoints).  ``tool`` is the spec's tool if the caller
    has already built it."""
    tool = spec.make_tool() if tool is None else tool
    cell = CampaignCell(
        spec, tool, checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        emit=None if events is None else events.emit,
    )
    cell.start()
    scheduler = TriggerScheduler(tool, spec.n, events=events)
    started = t0 = time.monotonic()
    try:
        for record in scheduler.run_batch(spec.base_seed, cell.remaining):
            cell.add(record, wall_s=time.monotonic() - t0)
            cell.save_if_due()
            if progress is not None:
                progress(len(cell.completed), spec.n)
            t0 = time.monotonic()
    except BaseException:
        # Interrupted (e.g. SIGINT): persist what we have so the campaign
        # resumes without losing a single completed experiment.
        cell.save()
        raise
    cell.phases.accumulate(scheduler.phases.as_dict())
    cell.scheduler.accumulate(scheduler.stats.as_dict())
    wall = time.monotonic() - started
    return cell.finish(
        wall_s=wall,
        experiments_per_sec=(len(cell.completed) / wall) if wall > 0 else 0.0,
    )


def _slug(name: str) -> str:
    return re.sub(r"[^\w.-]", "_", name)


def matrix_checkpoint_path(
    checkpoint_dir: str | Path, workload: str, tool_name: str
) -> Path:
    """Per-cell checkpoint file used by :func:`run_matrix`."""
    return Path(checkpoint_dir) / f"{_slug(workload)}__{_slug(tool_name)}.ckpt.json"


def run_matrix(
    sources: dict[str, str],
    tool_names: Iterable[str],
    n: int,
    base_seed: int = DEFAULT_SEED,
    config: FIConfig | None = None,
    opt_level: str = "O2",
    progress: Callable[[str, str, int, int], None] | None = None,
    keep_records: bool = False,
    workers: int = 1,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    events: EventLog | None = None,
    fault_model: str | None = None,
) -> dict[tuple[str, str], CampaignResult]:
    """Run the full (workload x tool) campaign matrix, like the paper's
    44,856-experiment evaluation (14 apps x 3 tools x 1068 samples).

    ``keep_records=True`` keeps per-experiment :class:`ExperimentRecord`
    fault logs in every cell (so :func:`repro.campaign.save_matrix` can
    persist them).  ``checkpoint_dir`` gives every cell its own checkpoint
    file; re-running the same matrix resumes unfinished cells and skips
    finished ones.  ``workers > 1`` runs each cell on that many service
    worker processes (identical results, any worker count).
    """
    config = config or FIConfig()
    return run_cells(
        [
            CampaignSpec(
                workload=workload, source=source, tool_name=tool_name, n=n,
                base_seed=base_seed, keep_records=keep_records,
                opt_level=opt_level, fi_enabled=config.enabled,
                fi_funcs=config.funcs, fi_instrs=config.instrs,
                fault_model=fault_model,
            )
            for workload, source in sources.items()
            for tool_name in tool_names
        ],
        workers, progress=progress, checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every, events=events,
    )


def run_cells(
    specs: Iterable[CampaignSpec],
    workers: int = 1,
    *,
    progress: Callable[[str, str, int, int], None] | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    events: EventLog | None = None,
) -> dict[tuple[str, str], CampaignResult]:
    """Run each spec's cell in turn — inline, or on ``workers`` service
    worker processes when ``workers > 1`` — and return the result matrix.
    What :func:`run_matrix` does once it has its specs."""
    return _run_cells(
        [
            (spec, None if checkpoint_dir is None
             else matrix_checkpoint_path(checkpoint_dir, *spec.key))
            for spec in specs
        ],
        workers, progress=progress, checkpoint_every=checkpoint_every,
        events=events,
    )


def _run_cells(
    cells: list[tuple[CampaignSpec, str | Path | None]],
    workers: int,
    *,
    progress: Callable[[str, str, int, int], None] | None,
    checkpoint_every: int,
    events: EventLog | None,
    chunk_size: int | None = None,
) -> dict[tuple[str, str], CampaignResult]:
    """:func:`run_cells` over ``(spec, checkpoint path)`` pairs — the form
    :func:`~repro.campaign.parallel.run_campaign_parallel`, which names its
    one file, calls too.  ``chunk_size`` is the workers' task size."""
    if workers < 1:
        raise CampaignError("workers must be positive")
    if chunk_size is not None and chunk_size < 1:
        raise CampaignError("chunk_size must be positive")
    results: dict[tuple[str, str], CampaignResult] = {}
    with ExitStack() as stack:
        run = partial(
            run_cell, checkpoint_every=checkpoint_every, events=events
        )
        if workers > 1 and cells:
            fleet = _Workers(
                min(workers, max(spec.n for spec, _ in cells)), events,
                chunk_size=chunk_size, checkpoint_every=checkpoint_every,
            )
            stack.callback(fleet.service.stop)
            run = fleet.run
        for spec, path in cells:
            results[spec.key] = run(
                spec, checkpoint_path=path,
                progress=None if progress is None
                else partial(progress, spec.workload, spec.tool_name),
            )
    return results


class _Workers:
    """``-j N``: a :class:`~repro.service.LocalService` with N worker
    processes, fed one cell at a time through its coordinator's
    ``add_cells`` (the inline runner's ledger and checkpoint file) and
    collected with ``retire_cells``.

    It is the coordinator's event sink: every event goes on to ``events``,
    and what the caller's thread waits for — a task folded in, the cell
    finished, a task out of attempts — into its inbox.  A cell that is
    interrupted (its progress callback raised, Ctrl-C) is retired the way a
    cancelled campaign is: what was folded is checkpointed, and a later
    part is dropped as a duplicate.
    """

    def __init__(self, workers: int, events: EventLog | None, **kwargs):
        from repro.service import LocalService  # (it builds on this package)

        self._events, self._inbox = events, queue.SimpleQueue()
        self.service = LocalService(workers=workers, events=self, **kwargs)

    def emit(self, event: str, **fields) -> None:
        if self._events is not None:
            self._events.emit(event, **fields)
        if event in ("task_done", "cell_finish", "service_error") and (
            not fields.get("duplicate")
        ):
            self._inbox.put((event, fields))

    def run(
        self, spec: CampaignSpec, *, checkpoint_path: str | Path | None,
        progress: Callable[[int, int], None] | None,
    ) -> CampaignResult:
        """Run one cell to the end, calling ``progress(done, n)`` here once
        per task folded in."""
        coordinator = self.service.coordinator
        coordinator.add_cells(spec, checkpoint_path=checkpoint_path)
        try:
            while True:
                try:
                    event, fields = self._inbox.get(timeout=1.0)
                except queue.Empty:
                    if self.service.join_workers(0.0):
                        raise CampaignError("every worker has exited") from None
                    continue
                if event == "service_error":  # a task ran out of attempts
                    raise CampaignError(fields["error"])
                if event == "cell_finish":
                    return coordinator.retire_cells([spec.key])[spec.key]
                if progress is not None:
                    progress(fields["completed"], fields["n"])
        except BaseException:
            coordinator.retire_cells([spec.key])
            raise


def replay(tool: FITool, seed: int):
    """Re-run a single logged experiment deterministically."""
    return tool.inject(seed)
