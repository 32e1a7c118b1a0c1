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
"""

from __future__ import annotations

import re
import time
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

from repro.campaign.cell import DEFAULT_SEED, CampaignCell, CampaignSpec
from repro.campaign.checkpoint import DEFAULT_CHECKPOINT_EVERY
from repro.campaign.classify import classify
from repro.campaign.events import EventLog
from repro.campaign.parallel import run_cell_parallel
from repro.campaign.results import CampaignResult, ExperimentRecord
from repro.campaign.schedule import PhaseTimes, TriggerScheduler
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
    cell = CampaignCell(
        spec, tool, checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        emit=None if events is None else events.emit,
    )
    cell.start()
    scheduler = TriggerScheduler(cell.tool, spec.n, events=events)
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
    finished ones.  ``workers > 1`` runs each cell with the multi-process
    runner (identical results, any worker count).
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
    """Run each spec's cell in turn — inline, or over a ``workers``-process
    pool when ``workers > 1`` — and return the result matrix.  What
    :func:`run_matrix` does once it has its specs."""
    results: dict[tuple[str, str], CampaignResult] = {}
    for spec in specs:
        cb = ckpt_path = None
        if progress is not None:
            cb = lambda i, total, s=spec: progress(
                s.workload, s.tool_name, i, total
            )
        if checkpoint_dir is not None:
            ckpt_path = matrix_checkpoint_path(
                checkpoint_dir, spec.workload, spec.tool_name
            )
        run = partial(run_cell_parallel, workers=workers) if workers > 1 else run_cell
        results[spec.key] = run(
            spec, progress=cb, checkpoint_path=ckpt_path,
            checkpoint_every=checkpoint_every, events=events,
        )
    return results


def replay(tool: FITool, seed: int):
    """Re-run a single logged experiment deterministically."""
    return tool.inject(seed)
