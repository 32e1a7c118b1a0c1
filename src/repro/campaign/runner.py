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
from pathlib import Path
from typing import Callable, Iterable

from repro.campaign.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    CampaignCheckpoint,
    save_checkpoint,
    try_load_checkpoint,
)
from repro.campaign.classify import Outcome, classify
from repro.campaign.events import EventLog
from repro.campaign.io import experiment_event_fields
from repro.campaign.results import CampaignResult, ExperimentRecord
from repro.campaign.schedule import SCHEDULE, PhaseTimes, TriggerScheduler
from repro.errors import CampaignError
from repro.fi.config import FIConfig
from repro.fi.tools import FITool, TOOL_CLASSES
from repro.utils.rng import derive_seed

#: The paper's sample count (Leveugle et al.: <=3% error at 95% confidence).
PAPER_SAMPLES = 1068

#: Default base seed for campaigns.
DEFAULT_SEED = 0x5EED0EF1


def make_tool(
    tool_name: str,
    source: str,
    workload: str,
    config: FIConfig | None = None,
    opt_level: str = "O2",
    opcode_faults: float = 0.0,
    fault_model: str | None = None,
) -> FITool:
    """Build a configured tool.  ``fault_model`` is a :mod:`repro.fi.models`
    spec (``None`` = the paper's single-bit default)."""
    try:
        cls = TOOL_CLASSES[tool_name]
    except KeyError:
        raise CampaignError(
            f"unknown tool {tool_name!r}; choose from {sorted(TOOL_CLASSES)}"
        ) from None
    return cls(
        source, workload, config=config, opt_level=opt_level,
        opcode_faults=opcode_faults, fault_model=fault_model,
    )


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


def _fresh_result(tool: FITool, n: int) -> CampaignResult:
    profile = tool.profile  # compiles + profiles on first access
    return CampaignResult(
        workload=tool.workload,
        tool=tool.name,
        n=n,
        counts={o: 0 for o in Outcome},
        golden_output=profile.golden_output,
        total_candidates=profile.total_candidates,
        fault_model=tool.fault_model.spec,
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
    if n <= 0:
        raise CampaignError("campaign needs n >= 1 experiments")
    if checkpoint_every <= 0:
        raise CampaignError("checkpoint_every must be positive")
    profile = tool.profile

    completed: set[int] = set()
    result = _fresh_result(tool, n)
    ckpt = try_load_checkpoint(checkpoint_path)
    if ckpt is not None:
        ckpt.matches(
            tool.workload, tool.name, n, base_seed, keep_records,
            fault_model=tool.fault_model.spec,
        )
        completed = set(ckpt.completed)
        if ckpt.partial is not None:
            if ckpt.partial.golden_output != profile.golden_output:
                raise CampaignError(
                    "checkpoint golden output differs from the current "
                    "program — was the workload source changed?"
                )
            if ckpt.partial.total_candidates != profile.total_candidates:
                raise CampaignError(
                    "checkpoint total_candidates differ from the current "
                    "program — was the FIConfig changed?"
                )
            result = ckpt.partial

    if events is not None:
        events.emit(
            "campaign_start", workload=tool.workload, tool=tool.name, n=n,
            base_seed=base_seed, resumed=len(completed),
            resumed_counts={o.value: k for o, k in result.counts.items()},
            fault_model=tool.fault_model.spec,
        )

    def _save() -> None:
        save_checkpoint(
            CampaignCheckpoint(
                workload=tool.workload,
                tool=tool.name,
                n=n,
                base_seed=base_seed,
                keep_records=keep_records,
                completed=set(completed),
                partial=result,
                fault_model=tool.fault_model.spec,
            ),
            checkpoint_path,
        )
        if events is not None:
            events.emit(
                "checkpoint", path=str(checkpoint_path),
                completed=len(completed), n=n,
            )

    scheduler = TriggerScheduler(tool, events=events)
    records = scheduler.run_batch(
        base_seed, [i for i in range(n) if i not in completed]
    )

    started = time.monotonic()
    since_checkpoint = 0
    try:
        while True:
            t0 = time.monotonic()
            try:
                record = next(records)
            except StopIteration:
                break
            result.add(record, keep_records)
            completed.add(record.index)
            since_checkpoint += 1
            if events is not None:
                events.emit(
                    "experiment", workload=tool.workload, tool=tool.name,
                    wall_s=time.monotonic() - t0,
                    **experiment_event_fields(record),
                )
            if (
                checkpoint_path is not None
                and since_checkpoint >= checkpoint_every
            ):
                _save()
                since_checkpoint = 0
            if progress is not None:
                progress(len(completed), n)
    except BaseException:
        # Interrupted (e.g. SIGINT): persist what we have so the campaign
        # resumes without losing a single completed experiment.
        if checkpoint_path is not None:
            _save()
        raise
    if checkpoint_path is not None and since_checkpoint:
        _save()
    if keep_records:
        # Experiments complete in trigger order; the persisted log is
        # canonical in global order.
        result.records.sort(key=lambda r: r.index)

    wall = time.monotonic() - started
    if events is not None:
        events.emit(
            "campaign_finish", workload=tool.workload, tool=tool.name,
            counts={o.value: result.frequency(o) for o in Outcome},
            total_cycles=result.total_cycles, total_steps=result.total_steps,
            total_candidates=result.total_candidates,
            golden_output=list(result.golden_output),
            wall_s=wall,
            experiments_per_sec=(len(completed) / wall) if wall > 0 else 0.0,
            schedule=SCHEDULE, phases=scheduler.phases.as_dict(),
            fault_model=tool.fault_model.spec,
            scheduler=scheduler.stats.as_dict(),
        )
    return result


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
    results: dict[tuple[str, str], CampaignResult] = {}
    for workload, source in sources.items():
        for tool_name in tool_names:
            cb = None
            if progress is not None:
                cb = lambda i, total, w=workload, t=tool_name: progress(w, t, i, total)
            ckpt_path = None
            if checkpoint_dir is not None:
                ckpt_path = matrix_checkpoint_path(checkpoint_dir, workload, tool_name)
            if workers > 1:
                from repro.campaign.parallel import run_campaign_parallel

                results[(workload, tool_name)] = run_campaign_parallel(
                    tool_name, source, workload, n, workers=workers,
                    base_seed=base_seed, config=config, opt_level=opt_level,
                    keep_records=keep_records, progress=cb,
                    checkpoint_path=ckpt_path,
                    checkpoint_every=checkpoint_every, events=events,
                    fault_model=fault_model,
                )
            else:
                tool = make_tool(
                    tool_name, source, workload, config, opt_level,
                    fault_model=fault_model,
                )
                results[(workload, tool_name)] = run_campaign(
                    tool, n, base_seed, keep_records=keep_records,
                    progress=cb, checkpoint_path=ckpt_path,
                    checkpoint_every=checkpoint_every, events=events,
                )
    return results


def replay(tool: FITool, seed: int):
    """Re-run a single logged experiment deterministically."""
    return tool.inject(seed)
