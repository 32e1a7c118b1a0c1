"""One campaign cell: what it is (:class:`CampaignSpec`) and the ledger of
what has been done of it (:class:`CampaignCell`).

The paper's unit of work is a (program, tool) cell of n single-fault runs,
run "in batches on a cluster" (Appendix A.4).  Both executors — inline
(:func:`repro.campaign.runner.run_cell`) and leases to service workers
(:class:`repro.service.ServiceCoordinator`, which ``-j N`` runs too) — take
the same spec and keep the same books, so the books are kept here, once: **open**
(resume from a checkpoint that must be this campaign's; nothing is built) →
**bind** (to the :class:`Program` a build of the spec profiled — the inline
runner's own tool, or the plan a service worker returns — which a resumed
checkpoint must match) → **add / fold** (tally, ``experiment`` events, part
validation, duplicates) → **save** (the one place a checkpoint is published)
→ **finish**.  What is left runs in trigger order (:func:`trigger_order`),
cut into shards for workers by :func:`shard_indices`.

The ledger accumulates into one running :class:`CampaignResult` and is the
one place ``total_cycles`` is summed, *exactly*: the sum is held as
non-overlapping partials (Shewchuk's algorithm, the inside of
:func:`math.fsum`) and rounded on read, so it is the correctly rounded sum
of the records' cycles whatever order they arrived in — bit-identical
across executors, shardings, arrival orders and resumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from repro.campaign.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    CampaignCheckpoint,
    save_checkpoint,
    try_load_checkpoint,
)
from repro.campaign.classify import Outcome
from repro.campaign.io import experiment_event_fields
from repro.campaign.results import CampaignResult, ExperimentRecord
from repro.campaign.schedule import (
    SCHEDULE,
    PhaseTimes,
    SchedulerStats,
    resolve_trigger_order,
)
from repro.errors import CampaignError, CampaignSpecError, DistError
from repro.fi.config import FIConfig
from repro.fi.tools import TOOL_CLASSES, FITool

#: Default base seed for campaigns.
DEFAULT_SEED = 0x5EED0EF1


def make_tool(
    tool_name: str,
    source: str,
    workload: str,
    config: FIConfig | None = None,
    opt_level: str = "O2",
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
        fault_model=fault_model,
    )


class Program(NamedTuple):
    """What a cell is bound to: the fault-free output, fault-injection
    candidate count and fault model of the build its spec names.  Every
    part folded into the cell must carry the same three."""

    golden_output: tuple[str, ...]
    total_candidates: int
    fault_model: str

    @classmethod
    def of(cls, tool: FITool) -> "Program":
        """``tool``'s program (it compiles and profiles on first access)."""
        profile = tool.profile
        return cls(
            profile.golden_output, profile.total_candidates,
            tool.fault_model.spec,
        )

    def fresh_result(self, workload: str, tool: str, n: int) -> CampaignResult:
        """An empty result of ``n`` experiments on this program."""
        return CampaignResult(
            workload=workload, tool=tool, n=n,
            counts={o: 0 for o in Outcome},
            golden_output=self.golden_output,
            total_candidates=self.total_candidates,
            fault_model=self.fault_model,
        )


def _fresh_result(tool: FITool, n: int) -> CampaignResult:
    return Program.of(tool).fresh_result(tool.workload, tool.name, n)


def trigger_order(
    tool: FITool, base_seed: int, indices: Iterable[int]
) -> list[int]:
    """``indices`` ordered along the golden timeline: the order a cell's
    shards are cut in, each a **contiguous trigger range** — one compact
    window of the golden run for its executor's cursor."""
    return [
        index for _, index in resolve_trigger_order(tool, base_seed, indices)
    ]


def shard_indices(
    remaining: Iterable[int], size: int
) -> list[tuple[int, ...]]:
    """Cut a work list into consecutive shards of ``size`` indices."""
    if size <= 0:
        raise DistError("chunk_size must be positive")
    remaining = tuple(remaining)
    return [
        remaining[lo:lo + size] for lo in range(0, len(remaining), size)
    ]


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign cell's full parameter set — what every executor takes,
    and everything a worker needs to reproduce the campaign bit for bit.

    An experiment is a pure function of ``(base_seed, workload, tool_name,
    index)``, so anyone handed a spec plus some indices computes exactly
    what a local run would.  The spec is also the wire type (``to_dict`` /
    ``from_dict``; :mod:`repro.dist.protocol` re-exports it).
    """

    workload: str
    source: str
    tool_name: str
    n: int
    base_seed: int = DEFAULT_SEED
    keep_records: bool = False
    opt_level: str = "O2"
    fi_enabled: bool = True
    fi_funcs: str = "*"
    fi_instrs: str = "all"
    #: :mod:`repro.fi.models` spec, held in canonical form so checkpoints,
    #: events and workers' parts all spell it alike; absent in messages
    #: from older coordinators, defaulting to the paper's model.
    fault_model: str = "single-bit"

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise CampaignSpecError("campaign needs n >= 1 experiments")
        # Valid means its tool can be built (nothing compiles yet): one
        # definition of an unknown tool, a bad ``fi_instrs`` or a fault
        # model the tool cannot host.
        try:
            model = self.make_tool().fault_model
        except CampaignError as exc:
            raise CampaignSpecError(str(exc)) from exc
        object.__setattr__(self, "fault_model", model.spec)

    @property
    def key(self) -> tuple[str, str]:
        """The matrix cell this spec fills."""
        return (self.workload, self.tool_name)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        # Defaulted fields may be absent (older coordinators), but the
        # required ones must be present.  Keys that are no field are dropped
        # unread: specs written while the execution path was still a choice
        # name an engine, a schedule and a snapshot interval, and a queue
        # that holds them must outlive the upgrade.  A retired knob that
        # would change what runs is refused instead: an ``opcode_faults``
        # probability mixed OP-code faults into a single-bit campaign.
        if data.get("opcode_faults"):
            raise CampaignSpecError(
                f"opcode_faults={data['opcode_faults']!r} is no longer "
                'supported; run OP-code faults as fault_model="opcode"'
            )
        kwargs = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        try:
            return cls(**kwargs)
        except (KeyError, TypeError) as exc:
            raise DistError(f"malformed campaign spec: {exc}") from exc

    @classmethod
    def for_tool(
        cls, tool: FITool, n: int, base_seed: int = DEFAULT_SEED,
        keep_records: bool = False,
    ) -> "CampaignSpec":
        """The spec of an ``n``-experiment campaign on a tool already
        built (:meth:`make_tool` of it builds ``tool``'s equal)."""
        return cls(
            workload=tool.workload, source=tool.source, tool_name=tool.name,
            n=n, base_seed=base_seed, keep_records=keep_records,
            opt_level=tool.opt_level, fi_enabled=tool.config.enabled,
            fi_funcs=tool.config.funcs, fi_instrs=tool.config.instrs,
            fault_model=tool.fault_model.spec,
        )

    def make_tool(self) -> FITool:
        """The (not yet compiled) tool this cell runs on."""
        return make_tool(
            self.tool_name, self.source, self.workload,
            FIConfig(
                enabled=self.fi_enabled, funcs=self.fi_funcs,
                instrs=self.fi_instrs,
            ),
            self.opt_level, self.fault_model,
        )

    def context_key(self) -> tuple:
        """Everything that determines the compiled tool and its fault plans
        — not which experiments of it are asked for — so every shard of a
        cell, and every campaign over the same binary, maps to one slice
        context."""
        return tuple(
            getattr(self, f.name) for f in fields(self)
            if f.name not in ("n", "base_seed", "keep_records")
        )


def _exact_add(partials: list[float], x: float) -> None:
    """Add ``x`` to a sum held as non-overlapping partials, losing nothing
    (Shewchuk; the loop inside :func:`math.fsum`).  The partials' exact sum
    is the exact sum of everything added, so ``math.fsum(partials)`` is its
    correct rounding — independent of the order of the additions."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class CampaignCell:
    """The ledger of one cell: everything per-cell that is not execution.

    Constructing a cell *opens* it: an existing checkpoint is loaded and
    must match the spec — nothing is compiled.  While anything is left to
    run, the cell is then bound (:meth:`bind`) to the program a build of the
    spec profiled; ``tool`` binds it to that tool's right away.  ``emit(event,
    **fields)`` receives the cell's telemetry, the start/finish pair under
    the executor's ``event_names``.  ``before_save()`` runs ahead of every
    checkpoint publication: the seam for what must be durable first (the
    service commits its results database there, so no checkpoint runs
    ahead of the rows it implies).  Not thread-safe: one executor (or one
    lock) owns a cell.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        tool: FITool | None = None,
        *,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        emit: Callable[..., None] | None = None,
        event_names: tuple[str, str] = ("campaign_start", "campaign_finish"),
        before_save: Callable[[], None] | None = None,
    ) -> None:
        if checkpoint_every <= 0:
            raise CampaignError("checkpoint_every must be positive")
        self.spec = spec
        self.checkpoint_path = checkpoint_path
        self._checkpoint_every = checkpoint_every
        self._emit = emit
        self._start_event, self._finish_event = event_names
        self._before_save = before_save
        #: executor-side breakdowns, summed over whatever was folded in
        self.phases = PhaseTimes()
        self.scheduler = SchedulerStats()
        #: global indices folded in so far, and how many since the last save
        self.completed: set[int] = set()
        self._unsaved = 0
        self._cycles: list[float] = []
        #: the one running result (records in arrival order until
        #: :meth:`finish` sorts them): the checkpoint's partial, or a fresh
        #: one once the cell is bound; ``None`` until either exists
        self.result: CampaignResult | None = None

        ckpt = try_load_checkpoint(checkpoint_path)
        if ckpt is not None:
            ckpt.matches(
                spec.workload, spec.tool_name, spec.n, spec.base_seed,
                spec.keep_records, fault_model=spec.fault_model,
            )
            if ckpt.completed and ckpt.partial is None:
                raise CampaignError(
                    "checkpoint lists completed experiments but holds no "
                    "partial result"
                )
            self.completed, self.result = ckpt.completed, ckpt.partial
            if self.result is not None:
                # files from before the ledger carry only the rounded total
                self._cycles = ckpt.cycle_partials or [self.result.total_cycles]
                self.result.n = spec.n  # the campaign's size
        if tool is not None and not self.done:
            self.bind(Program.of(tool))

    def bind(self, program: Program) -> None:
        """Bind the cell to the program its spec built into: a resumed
        checkpoint must have been left by the same program, a fresh cell
        starts its result from it.  Raises :class:`CampaignError` (and
        changes nothing) for a program that is not the cell's."""
        spec, partial = self.spec, self.result
        if program.fault_model != spec.fault_model:
            raise CampaignError(
                f"a build of cell {spec.key} reports fault model "
                f"{program.fault_model!r}, the spec {spec.fault_model!r} — "
                "another build?"
            )
        if partial is None:
            self.result = program.fresh_result(
                spec.workload, spec.tool_name, spec.n
            )
        elif partial.golden_output != program.golden_output:
            raise CampaignError(
                "checkpoint golden output differs from the current "
                "program — was the workload source changed?"
            )
        elif partial.total_candidates != program.total_candidates:
            raise CampaignError(
                "checkpoint total_candidates differ from the current "
                "program — was the FIConfig changed?"
            )

    @property
    def done(self) -> bool:
        """Has every experiment of the cell been folded in?"""
        return len(self.completed) == self.spec.n

    @property
    def remaining(self) -> list[int]:
        """Indices still to run, ascending."""
        return [i for i in range(self.spec.n) if i not in self.completed]

    def start(self) -> None:
        """Announce the cell: the start event, with what was resumed."""
        spec = self.spec
        counts = (
            {o: 0 for o in Outcome} if self.result is None
            else self.result.counts
        )
        self._send(
            self._start_event, workload=spec.workload, tool=spec.tool_name,
            n=spec.n, base_seed=spec.base_seed, resumed=len(self.completed),
            resumed_counts={o.value: k for o, k in counts.items()},
            fault_model=spec.fault_model,
        )

    def add(self, record: ExperimentRecord, **tags) -> None:
        """Tally one finished experiment and emit its ``experiment`` event;
        ``tags`` say who ran it (``wall_s``, or ``task`` + ``worker``).  The record itself is kept only if the spec asks, so
        none can reach a checkpoint of a campaign that did not."""
        spec = self.spec
        self.result.add(record, spec.keep_records)
        _exact_add(self._cycles, record.cycles)
        self.result.total_cycles = math.fsum(self._cycles)
        self.completed.add(record.index)
        self._unsaved += 1
        if self._emit is not None:
            self._emit(
                "experiment", workload=spec.workload, tool=spec.tool_name,
                **tags, **experiment_event_fields(record),
            )

    def fold(
        self, indices: Iterable[int], part: CampaignResult, **tags
    ) -> bool:
        """Fold in the part some executor computed for ``indices``:
        validate it, then :meth:`add` each record.

        Returns ``False`` for an exact duplicate — every index already
        folded in; at-least-once delivery makes those normal and purity
        makes them provably identical — which is dropped without a trace.
        Raises :class:`CampaignError` for a part that overlaps what is
        folded in only partially, and for one that is not this cell's: a
        peer that disagrees about the program is corruption, not noise.
        """
        if self.result is None:
            raise CampaignError(
                f"cell {self.spec.key} is not bound to a program yet"
            )
        indices = sorted(indices)
        spec, mine = self.spec, self.result
        for what, theirs, ours in (
            ("cell", (part.workload, part.tool), spec.key),
            ("experiment count", sum(part.counts.values()), len(indices)),
            ("indices", sorted(rec.index for rec in part.records), indices),
            ("golden output", part.golden_output, mine.golden_output),
            ("total_candidates", part.total_candidates, mine.total_candidates),
            ("fault model", part.fault_model, spec.fault_model),
        ):
            if theirs != ours:
                who = ", ".join(f"{k} {v!r}" for k, v in tags.items())
                raise CampaignError(
                    f"part ({who}) does not fit cell {spec.key}: its {what} "
                    f"is {theirs!r:.80}, the cell's {ours!r:.80} — another "
                    "build, FIConfig or slice?"
                )
        overlap = self.completed.intersection(indices)
        if overlap:
            if len(overlap) == len(set(indices)):
                return False
            raise CampaignError(
                "parts partially overlap in global experiment indices "
                "and cannot be merged without double-counting"
            )
        for record in part.records:
            self.add(record, **tags)
        self.phases.accumulate(getattr(part, "phase_times", None) or {})
        self.scheduler.accumulate(getattr(part, "scheduler_stats", None) or {})
        return True

    def save_if_due(self) -> None:
        """Checkpoint once ``checkpoint_every`` experiments are unsaved."""
        if self._unsaved >= self._checkpoint_every:
            self.save()

    def save(self) -> None:
        """Publish a checkpoint of everything folded in so far, if the cell
        has a checkpoint path and anything is unsaved."""
        if self.checkpoint_path is None or not self._unsaved:
            return
        if self._before_save is not None:
            self._before_save()
        spec = self.spec
        save_checkpoint(
            CampaignCheckpoint(
                workload=spec.workload, tool=spec.tool_name, n=spec.n,
                base_seed=spec.base_seed, keep_records=spec.keep_records,
                completed=self.completed, partial=self.result,
                fault_model=spec.fault_model, cycle_partials=self._cycles,
            ),
            self.checkpoint_path,
        )
        self._unsaved = 0
        self._send(
            "checkpoint", path=str(self.checkpoint_path),
            completed=len(self.completed), n=spec.n,
        )

    def finish(self, **extra) -> CampaignResult:
        """Close a completed cell: records into index order, whatever is
        unsaved checkpointed, the finish event; returns the result."""
        spec, result = self.spec, self.result
        result.records.sort(key=lambda rec: rec.index)
        self.save()
        self._send(
            self._finish_event, workload=spec.workload, tool=spec.tool_name,
            counts={o.value: result.frequency(o) for o in Outcome},
            total_cycles=result.total_cycles, total_steps=result.total_steps,
            total_candidates=result.total_candidates,
            golden_output=list(result.golden_output),
            **extra,
            schedule=SCHEDULE, fault_model=spec.fault_model,
            phases=self.phases.as_dict(), scheduler=self.scheduler.as_dict(),
        )
        return result

    def _send(self, event: str, **fields) -> None:
        if self._emit is not None:
            self._emit(event, **fields)
