"""Checkpointed campaign execution: atomic persistence of partial results.

A paper-scale matrix (44,856 experiments) takes long enough that a killed
batch job must not lose its progress.  Because every experiment's seed is a
pure function of ``(base_seed, workload, tool, global_index)``, a campaign
can be checkpointed as *(partial result, set of completed indices)* and
resumed by simply skipping the completed indices — the re-run is
bit-identical to an uninterrupted campaign.

Checkpoints are written atomically (write to a temp file in the same
directory, then :func:`os.replace`), so a crash mid-write leaves the
previous checkpoint intact and a reader never observes a torn file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.io import (
    decode_indices,
    encode_indices,
    result_from_dict,
    result_to_dict,
)
from repro.campaign.results import CampaignResult
from repro.errors import CampaignError

CHECKPOINT_VERSION = 1

#: Default number of completed experiments between checkpoint writes.
DEFAULT_CHECKPOINT_EVERY = 50


@dataclass
class CampaignCheckpoint:
    """Everything needed to resume a campaign exactly where it stopped."""

    workload: str
    tool: str
    n: int
    base_seed: int
    keep_records: bool
    completed: set[int] = field(default_factory=set)
    partial: CampaignResult | None = None
    #: fault-model spec the campaign runs under; pre-model checkpoints
    #: deserialize to the single-bit default.
    fault_model: str = "single-bit"
    #: the cell ledger's exact running sum behind ``partial.total_cycles``
    #: (non-overlapping floats that add up to it without rounding), so a
    #: resumed cell keeps summing exactly; ``None`` in files written before
    #: the ledger, which resume from the rounded total.
    cycle_partials: list[float] | None = None

    @property
    def remaining(self) -> list[int]:
        """Global experiment indices still to run, in ascending order."""
        return [i for i in range(self.n) if i not in self.completed]

    def matches(
        self, workload: str, tool: str, n: int, base_seed: int,
        keep_records: bool, fault_model: str = "single-bit",
    ) -> None:
        """Raise :class:`CampaignError` unless this checkpoint belongs to the
        campaign described by the arguments (resuming under different
        parameters would silently corrupt counts)."""
        want = (workload, tool, n, base_seed, keep_records, fault_model)
        have = (self.workload, self.tool, self.n, self.base_seed,
                self.keep_records, self.fault_model)
        names = ("workload", "tool", "n", "base_seed", "keep_records",
                 "fault_model")
        for name, w, h in zip(names, want, have):
            if w != h:
                raise CampaignError(
                    f"checkpoint mismatch: {name} is {h!r} in the checkpoint "
                    f"but {w!r} in this campaign"
                )


def checkpoint_to_dict(ckpt: CampaignCheckpoint) -> dict:
    data = {
        "version": CHECKPOINT_VERSION,
        "workload": ckpt.workload,
        "tool": ckpt.tool,
        "n": ckpt.n,
        "base_seed": ckpt.base_seed,
        "keep_records": ckpt.keep_records,
        "completed": encode_indices(sorted(ckpt.completed)),
        "partial": None if ckpt.partial is None else result_to_dict(ckpt.partial),
        "fault_model": ckpt.fault_model,
    }
    if ckpt.cycle_partials is not None:
        data["cycle_partials"] = ckpt.cycle_partials
    return data


def checkpoint_from_dict(data: dict) -> CampaignCheckpoint:
    if data.get("version") != CHECKPOINT_VERSION:
        raise CampaignError(
            f"unsupported checkpoint version {data.get('version')!r}"
        )
    try:
        partial = data["partial"]
        cycles = data.get("cycle_partials")
        return CampaignCheckpoint(
            workload=data["workload"],
            tool=data["tool"],
            n=data["n"],
            base_seed=data["base_seed"],
            keep_records=data["keep_records"],
            completed=set(decode_indices(data["completed"], data["n"])),
            partial=None if partial is None else result_from_dict(partial),
            fault_model=data.get("fault_model", "single-bit"),
            cycle_partials=(
                None if cycles is None else [float(c) for c in cycles]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CampaignError(f"malformed checkpoint: {exc}") from exc


def save_checkpoint(ckpt: CampaignCheckpoint, path: str | Path) -> None:
    """Atomically persist a checkpoint (temp file + rename)."""
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(checkpoint_to_dict(ckpt)), encoding="utf-8")
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> CampaignCheckpoint:
    """Load a checkpoint; raises :class:`CampaignError` if unreadable."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CampaignError(f"cannot load checkpoint: {exc}") from exc
    return checkpoint_from_dict(data)


def try_load_checkpoint(path: str | Path | None) -> CampaignCheckpoint | None:
    """Load a checkpoint if ``path`` names an existing file, else ``None``.

    A missing file means "fresh campaign"; an *unreadable* file still raises,
    because silently restarting a half-done campaign wastes cluster hours."""
    if path is None or not Path(path).exists():
        return None
    return load_checkpoint(path)
