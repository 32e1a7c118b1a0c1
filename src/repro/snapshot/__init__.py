"""CPU state snapshots: capture, restore and digest.

A :class:`CpuSnapshot` freezes one execution context — registers, flags,
memory as copy-on-write page deltas, the I/O cursor and every tool
counter — so that a restored CPU continues bit-identically to the run it
was captured from.  The trigger scheduler
(:mod:`repro.campaign.schedule`) builds on it: the forks its golden cursor
captures ahead of each injection point and the sync states of its
:class:`~repro.campaign.schedule.GoldenTimeline` are all snapshots.
"""

from repro.snapshot.state import (
    PAGE_SIZE,
    CpuSnapshot,
    base_pages,
    capture_snapshot,
    cpu_state_digest,
    restore_snapshot,
)

__all__ = [
    "PAGE_SIZE",
    "CpuSnapshot",
    "base_pages",
    "capture_snapshot",
    "cpu_state_digest",
    "restore_snapshot",
]
