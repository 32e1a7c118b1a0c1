"""Snapshot state: capture and restore of full CPU architectural state.

A :class:`CpuSnapshot` freezes everything one execution context needs to
resume mid-program and remain bit-identical to an uninterrupted run:

* register file (integer + float), FLAGS, the resume ``pc``;
* the call stack and all of data memory, stored as **page deltas** — only
  pages that differ from the freshly loaded image are kept, and pages
  unchanged since the previous snapshot share the same ``bytes`` object,
  so a snapshot holds (and a capture copies) O(dirty pages); finding them
  is one in-place memcmp per page of the address space;
* the I/O cursor (everything printed so far);
* the dynamic accounting the fault-injection tools trigger on: ``steps``,
  per-pc execution ``counts``, and the PINFI/REFINE/LLFI candidate
  counters.

Capture happens at instruction boundaries via
:meth:`repro.machine.cpu.CPU.record_snapshots`; restore targets a freshly
constructed CPU whose memory is still the pristine loaded image (that is
what makes restore O(dirty pages)).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from repro.machine.cpu import CPU

#: Granularity of memory deltas.  4 KiB mirrors a hardware page and keeps
#: the default 1 MiB address space at 256 comparisons per capture.
PAGE_SIZE = 4096

_PACK_D = struct.Struct("<d")


@dataclass(frozen=True)
class CpuSnapshot:
    """One resumable point of a fault-free (golden) execution."""

    #: pc of the next instruction to execute on resume
    pc: int
    #: dynamic instructions executed before this point
    steps: int
    iregs: tuple[int, ...]
    fregs: tuple[float, ...]
    flags: int
    #: output lines printed so far (the I/O cursor)
    output: tuple[str, ...]
    #: per-static-instruction execution counts
    counts: tuple[int, ...]
    #: tool trigger counters at this boundary
    pin_count: int
    refine_count: int
    llfi_count: int
    #: page index -> PAGE_SIZE bytes differing from the fresh memory image
    pages: dict[int, bytes] = field(default_factory=dict)
    #: PINFI attached-phase counts when they are a *distinct* array (i.e.
    #: the snapshot was taken after detach); ``None`` when absent or still
    #: aliasing ``counts`` (see ``attached_alias``)
    counts_attached: tuple[int, ...] | None = None
    #: was the DBI tool still attached at capture time?
    attached: bool = False
    #: did ``cpu.counts_attached`` alias ``cpu.counts`` at capture time?
    attached_alias: bool = False
    #: candidates executed while attached (fixed at detach time)
    attached_candidates: int = 0

    @property
    def dirty_pages(self) -> int:
        return len(self.pages)

    def counter(self, name: str) -> int:
        """The trigger counter a tool bisects on (``pin_count`` /
        ``refine_count`` / ``llfi_count``)."""
        return getattr(self, name)


def base_pages(program) -> list[bytes]:
    """Split a program's freshly loaded memory image into pages (the
    reference each snapshot's deltas are computed against).  Equal pages —
    nearly all of the image is zeros — share one object."""
    mem = program.fresh_memory()
    view = memoryview(mem)
    distinct: dict[bytes, bytes] = {}
    return [
        distinct.setdefault(page, page)
        for page in (
            bytes(view[off : off + PAGE_SIZE])
            for off in range(0, len(mem), PAGE_SIZE)
        )
    ]


def capture_snapshot(
    cpu: CPU,
    pc: int,
    prev: CpuSnapshot | None = None,
    base: list[bytes] | None = None,
) -> CpuSnapshot:
    """Capture the CPU's state at an instruction boundary.

    ``prev`` is the previous snapshot of the same run (pages unchanged
    since it are shared, pages changed are re-scanned against the fresh
    image via ``base``).  ``base`` is :func:`base_pages` of the program;
    computed on the fly when omitted (cheap, but recorders should pass it).
    """
    if base is None:
        base = base_pages(cpu.program)
    # Compare in place: ``startswith(page, off)`` is a memcmp against the
    # live image (no copy of the address space, no slice per page), and
    # only a page that differs is materialised.
    mem = cpu.mem
    pages: dict[int, bytes] = {} if prev is None else dict(prev.pages)
    for idx, clean in enumerate(base):
        off = idx * PAGE_SIZE
        if not mem.startswith(pages.get(idx, clean), off):
            pages[idx] = bytes(mem[off : off + PAGE_SIZE])
    ca = cpu.counts_attached
    alias = ca is cpu.counts
    return CpuSnapshot(
        pc=pc,
        steps=cpu.steps,
        iregs=tuple(cpu.iregs),
        fregs=tuple(cpu.fregs),
        flags=cpu.flags,
        output=tuple(cpu.output),
        counts=tuple(cpu.counts),
        pin_count=cpu._pin_count,
        refine_count=cpu._refine_count,
        llfi_count=cpu._llfi_count,
        pages=pages,
        # Preserve the attached/detached distinction: a distinct attached
        # array (post-detach) is stored verbatim; an alias is re-created at
        # restore time rather than duplicated.
        counts_attached=(
            None if ca is None or alias else tuple(ca)
        ),
        attached=cpu._attached,
        attached_alias=alias,
        attached_candidates=cpu.attached_candidates,
    )


def restore_snapshot(cpu: CPU, snap: CpuSnapshot) -> None:
    """Restore ``snap`` onto a **freshly constructed** CPU.

    The CPU's memory must still be the pristine loaded image (which is what
    ``CPU.__init__`` installs), so only the snapshot's dirty pages need to
    be written — restore is O(dirty pages + static code size).  Follow with
    ``cpu.resume(snap.pc, budget=...)``.
    """
    # In place: the fast engine's instantiated blocks capture these lists
    # (and ``cpu.mem``) by identity, so restore must not replace them.
    cpu.iregs[:] = snap.iregs
    cpu.fregs[:] = snap.fregs
    cpu.flags = snap.flags
    cpu.steps = snap.steps
    cpu.output = list(snap.output)
    cpu.counts = list(snap.counts)
    cpu._pin_count = snap.pin_count
    cpu._refine_count = snap.refine_count
    cpu._llfi_count = snap.llfi_count
    mem = cpu.mem
    for idx, data in snap.pages.items():
        off = idx * PAGE_SIZE
        mem[off : off + len(data)] = data
    # PINFI attach/detach state travels with the snapshot.  While attached,
    # counts accumulate into the attached array (re-establish the alias
    # attach_pinfi() set up); after detach, the attached array is frozen
    # and distinct from the post-detach counts.
    cpu._attached = snap.attached
    cpu.attached_candidates = snap.attached_candidates
    if snap.attached_alias:
        cpu.counts_attached = cpu.counts
    elif snap.counts_attached is not None:
        cpu.counts_attached = list(snap.counts_attached)
    else:
        cpu.counts_attached = None


def cpu_state_digest(cpu: CPU) -> str:
    """SHA-256 over the CPU's complete architectural state.

    Float registers are hashed by bit pattern (NaN payloads matter to the
    fault model), so two CPUs with equal digests are indistinguishable to
    any subsequent execution.  Used by the round-trip tests.
    """
    h = hashlib.sha256()
    for r in cpu.iregs:
        h.update(r.to_bytes(9, "little", signed=True))
    for f in cpu.fregs:
        h.update(_PACK_D.pack(f))
    h.update(cpu.flags.to_bytes(8, "little"))
    h.update(cpu.steps.to_bytes(9, "little", signed=True))
    h.update(repr(cpu.output).encode())
    h.update(repr(cpu.counts).encode())
    for c in (cpu._pin_count, cpu._refine_count, cpu._llfi_count):
        h.update(c.to_bytes(9, "little", signed=True))
    h.update(bytes(cpu.mem))
    return h.hexdigest()
