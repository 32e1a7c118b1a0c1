"""Snapshot state: capture and restore of full CPU architectural state.

A :class:`CpuSnapshot` freezes everything one execution context needs to
resume mid-program and remain bit-identical to an uninterrupted run:

* register file (integer + float), FLAGS, the resume ``pc``;
* the call stack and all of data memory, stored as **page deltas** — only
  pages that differ from the freshly loaded image are kept, and pages
  unchanged since the previous snapshot share the same ``bytes`` object,
  so a snapshot holds (and a capture copies) O(dirty pages); finding them
  is an in-place memcmp per page the run writes and one per run of pages
  it does not (:class:`CleanMemory`);
* the I/O cursor (everything printed so far);
* the dynamic accounting the fault-injection tools trigger on and are
  costed by: ``steps``, the simulated cycles (``half_cycles``, and the part
  of them PINFI ran attached), and the PINFI/REFINE/LLFI candidate
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
    #: simulated cycles executed before this point, doubled
    half_cycles: int
    #: tool trigger counters at this boundary
    pin_count: int
    refine_count: int
    llfi_count: int
    #: page index -> PAGE_SIZE bytes differing from the fresh memory image
    pages: dict[int, bytes] = field(default_factory=dict)
    #: was the DBI tool still attached at capture time?
    attached: bool = False
    #: candidates and half-cycles executed while attached (fixed at detach
    #: time)
    attached_candidates: int = 0
    half_cycles_attached: int = 0

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


#: A run of zeros no memory is longer than, shared by the process and only
#: ever replaced by a longer one: a ``bytes`` of zeros is allocated zeroed
#: and never written, so it occupies no resident memory however long it is
#: (:meth:`CleanMemory.changed`).
_zeros = b""


class CleanMemory:
    """A program's freshly loaded memory, page by page, and the comparison of
    a live memory with it — or with a snapshot's pages laid over it — in
    runs rather than page by page.

    Nearly all of the image is zeros.  Its other pages (the data segment)
    and the pages it has been told or has found to be written are
    *watched*: compared one by one.  Each run of zero pages between them is
    compared against the process's run of zeros in one memcmp; a run that
    differs is halved down to the pages that do, and those are watched from
    then on.  So a memory that differs only where it is watched costs one
    comparison per watched page and one per run — and most of that cost is
    reading the memory itself.
    """

    def __init__(self, pages: list[bytes]) -> None:
        global _zeros
        #: :func:`base_pages` of the program
        self.pages = pages
        size = len(pages) * PAGE_SIZE
        if len(_zeros) < size:
            _zeros = bytes(size)
        zero = bytes(PAGE_SIZE)
        self._watched: set[int] = set()
        self.watch(i for i, page in enumerate(pages) if page != zero)

    def watch(self, pages) -> None:
        """Compare the pages at these indices one by one from now on."""
        self._watched.update(pages)
        self._order = sorted(self._watched)
        #: the runs of unwatched pages, ``(first, past)``
        self._runs = [
            (lo, hi)
            for lo, hi in zip([0] + [i + 1 for i in self._order],
                              self._order + [len(self.pages)])
            if lo < hi
        ]

    @staticmethod
    def _dirty(view, lo: int, hi: int) -> list[int]:
        """The pages of the run ``[lo, hi)`` where ``view`` is not zeros."""
        out = []
        todo = [(lo, hi)]
        while todo:
            lo, hi = todo.pop()
            if _zeros.startswith(view[lo * PAGE_SIZE:hi * PAGE_SIZE]):
                continue
            if hi - lo == 1:
                out.append(lo)
            else:
                mid = (lo + hi) // 2
                todo += ((mid, hi), (lo, mid))
        return out

    def same(self, mem, pages: dict[int, bytes]) -> bool:
        """Whether ``mem`` equals this image with ``pages`` (a snapshot's)
        laid over it; a difference is usually found at a watched page."""
        return not self.changed(mem, pages, first=True)

    def changed(self, mem, pages: dict[int, bytes], first: bool = False) -> list[int]:
        """The indices of the pages where ``mem`` differs from this image
        with ``pages`` laid over it (``first``: only the first found)."""
        if not pages.keys() <= self._watched:
            self.watch(pages)
        # ``image.startswith(view)``: a memcmp, whatever ``mem`` is
        view = memoryview(mem)
        base = self.pages
        out = []
        for idx in self._order:
            if not (pages.get(idx) or base[idx]).startswith(
                view[idx * PAGE_SIZE:(idx + 1) * PAGE_SIZE]
            ):
                out.append(idx)
                if first:
                    return out
        found = []
        for lo, hi in self._runs:
            if not _zeros.startswith(view[lo * PAGE_SIZE:hi * PAGE_SIZE]):
                found += self._dirty(view, lo, hi)
                if first:
                    break
        if found:
            self.watch(found)
        return out + found

    def reset(self, mem) -> None:
        """Make ``mem`` this image again, copying only the pages that differ."""
        for idx in self.changed(mem, {}):
            mem[idx * PAGE_SIZE:(idx + 1) * PAGE_SIZE] = self.pages[idx]


def capture_snapshot(
    cpu: CPU,
    pc: int,
    prev: CpuSnapshot | None = None,
    base: list[bytes] | None = None,
) -> CpuSnapshot:
    """Capture the CPU's state at an instruction boundary.

    ``prev`` is the previous snapshot of the same run (pages unchanged
    since it are shared, pages changed are re-scanned against the fresh
    image via ``base``).  ``base`` is the program's :class:`CleanMemory`,
    or its :func:`base_pages`; computed on the fly when omitted (cheap, but
    recorders should pass a :class:`CleanMemory`: it learns where the run
    writes).
    """
    if not isinstance(base, CleanMemory):
        base = CleanMemory(base_pages(cpu.program) if base is None else base)
    # Compare in place (no copy of the address space), and only a page
    # that differs is materialised.
    mem = cpu.mem
    pages: dict[int, bytes] = {} if prev is None else dict(prev.pages)
    for idx in base.changed(mem, pages):
        off = idx * PAGE_SIZE
        pages[idx] = bytes(mem[off : off + PAGE_SIZE])
    return CpuSnapshot(
        pc=pc,
        steps=cpu.steps,
        iregs=tuple(cpu.iregs),
        fregs=tuple(cpu.fregs),
        flags=cpu.flags,
        output=tuple(cpu.output),
        half_cycles=cpu.half_cycles,
        pin_count=cpu._pin_count,
        refine_count=cpu._refine_count,
        llfi_count=cpu._llfi_count,
        pages=pages,
        attached=cpu._attached,
        attached_candidates=cpu.attached_candidates,
        half_cycles_attached=cpu.half_cycles_attached,
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
    cpu.half_cycles = snap.half_cycles
    cpu._pin_count = snap.pin_count
    cpu._refine_count = snap.refine_count
    cpu._llfi_count = snap.llfi_count
    mem = cpu.mem
    for idx, data in snap.pages.items():
        off = idx * PAGE_SIZE
        mem[off : off + len(data)] = data
    # PINFI attach/detach state travels with the snapshot.
    cpu._attached = snap.attached
    cpu.attached_candidates = snap.attached_candidates
    cpu.half_cycles_attached = snap.half_cycles_attached


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
    for c in (cpu.half_cycles, cpu.half_cycles_attached, cpu.attached_candidates,
              cpu._pin_count, cpu._refine_count, cpu._llfi_count):
        h.update(c.to_bytes(9, "little", signed=True))
    h.update(bytes(cpu.mem))
    return h.hexdigest()
