"""Decoded-instruction (translation) cache for the fast engine.

A :class:`Translation` is the product of translating one loaded program:
the compiled ``make_blocks`` factory plus per-block metadata.  Building it
costs one pass over the code plus byte-compiling the generated source — the
only Python compilation the engine ever does — so it must happen once per
binary per *process*, not once per run: the in-process LRU below guarantees
that, keyed by a content fingerprint of everything that feeds code
generation (the program, the interpreter's ``cache_tag`` and
:data:`~repro.engine.blocks.TRANSLATION_VERSION`).
"""

from __future__ import annotations

import hashlib
import sys
from collections import OrderedDict

from repro.engine.blocks import (
    TRANSLATION_VERSION,
    block_meta,
    discover_blocks,
    exec_namespace,
    gen_source,
)
from repro.machine.loader import LoadedProgram

#: In-process LRU capacity (distinct binaries).  A translation keeps its
#: program alive (~0.65 MiB each), so this bounds what a process that walks
#: through many binaries — a matrix run, a long-lived worker — retains; the
#: translations of live tools are also held by their CPUs, and a slice
#: executor keeps only three tools (``CONTEXT_CAPACITY``), so a handful of
#: entries is all that is ever hit again.
CACHE_CAPACITY = 8


def translation_fingerprint(program: LoadedProgram) -> str:
    """Content hash of everything block translation depends on."""
    h = hashlib.sha256()
    h.update(
        f"trans:{TRANSLATION_VERSION};{sys.implementation.cache_tag};"
        f"mem:{program.mem_size};stack:{program.stack_limit};".encode()
    )
    h.update(repr(sorted(program.func_entry.items())).encode())
    h.update(repr(program.code).encode())
    h.update(repr(list(program.is_candidate)).encode())
    return h.hexdigest()


class Translation:
    """One program's translated blocks plus the trampoline's metadata."""

    def __init__(self, program: LoadedProgram, fingerprint: str) -> None:
        self.program = program
        self.fingerprint = fingerprint
        leaders, end_of = discover_blocks(program)
        self.end_of = end_of
        #: entry pc -> block end / length / FI_CHECK sites / candidates /
        #: LLFI inject-intrinsic visits; block leaders up front, any other
        #: pc execution enters at on demand (:meth:`cover`)
        self.ends: dict[int, int] = {}
        self.lens: dict[int, int] = {}
        self.sites: dict[int, int] = {}
        self.cands: dict[int, int] = {}
        self.llfis: dict[int, int] = {}
        for start in leaders:
            self._register_meta(start, end_of[start])
        source = gen_source(program, leaders, end_of)
        ns = exec_namespace()
        exec(compile(source, f"<blocks:{fingerprint[:12]}>", "exec"), ns)
        self._factory = ns["make_blocks"]

    def _register_meta(self, start: int, end: int) -> None:
        meta = block_meta(self.program, start, end)
        self.ends[start] = meta.end
        self.lens[start] = meta.length
        self.sites[start] = meta.sites
        self.cands[start] = meta.cands
        self.llfis[start] = meta.llfis

    def instantiate(self, cpu, FL) -> dict:
        """Bind the translated blocks to one CPU's register/memory objects."""
        return self._factory(cpu, FL)

    def cover(self, pc: int) -> None:
        """Make the per-entry tables answer for a pc that is not a block
        leader: the straight-line run from ``pc`` to the end of its block.

        Static facts only — no code is generated for a mid-block entry; the
        trampoline interprets that run (see :mod:`repro.engine.fast`).
        """
        # keyed on the table ``_register_meta`` fills last: translations are
        # shared by the threads of a process (a caller's own — two ``Worker``s
        # on threads, say), and none may find ``pc`` half registered (two
        # registering it at once write the same values)
        if pc not in self.llfis:
            self._register_meta(pc, self.end_of[pc])


class TranslationCache:
    """Process-wide LRU of translations."""

    def __init__(self) -> None:
        self._mem: OrderedDict[str, Translation] = OrderedDict()

    def translation_for(self, program: LoadedProgram) -> Translation:
        fp = getattr(program, "_translation_fp", None)
        if fp is None:
            fp = translation_fingerprint(program)
            program._translation_fp = fp
        trans = self._mem.get(fp)
        if trans is not None:
            self._mem.move_to_end(fp)
            return trans
        trans = self._mem[fp] = Translation(program, fp)
        while len(self._mem) > CACHE_CAPACITY:
            self._mem.popitem(last=False)
        return trans


#: The process's cache: every :class:`~repro.engine.fast.FastEngine` shares it.
GLOBAL_CACHE = TranslationCache()
