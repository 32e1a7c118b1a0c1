"""Decoded-instruction (translation) cache for the fast engine.

A :class:`Translation` is the product of translating one loaded program:
the compiled ``make_blocks`` factory plus per-block metadata.  Building it
costs one pass over the code plus byte-compiling the generated source — the
only Python compilation the engine ever does — so it must happen once per
binary per *process*, not once per run: the in-process LRU below guarantees
that, keyed by a content fingerprint of everything that feeds code
generation (the program, the interpreter's ``cache_tag``, the host's byte
order — typed memory views are generated on little-endian hosts only — and
:data:`~repro.engine.blocks.TRANSLATION_VERSION`).  Compiled factories are
kept by their source: generated code names no pc, so a REFINE binary and
the PINFI binary it instruments translate to one source and share one
compile (:func:`~repro.engine.blocks.gen_source`).
"""

from __future__ import annotations

import hashlib
import sys
from collections import OrderedDict

from repro.engine.blocks import (
    TRANSLATION_VERSION,
    BlockMeta,
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
        f"{sys.byteorder};mem:{program.mem_size};stack:{program.stack_limit};".encode()
    )
    h.update(repr(sorted(program.func_entry.items())).encode())
    h.update(repr(program.code).encode())
    h.update(repr(list(program.is_candidate)).encode())
    return h.hexdigest()


class Translation:
    """One program's translated blocks plus the trampoline's metadata."""

    def __init__(self, program: LoadedProgram, fingerprint: str, compiled) -> None:
        """``compiled(source)``: the ``make_blocks`` factory of a source."""
        self.program = program
        self.fingerprint = fingerprint
        leaders, end_of = discover_blocks(program)
        self.end_of = end_of
        #: entry pc -> the :class:`~repro.engine.blocks.BlockMeta` of the run
        #: from it to the end of its block; block leaders up front, any other
        #: pc execution enters at on demand (:meth:`cover`)
        self.meta = {start: block_meta(program, start, end_of[start]) for start in leaders}
        source, self._pcs = gen_source(program, leaders, end_of)
        self._factory = compiled(source)

    def instantiate(self, cpu, FL) -> dict:
        """Bind the translated blocks to one CPU's register/memory objects."""
        return self._factory(cpu, FL, self._pcs)

    def cover(self, pc: int) -> BlockMeta:
        """The meta of the straight-line run from ``pc`` to the end of its
        block, for a pc that need not be a block leader.

        Static facts only — no code is generated for a mid-block entry; the
        trampoline interprets that run (see :mod:`repro.engine.fast`).
        """
        meta = self.meta.get(pc)
        if meta is None:
            # one assignment: the threads of a process share translations
            # (a caller's own — two ``Worker``s on threads, say), and two
            # covering ``pc`` at once store equal values
            meta = self.meta[pc] = block_meta(self.program, pc, self.end_of[pc])
        return meta


class TranslationCache:
    """Process-wide LRU of translations, and of the compiled factories they
    share."""

    def __init__(self) -> None:
        self._mem: OrderedDict[str, Translation] = OrderedDict()
        self._factories: OrderedDict[str, object] = OrderedDict()

    def translation_for(self, program: LoadedProgram) -> Translation:
        fp = getattr(program, "_translation_fp", None)
        if fp is None:
            fp = translation_fingerprint(program)
            program._translation_fp = fp
        trans = self._mem.get(fp)
        if trans is not None:
            self._mem.move_to_end(fp)
            return trans
        trans = self._mem[fp] = Translation(program, fp, self._compiled)
        while len(self._mem) > CACHE_CAPACITY:
            self._mem.popitem(last=False)
        return trans

    def _compiled(self, source: str):
        """The ``make_blocks`` factory ``source`` defines, compiled once."""
        key = hashlib.sha256(source.encode()).hexdigest()
        factory = self._factories.get(key)
        if factory is not None:
            self._factories.move_to_end(key)
            return factory
        ns = exec_namespace()
        exec(compile(source, f"<blocks:{key[:12]}>", "exec"), ns)
        factory = self._factories[key] = ns["make_blocks"]
        while len(self._factories) > CACHE_CAPACITY:
            self._factories.popitem(last=False)
        return factory


#: The process's cache: every :class:`~repro.engine.fast.FastEngine` shares it.
GLOBAL_CACHE = TranslationCache()
