"""Basic-block discovery and superinstruction code generation.

The fast engine replaces the reference interpreter's ~40-arm ``if/elif``
dispatch with *superinstructions*: each basic block of the loaded program
is translated once into a straight-line Python function with every operand
inlined as a literal.  Executing a block is then a single call that returns
the next pc (or ``-1`` on halt) — no per-instruction dispatch, no operand
tuple unpacking, no dynamic accounting.

Dynamic accounting is recovered *in bulk* by the trampoline
(:mod:`repro.engine.fast`): a block is a contiguous pc range, so its
execution contributes a known constant to ``steps``, to the simulated
cycles (:attr:`BlockMeta.half_cycles`), and to the REFINE, PINFI and LLFI
trigger counters (:attr:`BlockMeta.sites` / :attr:`BlockMeta.cands` /
:attr:`BlockMeta.llfis`).

Traps keep exact reference semantics because every potentially-trapping
instruction raises with its own pc; the trampoline accounts the executed
prefix (``range(entry, trap.pc)``) instead of the block.

**A trigger cannot fire inside a block.**  Fire points are interpreted, so
a REFINE ``fi_check`` is no code at all and an LLFI visit — a call to an
``__fi_inject_*`` stub — is its unfired effect: the value passes through
(:attr:`~repro.machine.intrinsics.IntrinsicTable.unfired`).

**A block computes only what is observed.**  It owes the interpreter's exact
FLAGS at its exit (the next block, an interpreted stride, a sync state or a
fork reads them there) and at an intrinsic call that is not an LLFI visit
(the intrinsic is handed the CPU); a flag write that the block itself
overwrites before either is never emitted (:func:`flag_liveness`), so a
``cmp`` whose flags nobody reads is no code at all.  At a trap it owes only
what a trapped run is compared on — trap kind, trap pc, steps, cycles,
output: ``ExecutionResult`` carries no flags and no state is compared after
a trap.  Faults never land inside a block, so a block always starts from
exact state.

**8-byte memory traffic goes through typed views.**  ``make_blocks`` binds
``memoryview`` casts of ``cpu.mem`` once per instantiation: ``QS[k]`` /
``DS[k]`` see memory from byte ``k`` on as int64 / float64 words, so the
word at any address ``ad`` — aligned or not — is word ``ad >> 3`` of view
``ad & 7``.  Loads, stores, push, pop, call and return index them; only an
integer store outside int64 (what an overflowing ``lea`` leaves in a
register), which a view refuses, takes the slice code.  The views are
native byte order, so they are generated only on little-endian hosts
(:data:`VIEWS`; the byte order is part of the translation fingerprint), and
they stay valid for as long as the instantiation does: ``cpu.mem`` is
mutated in place and never resized or replaced.
"""

from __future__ import annotations

import math
import struct
import sys
from typing import NamedTuple

from repro.machine import opcodes as O
from repro.machine.intrinsics import INTRINSIC_TABLE
from repro.machine.loader import LoadedProgram
from repro.machine.semantics import (
    CONDITIONS,
    FLAG_READERS,
    FLAG_WRITERS,
    SEMANTICS,
    TERMINATORS,
    Context,
    namespace,
)
from repro.utils.bits import MASK64, to_signed64

#: Bump whenever generated code or block layout changes shape; part of the
#: translation fingerprint (:func:`repro.engine.cache.translation_fingerprint`).
#: 2: dead flag writes dropped, memory words through typed views, no pc in
#: the generated code.  3: rendered from the semantics table.  4: an LLFI
#: visit is its unfired effect.  5: a block's meta carries its half-cycles.
TRANSLATION_VERSION = 5

#: Whether generated code indexes typed views of memory: they are native
#: byte order, and the machine's memory is little-endian.
VIEWS = sys.byteorder == "little"

#: Opcode -> the tuple slots that hold a jump or call target.
_TARGETS = {
    op: tuple(k for k, kind in enumerate(sem.operands, 1) if kind == "t")
    for op, sem in SEMANTICS.items()
}

def is_llfi_visit(t: tuple) -> bool:
    """Whether instruction ``t`` calls an LLFI stub: a visit, which advances
    ``llfi_count``."""
    return t[0] == O.INTR and t[1] in INTRINSIC_TABLE.unfired


class BlockMeta(NamedTuple):
    """Static facts about the straight-line run from an entry pc to the end
    of its block (a contiguous pc range), which the trampoline batches on."""

    #: number of instructions
    length: int
    #: static FI_CHECK count (REFINE trigger increment per execution)
    sites: int
    #: static candidate count (PINFI trigger increment while attached)
    cands: int
    #: static LLFI visit count (LLFI trigger increment)
    llfis: int
    #: summed ``half_cost`` (simulated cycles, doubled)
    half_cycles: int


def discover_blocks(program: LoadedProgram) -> tuple[list[int], list[int]]:
    """Find basic-block leaders and the block end of every pc.

    Returns ``(leaders, end_of)`` where ``leaders`` is the sorted list of
    block entry pcs and ``end_of[pc]`` is the first pc past the block
    containing ``pc`` (how far the interpreter runs to finish a block entered
    mid-way, see :mod:`repro.engine.fast`).
    """
    code = program.code
    n = len(code)
    leaders = set(program.func_entry.values())
    for pc, t in enumerate(code):
        op = t[0]
        for k in _TARGETS.get(op, ()):
            leaders.add(t[k])
        if op in TERMINATORS and pc + 1 < n:
            leaders.add(pc + 1)
    ordered = sorted(p for p in leaders if 0 <= p < n)
    # Walk backwards: a block ends just past a terminator or at the next
    # leader (fall-through into a jump target), whichever comes first.
    end_of = [n] * n
    boundary = set(ordered)
    end = n
    for pc in range(n - 1, -1, -1):
        if code[pc][0] in TERMINATORS:
            end = pc + 1
        end_of[pc] = end
        if pc in boundary:
            end = pc
    return ordered, end_of


def block_meta(program: LoadedProgram, start: int, end: int) -> BlockMeta:
    code = program.code
    is_cand = program.is_candidate
    sites = 0
    cands = 0
    llfis = 0
    for pc in range(start, end):
        t = code[pc]
        if t[0] == O.FI_CHECK:
            sites += 1
        elif is_llfi_visit(t):
            llfis += 1
        if is_cand[pc]:
            cands += 1
    return BlockMeta(end - start, sites, cands, llfis,
                     sum(program.half_cost[start:end]))


def flag_liveness(code: list[tuple], start: int, end: int) -> list[bool]:
    """Per instruction of the block ``[start, end)``: is the FLAGS value it
    leaves behind observed?

    One backward pass: a write is live when a flag reader
    (:data:`FLAG_READERS`, but not an LLFI visit, which a block renders
    without the CPU) or the block's exit comes before the next full flag
    write.  Only meaningful for flag writers; a trap observes nothing (see
    the module docstring).
    """
    live = [True] * (end - start)
    observed = True  # the block owes exact flags at its exit
    for pc in range(end - 1, start - 1, -1):
        live[pc - start] = observed
        op = code[pc][0]
        if op in FLAG_READERS and not is_llfi_visit(code[pc]):
            observed = True
        elif op in FLAG_WRITERS:
            observed = False
    return live


# -- code generation ---------------------------------------------------------

#: A condition code as generated code tests it.
_CC = {cc: "(" + cond.format(flags="FL[0]") + ")" for cc, cond in CONDITIONS.items()}


def _float(value: float) -> str:
    """A float literal that round-trips, including non-finite values (a
    NaN bit for bit: its payload and sign)."""
    if math.isfinite(value):
        return repr(value)
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    return f"PDU({struct.pack('<d', value)!r}, 0)[0]"


class _Block(Context):
    """Generated code's rendering of an entry (:mod:`repro.machine.semantics`):
    operands are literals, instruction ``i``'s pc is ``P[i]``, flags are
    ``FL[0]`` (a multi-line flag computation goes through the local ``fl``),
    and memory words are view elements (:data:`VIEWS`) — at a fixed index
    for a static address."""

    JUMP = "return {}"
    HALT = ("return -1",)
    NEXT = ()

    def __init__(self, program: LoadedProgram) -> None:
        self.top = program.mem_size - 8
        #: the fields of the instruction being rendered (:meth:`fields`)
        self.f = {"ncode": "P[-1]", "top": str(self.top), "cpu": "cpu",
                  "stack_limit": str(program.stack_limit), "flags": "FL[0]"}

    def operand(self, kind, slot, t):
        v = t[slot]
        if kind == "r":
            return f"I[{v}]"
        if kind == "f":
            return f"F[{v}]"
        if kind == "t":
            return f"P[{v}]"
        if kind == "k":
            return _CC[v]
        if kind == "d":
            return f" + {v}" if v else ""
        return _float(v) if kind == "c" else str(v)

    def unsigned(self, kind, slot, t, value):
        if kind == "i":
            return str(t[slot] & MASK64)
        return super().unsigned(kind, slot, t, value)

    def fields(self, i):
        f = self.f
        f["pc"], f["next"] = f"P[{i}]", f"P[{i + 1}]"
        return f

    def set_flags(self, text, f, out):
        if "\n" in text:
            f["fl"] = "fl"
            out.append(text.format_map(f))
            out.append("FL[0] = fl")
        else:
            f["fl"] = "FL[0]"
            out.append(text.format_map(f))

    def _word(self, addr: str) -> str | None:
        """The view index of the word at ``addr``; ``None``: use slices
        (no views, or a static address a view does not reach)."""
        if not VIEWS:
            return None
        if addr.isdigit():
            a = int(addr)
            return f"[{a & 7}][{a >> 3}]" if a <= self.top else None
        return f"[{addr} & 7][{addr} >> 3]"

    def load(self, width, addr):
        word = self._word(addr)
        if word is None:
            return super().load(width, addr)
        return ("QS" if width == "q" else "DS") + word

    def store(self, width, addr, value, out):
        word = self._word(addr)
        if word is None:
            super().store(width, addr, value, out)
        elif width == "d" or value.startswith("P["):  # (a pc fits in int64)
            out.append(f"{'DS' if width == 'd' else 'QS'}{word} = {value}")
        elif value.lstrip("-").isdigit():
            out.append(f"QS{word} = {to_signed64(int(value))}")
        else:
            # a view refuses an int outside int64 (what an overflowing
            # ``lea`` leaves in a register): the slice code stores its low
            # 64 bits, as the interpreter does
            out.append("try:")
            out.append(f"    QS{word} = {value}")
            out.append("except ValueError:")
            super().store(width, addr, value, out)
            out[-1] = "    " + out[-1]


def gen_block_body(ctx: _Block, code: list[tuple], start: int, end: int) -> list[str]:
    """Generate the body of one block function (unindented lines, some
    several to a string): ``code[start:end]``, in translated numbering
    (:func:`gen_source`)."""
    live = flag_liveness(code, start, end)
    lines: list[str] = []
    for i in range(start, end):
        op = code[i][0]
        if is_llfi_visit(code[i]):
            unfired = INTRINSIC_TABLE.unfired[code[i][1]]
            if unfired:
                lines.append(unfired)
        elif op in SEMANTICS:
            ctx.emit(op, code[i], lines, i, live[i - start])
        else:
            lines.append(f"raise IllegalInstruction(f'opcode {op}', P[{i}])")
    if code[end - 1][0] not in TERMINATORS:
        lines.append(f"return P[{end}]")
    return lines


def gen_source(
    program: LoadedProgram, leaders: list[int], end_of: list[int]
) -> tuple[str, list[int]]:
    """Generate the full translation — the factory ``make_blocks(cpu, FL,
    P)`` — and ``P``, the pcs it is instantiated with.

    Generated code names no pc: it numbers the instructions it translates
    and reads pc ``P[i]`` of instruction ``i`` (``P[-1]`` is the code
    length).  It translates every instruction but the ``FI_CHECK``s control
    never transfers to (a block executes those as nothing), so REFINE's
    binary — PINFI's plus a check after each candidate, which never ends a
    block — translates to PINFI's source, and one compile serves both
    (:class:`~repro.engine.cache.TranslationCache`).
    """
    code = program.code
    reached = set(leaders)
    for pc, t in enumerate(code):
        for k in _TARGETS.get(t[0], ()):
            reached.add(t[k])
        if t[0] in TERMINATORS:
            reached.add(pc + 1)
    P = [pc for pc, t in enumerate(code) if t[0] != O.FI_CHECK or pc in reached]
    P.append(len(code))
    index = {pc: i for i, pc in enumerate(P)}
    translated = []
    for pc in P[:-1]:
        t = code[pc]
        targets = _TARGETS.get(t[0])
        if targets:
            t = tuple(index[x] if k in targets else x for k, x in enumerate(t))
        translated.append(t)
    out = [
        "# Generated by repro.engine.blocks -- do not edit.",
        f"# translation version {TRANSLATION_VERSION}",
        "def make_blocks(cpu, FL, P):",
        "    I = cpu.iregs",
        "    F = cpu.fregs",
        "    M = cpu.mem",
    ]
    if VIEWS:
        out.append("    W = [memoryview(M)[k:k + (len(M) - k) // 8 * 8] for k in range(8)]")
        out.append("    QS = tuple(w.cast('q') for w in W)")
        out.append("    DS = tuple(w.cast('d') for w in W)")
    ctx = _Block(program)
    for start in leaders:
        first, end = index[start], index[end_of[start]]
        out.append(f"    def b{first}():")
        body = "\n".join(gen_block_body(ctx, translated, first, end))
        out.append("        " + body.replace("\n", "\n        "))
    table = ", ".join(f"P[{index[s]}]: b{index[s]}" for s in leaders)
    out.append("    return {%s}" % table)
    out.append("")
    return "\n".join(out), P


def exec_namespace() -> dict:
    """The globals generated code runs against."""
    return {**namespace(), "IN": INTRINSIC_TABLE.impls}
