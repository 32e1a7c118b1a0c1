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
instruction raises with its own pc (or a frame guard hands the block to the
interpreter loop first); the trampoline accounts the executed prefix
(``range(entry, trap.pc)``) instead of the block.

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

**Registers are locals.**  A block keeps the registers and FLAGS it
touches in locals (``r13``, ``x0``, ``fl``): it loads the ones it reads
before writing them and writes back the ones it wrote before each
``return``.  An intrinsic call, which is handed the CPU, splits it into
stretches: what a stretch wrote is written back before the call, and what
the next one reads is loaded after it.  A register that only one
instruction of a stretch touches is read or written in place (``I[3]``),
which costs no load and no write-back.  A trap writes no local back, so the
register file holds what the block found but for its in-place writes;
nothing reads it (a trapped run is compared on what the paragraph above
names).

**Frame slots are checked once a block.**  Each base register ``b`` the
block reads before it writes ``b`` (a call writes every register) gets one
guard at the entry over the accesses at a multiple ``d`` of 8 from it:
``NULL_GUARD - d_min <= b <= top - d_max`` (:func:`frame_guard`).  If it
fails, the block returns :data:`DEOPT` before doing anything, and the
trampoline interprets it; a guard fails only where a guarded access would
trap, so the interpreter loop traps at or before it, after the same
prefix.  Since ``(b + d) >> 3 == (b >> 3) + d // 8`` and ``(b + d) & 7 ==
b & 7``, a guarded access is ``q13[o13 - 11]``: word ``d // 8`` on from
``o13 = b >> 3`` in the view ``q13 = QS[b & 7]`` picked at the entry,
exact for any alignment of ``b``.  Any other access keeps its own check.

**8-byte memory traffic goes through typed views.**  ``make_blocks`` binds
``memoryview`` casts of ``cpu.mem`` once per instantiation: ``QS[k]`` /
``DS[k]`` see memory from byte ``k`` on as int64 / float64 words, so the
word at any address ``ad`` — aligned or not — is word ``ad >> 3`` of view
``ad & 7`` (``Q0`` / ``D0`` for a static aligned address).  Loads, stores,
push, pop, call and return index them; only an
integer store outside int64 (what an overflowing ``lea`` leaves in a
register), which a view refuses, takes the slice code.  The views are
native byte order, so they are generated only on little-endian hosts
(:data:`VIEWS`; the byte order is part of the translation fingerprint), and
they stay valid for as long as the instantiation does: ``cpu.mem`` is
mutated in place and never resized or replaced.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from typing import NamedTuple

from repro.machine import opcodes as O
from repro.machine.intrinsics import INTRINSIC_TABLE
from repro.machine.loader import LoadedProgram
from repro.machine.registers import FREG_NAMES, IREG_NAMES
from repro.machine.semantics import (
    CONDITIONS,
    FLAG_READERS,
    FLAG_WRITERS,
    NULL_GUARD,
    REGISTER_FIELDS,
    SEMANTICS,
    TERMINATORS,
    Address,
    Context,
    Load,
    Store,
    namespace,
    template_fields,
)
from repro.utils.bits import MASK64, to_signed64

#: Bump whenever generated code or block layout changes shape; part of the
#: translation fingerprint (:func:`repro.engine.cache.translation_fingerprint`).
#: 2: dead flag writes dropped, memory words through typed views, no pc in
#: the generated code.  3: rendered from the semantics table.  4: an LLFI
#: visit is its unfired effect.  5: a block's meta carries its half-cycles.
#: 6: frame guards, and registers and flags in locals.
TRANSLATION_VERSION = 6

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

#: What a block returns when a frame guard fails: it has done nothing, and
#: the trampoline runs it on the interpreter loop (:mod:`repro.engine.fast`).
DEOPT = -2

#: An integer / float register's block-local name, by its index.
_INT_LOCALS = tuple(f"r{i}" for i in range(len(IREG_NAMES)))
_FLOAT_LOCALS = tuple(f"x{i}" for i in range(len(FREG_NAMES)))
#: A register's block-local name, by its template field (its name).
_LOCALS = {**dict(zip(IREG_NAMES, _INT_LOCALS)), **dict(zip(FREG_NAMES, _FLOAT_LOCALS))}
#: A register's block-local name -> its template field, and its element of
#: the register files.
_NAMES = {local: name for name, local in _LOCALS.items()}
_FILES = {local: REGISTER_FIELDS[name] for name, local in _LOCALS.items()}

#: A condition code as generated code tests it.
_CC = {cc: "(" + cond.format(flags="fl") + ")" for cc, cond in CONDITIONS.items()}


class _Facts(NamedTuple):
    """What :func:`gen_block_body` reads of one instruction."""

    #: an LLFI visit's unfired effect, a template over register fields
    #: (``None``: not a visit)
    visit: str | None
    #: an intrinsic call, which is handed the CPU
    call: bool
    #: reads FLAGS; writes every FLAGS bit
    reads_flags: bool
    writes_flags: bool
    #: the register locals it reads, with its flag write rendered and
    #: without it, and those it writes
    uses: frozenset
    uses_unflagged: frozenset
    defs: frozenset
    #: a register + displacement access: ``(base, displacement, width)``
    frame: tuple | None


@functools.lru_cache(maxsize=1 << 12)
def _facts(t: tuple) -> _Facts:
    """The :class:`_Facts` of instruction ``t``, from its declaration
    (cached: a program repeats its instructions, and programs share most of
    theirs)."""
    op = t[0]
    if is_llfi_visit(t):
        template = INTRINSIC_TABLE.unfired[t[1]]
        defs, uses = template_fields(template)
        uses = frozenset(_LOCALS[n] for n in uses)
        return _Facts(template, False, False, False, uses, uses,
                      frozenset(_LOCALS[n] for n in defs), None)
    sem = SEMANTICS.get(op)
    if sem is None:
        return _Facts(None, False, False, False, frozenset(), frozenset(), frozenset(), None)

    def local(fields) -> frozenset:
        """The locals of the registers ``fields`` name: by name, or as an
        operand (its value, or its unsigned value)."""
        return frozenset(
            [_LOCALS[name] for name in fields if name in _LOCALS]
            + [(_INT_LOCALS if kind == "r" else _FLOAT_LOCALS)[t[k]]
               for name, kind, k in sem.slots
               if kind in "rf" and (name in fields or name + "u" in fields)])

    frame = None
    for item in sem.code:
        if isinstance(item, Address):
            width = next(x.width for x in sem.code
                         if isinstance(x, (Load, Store)) and x.addr == "ad")
            frame = t[item.base], t[item.disp], width
    unflagged = local(sem.uses)
    return _Facts(None, op == O.INTR, sem.reads, sem.writes,
                  unflagged | local(sem.flag_uses), unflagged, local(sem.defs), frame)


def frame_guard(base: int, d_min: int, d_max: int, top: int) -> str:
    """The entry test of base register ``base``, whose accesses lie ``d_min``
    ... ``d_max`` bytes from it: every one inside memory, or :data:`DEOPT`."""
    return (f"if not {NULL_GUARD - d_min} <= r{base} <= {top - d_max}:\n"
            f"    return {DEOPT}")


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
    operands are literals, registers and flags are block locals (``r3``,
    ``x0``, ``fl``; or register-file elements, :attr:`direct`), instruction
    ``i``'s pc is ``P[i]``, and memory words are
    view elements (:data:`VIEWS`) — at a fixed index for a static address,
    through the base register's view for a guarded frame slot
    (:attr:`slot`).  :func:`gen_block_body` sets :attr:`slot`,
    :attr:`exits` and :attr:`direct` as it goes."""

    JUMP = "return {}"
    HALT = ("return -1",)
    NEXT = ()

    def __init__(self, program: LoadedProgram) -> None:
        self.top = program.mem_size - 8
        #: the fields of the instruction being rendered (:meth:`fields`)
        self.f = {"ncode": "P[-1]", "top": str(self.top), "cpu": "cpu",
                  "stack_limit": str(program.stack_limit), "flags": "fl", **_LOCALS}
        #: ``(base register, displacement)`` of a guarded frame access
        self.slot: tuple[int, int] | None = None
        #: the write-back ahead of a return
        self.exits: tuple[str, ...] = ()
        #: the registers named by their register-file element, not a local
        self.direct: frozenset = frozenset()

    def name_directly(self, direct: frozenset) -> None:
        """Render the registers in ``direct`` as register-file elements
        (``I[3]``) and every other one as its local."""
        f = self.f
        for local in self.direct:
            f[_NAMES[local]] = local
        for local in direct:
            f[_NAMES[local]] = _FILES[local]
        self.direct = direct

    def operand(self, kind, slot, t):
        v = t[slot]
        if kind == "r" or kind == "f":
            local = _INT_LOCALS[v] if kind == "r" else _FLOAT_LOCALS[v]
            return _FILES[local] if local in self.direct else local
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
        f["fl"] = "fl"
        out.append(text.format_map(f))

    def address(self, item, f, out):
        if self.slot is None:
            super().address(item, f, out)

    def leave(self):
        return self.exits

    def _word(self, width: str, addr: str) -> str | None:
        """The view element of the word at ``addr``; ``None``: use slices
        (no views, or a static address a view does not reach)."""
        if not VIEWS:
            return None
        views = "QS" if width == "q" else "DS"
        if addr.isdigit():
            a = int(addr)
            if a > self.top:
                return None
            return f"{views[0]}0[{a >> 3}]" if a & 7 == 0 else f"{views}[{a & 7}][{a >> 3}]"
        if addr == "ad" and self.slot is not None:
            base, d = self.slot
            index = f"o{base} {'-' if d < 0 else '+'} {abs(d) >> 3}" if d else f"o{base}"
            return f"{width}{base}[{index}]"
        return f"{views}[{addr} & 7][{addr} >> 3]"

    def load(self, width, addr):
        word = self._word(width, addr)
        return super().load(width, addr) if word is None else word

    def store(self, width, addr, value, out):
        word = self._word(width, addr)
        if word is None:
            super().store(width, addr, value, out)
        elif width == "d" or value.startswith("P["):  # (a pc fits in int64)
            out.append(f"{word} = {value}")
        elif value.lstrip("-").isdigit():
            out.append(f"{word} = {to_signed64(int(value))}")
        else:
            # a view refuses an int outside int64 (what an overflowing
            # ``lea`` leaves in a register): the slice code stores its low
            # 64 bits, as the interpreter does
            if addr == "ad" and self.slot is not None:
                addr = "(r%d + %d)" % self.slot
            out.append("try:")
            out.append(f"    {word} = {value}")
            out.append("except ValueError:")
            super().store(width, addr, value, out)
            out[-1] = "    " + out[-1]


def _sorted(names) -> list[str]:
    return sorted(names, key=lambda name: (name[0], int(name[1:])))


def gen_block_body(ctx: _Block, code: list[tuple], start: int, end: int) -> list[str]:
    """Generate the body of one block function (unindented lines, some
    several to a string): ``code[start:end]``, in translated numbering
    (:func:`gen_source`).

    The body opens with its frame guards: one per base register the block
    reads before it writes it (a call writes every register), over the
    accesses at a multiple of 8 from it, which then index the view picked
    for it (``q13[o13 - 11]``, module docstring).  Then the registers it
    reads before writing them are loaded into locals; an intrinsic call
    splits the block into stretches, each loading what it reads and
    writing back what it writes."""
    live = flag_liveness(code, start, end)
    # One pass over the block: each stretch's loads and writes, the guarded
    # accesses, and how the block touches FLAGS.
    # [locals read before written, written, touched by one instruction,
    # by more]
    stretches = [[set(), set(), set(), set()]]
    slots = {}  # instruction -> (base, displacement) of a guarded access
    guards = {}  # base -> [least, greatest displacement, views]
    written = set()  # locals written so far (``None``: past a call)
    flags_in = None  # FLAGS read before written (``None``: untouched)
    flags_out = False  # FLAGS written
    for i in range(start, end):
        facts = _facts(code[i])
        writes = facts.writes_flags and live[i - start]
        if flags_in is None and (facts.reads_flags or writes):
            flags_in = facts.reads_flags
        # (a call reads FLAGS off the CPU and writes them back)
        flags_out = flags_out or writes or facts.call
        if facts.call:
            written = None
            stretches.append([set(), set(), set(), set()])
            continue
        frame = facts.frame
        if frame is not None and VIEWS and written is not None:
            base, d, width = frame
            if d % 8 == 0 and f"r{base}" not in written:
                slots[i] = base, d
                guard = guards.setdefault(base, [d, d, set()])
                guard[0], guard[1] = min(guard[0], d), max(guard[1], d)
                guard[2].add(width)
        loads, stored, once, more = stretches[-1]
        uses = facts.uses if live[i - start] else facts.uses_unflagged
        loads |= uses - stored
        stored |= facts.defs
        touched = uses | facts.defs
        more |= once & touched
        once |= touched
        once -= more
        if written is not None:
            written |= facts.defs
    lines: list[str] = []
    for base, (d_min, d_max, views) in sorted(guards.items()):
        lines.append(f"r{base} = I[{base}]")
        lines.append(frame_guard(base, d_min, d_max, ctx.top))
        lines.extend(f"{w}{base} = {'QS' if w == 'q' else 'DS'}[r{base} & 7]"
                     for w in sorted(views))
        lines.append(f"o{base} = r{base} >> 3")
    if flags_in:
        lines.append("fl = FL[0]")
    guarded = {f"r{base}" for base in guards}
    stretch = iter(stretches)

    fl_out = ("FL[0] = fl",) if flags_out else ()

    def enter(skip=frozenset()):
        """Load the next stretch's registers; return its write-back.  A
        register one instruction of the stretch touches is read and written
        in place instead (a guard's base stays a local)."""
        loads, stored, once, _ = next(stretch)
        ctx.name_directly(frozenset(once - guarded))
        lines.extend(f"{name} = {_FILES[name]}"
                     for name in _sorted(loads - skip - ctx.direct))
        back = tuple(f"{_FILES[name]} = {name}" for name in _sorted(stored - ctx.direct))
        ctx.exits = back + fl_out
        return back

    back = enter(guarded)
    for i in range(start, end):
        t = code[i]
        op = t[0]
        facts = _facts(t)
        if facts.visit is not None:
            if facts.visit:
                lines.append(facts.visit.format_map(ctx.f))
        elif facts.call:
            lines.extend(back)
            ctx.emit(op, t, lines, i)
            back = enter()
        elif op in SEMANTICS:
            ctx.slot = slots.get(i)
            ctx.emit(op, t, lines, i, live[i - start])
        else:
            lines.append(f"raise IllegalInstruction(f'opcode {op}', P[{i}])")
    if code[end - 1][0] not in TERMINATORS:
        lines.extend(ctx.exits)
        lines.append(f"return P[{end}]")
    ctx.slot = None
    ctx.name_directly(frozenset())
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
        out.append("    Q0 = QS[0]")
        out.append("    D0 = DS[0]")
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
