"""Basic-block discovery and superinstruction code generation.

The fast engine replaces the reference interpreter's ~40-arm ``if/elif``
dispatch with *superinstructions*: each basic block of the loaded program
is translated once into a straight-line Python function with every operand
inlined as a literal.  Executing a block is then a single call that returns
the next pc (or ``-1`` on halt) — no per-instruction dispatch, no operand
tuple unpacking, no dynamic accounting.

Dynamic accounting is recovered *in bulk* by the trampoline
(:mod:`repro.engine.fast`): a block is a contiguous pc range, so its
execution contributes a known constant to ``steps``, to every
``counts[pc]`` in its extent, and to the REFINE/PINFI trigger counters
(:attr:`BlockMeta.sites` / :attr:`BlockMeta.cands`).

Traps keep exact reference semantics because every potentially-trapping
instruction raises with its own pc; the trampoline rewinds the batched
accounting to the executed prefix (``range(entry, trap.pc)``).

**A block computes only what is observed.**  It owes the interpreter's exact
FLAGS at its exit (the next block, an interpreted stride, a sync state or a
fork reads them there) and at an intrinsic call (the intrinsic is handed the
CPU); a flag write that the block itself overwrites before either is never
emitted (:func:`flag_liveness`), so a ``cmp`` whose flags nobody reads is no
code at all.  At a trap it owes only what a trapped run is compared on —
trap kind, trap pc, steps, counts, output: ``ExecutionResult`` carries no
flags and no state is compared after a trap.  Faults never land inside a
block (fire points are interpreted), so a block always starts from exact
state.

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
import sys
from dataclasses import dataclass

from repro.errors import (
    DivideByZero,
    IllegalInstruction,
    SegmentationFault,
    StackOverflow,
)
from repro.machine import opcodes as O
from repro.machine.cpu import _PACK_D, PARITY_TABLE
from repro.machine.intrinsics import INTRINSIC_TABLE
from repro.machine.loader import NULL_GUARD, LoadedProgram
from repro.machine.registers import RSP_IDX
from repro.utils.bits import MASK64, to_signed64

#: Bump whenever generated code or block layout changes shape; part of the
#: translation fingerprint (:func:`repro.engine.cache.translation_fingerprint`).
#: 2: dead flag writes dropped, memory words through typed views, no pc in
#: the generated code.
TRANSLATION_VERSION = 2

#: Whether generated code indexes typed views of memory: they are native
#: byte order, and the machine's memory is little-endian.
VIEWS = sys.byteorder == "little"

_INT64_MIN = -(1 << 63)

#: An exact result ``r`` wrapped to int64 (``tos`` only when it overflowed).
_WRAP_R = f"r if {_INT64_MIN} <= r < {-_INT64_MIN} else tos(r)"

#: Opcodes that end a basic block (control transfers).
_TERMINATORS = frozenset({O.JMP, O.JCC, O.CALL, O.RET})

#: Opcodes that read FLAGS (an intrinsic is handed the whole CPU).
_FLAG_READERS = frozenset({O.JCC, O.SETCC, O.CMOV, O.INTR})

#: Opcodes that overwrite every FLAGS bit.
_FLAG_WRITERS = frozenset({
    O.ADD_RR, O.ADD_RI, O.SUB_RR, O.SUB_RI, O.CMP_RR, O.CMP_RI,
    O.IMUL_RR, O.IMUL_RI, O.AND_RR, O.AND_RI, O.OR_RR, O.OR_RI,
    O.XOR_RR, O.XOR_RI, O.SHL_RR, O.SHL_RI, O.SAR_RR, O.SAR_RI, O.NEG,
    O.IDIV_RR, O.IDIV_RI, O.IREM_RR, O.IREM_RI, O.FCMP,
})

#: Intrinsic indices that advance the LLFI visit counter (``llfi_count``):
#: the ``__fi_inject_*`` calls the LLFI instrumentation pass emits.
_LLFI_INJECT_IDS = frozenset(
    INTRINSIC_TABLE.index_of(name)
    for name in ("__fi_inject_i64", "__fi_inject_f64", "__fi_inject_i1")
)


@dataclass(frozen=True)
class BlockMeta:
    """Static facts about one block the trampoline batches on."""

    #: first pc past the block (blocks are contiguous pc ranges)
    end: int
    #: number of instructions in the block
    length: int
    #: static FI_CHECK count (REFINE trigger increment per execution)
    sites: int
    #: static candidate count (PINFI trigger increment while attached)
    cands: int
    #: static ``__fi_inject_*`` intrinsic count (LLFI trigger increment)
    llfis: int


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
        if op == O.JMP:
            leaders.add(t[1])
        elif op == O.JCC:
            leaders.add(t[2])
        if op in _TERMINATORS and pc + 1 < n:
            leaders.add(pc + 1)
    ordered = sorted(p for p in leaders if 0 <= p < n)
    # Walk backwards: a block ends just past a terminator or at the next
    # leader (fall-through into a jump target), whichever comes first.
    end_of = [n] * n
    boundary = set(ordered)
    end = n
    for pc in range(n - 1, -1, -1):
        if code[pc][0] in _TERMINATORS:
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
        elif t[0] == O.INTR and t[1] in _LLFI_INJECT_IDS:
            llfis += 1
        if is_cand[pc]:
            cands += 1
    return BlockMeta(end=end, length=end - start, sites=sites, cands=cands,
                     llfis=llfis)


def flag_liveness(code: list[tuple], start: int, end: int) -> list[bool]:
    """Per instruction of the block ``[start, end)``: is the FLAGS value it
    leaves behind observed?

    One backward pass: a write is live when a flag reader
    (:data:`_FLAG_READERS`) or the block's exit comes before the next full
    flag write.  Only meaningful for flag writers; a trap observes nothing
    (see the module docstring).
    """
    live = [True] * (end - start)
    observed = True  # the block owes exact flags at its exit
    for pc in range(end - 1, start - 1, -1):
        live[pc - start] = observed
        op = code[pc][0]
        if op in _FLAG_READERS:
            observed = True
        elif op in _FLAG_WRITERS:
            observed = False
    return live


# -- code generation ---------------------------------------------------------

_CC_EXPR = {
    0: "fl & 64",
    1: "not fl & 64",
    2: "(fl & 128 != 0) != (fl & 2048 != 0)",
    3: "fl & 64 or (fl & 128 != 0) != (fl & 2048 != 0)",
    4: "not fl & 64 and (fl & 128 != 0) == (fl & 2048 != 0)",
    5: "(fl & 128 != 0) == (fl & 2048 != 0)",
    6: "fl & 1",
    7: "fl & 65",
    8: "not fl & 65",
    9: "not fl & 1",
    10: "fl & 128",
    11: "not fl & 128",
    12: "fl & 4",
    13: "not fl & 4",
}


def _flit(value: float) -> str:
    """A float literal that round-trips, including non-finite values (a
    NaN bit for bit: its payload and sign)."""
    if math.isfinite(value):
        return repr(value)
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    return f"PDU({_PACK_D.pack(value)!r}, 0)[0]"


def _bytes_lit(value: int) -> str:
    return repr((value & MASK64).to_bytes(8, "little"))


def _zf_sf_pf(var: str) -> str:
    return f"(64 if {var} == 0 else (128 if {var} < 0 else 0)) | PAR[{var} & 255]"


def _arith_flags(a, carry: str) -> None:
    """The flags of an add / sub / cmp of ``a`` and ``b`` whose exact result
    is ``r`` and wrapped result ``w``; ``carry`` is the CF condition."""
    a("fl = PAR[w & 255]")
    a("if w == 0:")
    a("    fl |= 64")
    a("elif w < 0:")
    a("    fl |= 128")
    a("if r != w:")
    a("    fl |= 2048")
    a(f"if {carry}:")
    a("    fl |= 1")
    a("FL[0] = fl")


# Memory words.  ``QS[k]`` / ``DS[k]`` view memory from byte ``k`` on as
# int64 / float64 words, so the word at address ``ad`` — aligned or not — is
# word ``ad >> 3`` of view ``ad & 7``.  ``ad`` is a local name holding a
# bounds-checked address, or a static address (an int).

def _view_word(views: str, ad) -> str:
    if isinstance(ad, int):
        return f"{views}[{ad & 7}][{ad >> 3}]"
    return f"{views}[{ad} & 7][{ad} >> 3]"


def _int_at(ad, views: bool = VIEWS) -> str:
    if views:
        return _view_word("QS", ad)
    return f"int.from_bytes(M[{ad}:{ad} + 8], 'little', signed=True)"


def _float_at(ad, views: bool = VIEWS) -> str:
    return _view_word("DS", ad) if views else f"PDU(M, {ad})[0]"


def _store_int(a, ad, value: str, views: bool = VIEWS) -> None:
    slow = f"M[{ad}:{ad} + 8] = ({value} & MK).to_bytes(8, 'little')"
    if not views:
        a(slow)
        return
    # a view refuses an int outside int64 (what an overflowing ``lea``
    # leaves in a register): the slice code stores its low 64 bits, as the
    # interpreter does
    a("try:")
    a(f"    {_view_word('QS', ad)} = {value}")
    a("except ValueError:")
    a(f"    {slow}")


def _store_imm(a, ad, value: int, views: bool = VIEWS) -> None:
    if views:
        a(f"{_view_word('QS', ad)} = {to_signed64(value)}")
    else:
        a(f"M[{ad}:{ad} + 8] = {_bytes_lit(value)}")


def _store_float(a, ad, value: str, views: bool = VIEWS) -> None:
    a(f"{_view_word('DS', ad)} = {value}" if views else f"PDP(M, {ad}, {value})")


def _static(addr: int, mem_size: int) -> bool:
    """Whether the views answer for static address ``addr``: the loader
    only emits addresses of words inside memory, which this checks."""
    return VIEWS and 0 <= addr <= mem_size - 8


def _address(a, base: int, disp: int, i: int, what: str, mem_size: int) -> None:
    """``ad = I[base] + disp``, bounds-checked: instruction ``i`` segfaults
    outside ``[NULL_GUARD, mem_size - 8]``."""
    a(f"ad = I[{base}] + {disp}" if disp else f"ad = I[{base}]")
    a(f"if not {NULL_GUARD} <= ad <= {mem_size - 8}:")
    a(f"    raise SegmentationFault(f'{what} {{ad:#x}}', P[{i}])")


def emit_instr(
    lines: list[str], i: int, t: tuple, program: LoadedProgram, live: bool
) -> None:
    """Append the straight-line Python for instruction ``t``, translated
    instruction ``i`` (its pc is ``P[i]``, :func:`gen_source`); ``live``:
    whether the flags it writes are observed (:func:`flag_liveness`)."""
    op = t[0]
    mem_size = program.mem_size
    stack_limit = program.stack_limit
    a = lines.append

    if op == O.MOV_RR:
        a(f"I[{t[1]}] = I[{t[2]}]")
    elif op == O.MOV_RI:
        a(f"I[{t[1]}] = {t[2]}")
    elif op == O.LOAD_RD:
        _address(a, t[2], t[3], i, "load from", mem_size)
        a(f"I[{t[1]}] = {_int_at('ad')}")
    elif op == O.FLOAD_RD:
        _address(a, t[2], t[3], i, "fload from", mem_size)
        a(f"F[{t[1]}] = {_float_at('ad')}")
    elif op in (O.ADD_RR, O.ADD_RI, O.SUB_RR, O.SUB_RI, O.CMP_RR, O.CMP_RI):
        dst = f"I[{t[1]}]"
        reg_src = op in (O.ADD_RR, O.SUB_RR, O.CMP_RR)
        src = f"I[{t[2]}]" if reg_src else str(t[2])
        sym = "+" if op in (O.ADD_RR, O.ADD_RI) else "-"
        writes = op not in (O.CMP_RR, O.CMP_RI)
        if live:
            # an immediate operand stays a literal (its low 64 bits, too)
            a(f"a = {dst}; b = {src}" if reg_src else f"a = {dst}")
            a(f"r = a {sym} {'b' if reg_src else src}")
            a(f"w = {_WRAP_R}")
            if writes:
                a(f"{dst} = w")
            low = "(b & MK)" if reg_src else str(t[2] & MASK64)
            _arith_flags(a, f"(a & MK) + {low} > MK" if sym == "+"
                         else f"(a & MK) < {low}")
        elif writes:
            a(f"r = {dst} {sym} {src}")
            a(f"{dst} = {_WRAP_R}")
        # (a compare whose flags nobody reads is no code at all)
    elif op in (O.IMUL_RR, O.IMUL_RI, O.SHL_RI, O.SHL_RR, O.NEG):
        dst = f"I[{t[1]}]"
        if op == O.NEG:
            a(f"r = -{dst}")
        elif op in (O.SHL_RI, O.SHL_RR):
            cnt = f"{t[2] & 63}" if op == O.SHL_RI else f"I[{t[2]}] & 63"
            a(f"r = {dst} << ({cnt})")
        else:
            src = f"I[{t[2]}]" if op == O.IMUL_RR else str(t[2])
            a(f"r = {dst} * {src}")
        if not live:
            a(f"{dst} = {_WRAP_R}")
        else:
            a(f"w = {_WRAP_R}")
            a(f"{dst} = w")
            a("fl = " + _zf_sf_pf("w"))
            if op in (O.IMUL_RR, O.IMUL_RI):
                a("if r != w:")
                a("    fl |= 2049")
            a("FL[0] = fl")
    elif op in (O.SAR_RI, O.SAR_RR, O.AND_RR, O.AND_RI, O.OR_RR, O.OR_RI,
                O.XOR_RR, O.XOR_RI):
        if op in (O.SAR_RI, O.SAR_RR):
            cnt = f"{t[2] & 63}" if op == O.SAR_RI else f"I[{t[2]}] & 63"
            a(f"r = I[{t[1]}] >> ({cnt})")
        else:
            sym = {
                O.AND_RR: "&", O.AND_RI: "&",
                O.OR_RR: "|", O.OR_RI: "|",
                O.XOR_RR: "^", O.XOR_RI: "^",
            }[op]
            reg_src = op in (O.AND_RR, O.OR_RR, O.XOR_RR)
            src = f"I[{t[2]}]" if reg_src else str(t[2])
            a(f"r = I[{t[1]}] {sym} {src}")
        a(f"I[{t[1]}] = r")
        if live:
            a("FL[0] = " + _zf_sf_pf("r"))
    elif op in (O.IDIV_RR, O.IDIV_RI, O.IREM_RR, O.IREM_RI):
        div = op in (O.IDIV_RR, O.IDIV_RI)
        trap = f"raise DivideByZero(f'{{a}} {'idiv' if div else 'irem'} {{b}}', P[{i}])"
        if op in (O.IDIV_RR, O.IREM_RR):
            a(f"a = I[{t[1]}]; b = I[{t[2]}]")
            a(f"if b == 0 or (a == {_INT64_MIN} and b == -1):")
            a(f"    {trap}")
            flips = "(a < 0) != (b < 0)"
        else:
            # an immediate divisor decides the trap test when translating
            b = t[2]
            a(f"a = I[{t[1]}]; b = {b}")
            if b == 0:
                a(trap)
                return
            if b == -1:
                a(f"if a == {_INT64_MIN}:")
                a(f"    {trap}")
            flips = "a >= 0" if b < 0 else "a < 0"
        if div:
            a("r = abs(a) // abs(b)")
            a(f"if {flips}:")
        else:
            a("r = abs(a) % abs(b)")
            a("if a < 0:")
        a("    r = -r")
        a(f"I[{t[1]}] = r")
        if live:
            a("FL[0] = " + _zf_sf_pf("r"))
    elif op == O.FADD:
        a(f"F[{t[1]}] = F[{t[1]}] + F[{t[2]}]")
    elif op == O.FSUB:
        a(f"F[{t[1]}] = F[{t[1]}] - F[{t[2]}]")
    elif op == O.FMUL:
        a(f"F[{t[1]}] = F[{t[1]}] * F[{t[2]}]")
    elif op == O.FDIV:
        a(f"a = F[{t[1]}]; b = F[{t[2]}]")
        a("if b == 0.0:")
        a("    if a == 0.0 or a != a:")
        a(f"        F[{t[1]}] = NAN")
        a("    else:")
        a(f"        F[{t[1]}] = copysign(INF, a) * copysign(1.0, b)")
        a("else:")
        a(f"    F[{t[1]}] = a / b")
    elif op == O.FMOV:
        a(f"F[{t[1]}] = F[{t[2]}]")
    elif op == O.FCONST:
        a(f"F[{t[1]}] = {_flit(t[2])}")
    elif op == O.FCMP:
        if live:
            a(f"a = F[{t[1]}]; b = F[{t[2]}]")
            a("if a != a or b != b:")
            a("    FL[0] = 69")
            a("elif a == b:")
            a("    FL[0] = 64")
            a("elif a < b:")
            a("    FL[0] = 1")
            a("else:")
            a("    FL[0] = 0")
    elif op == O.SETCC:
        a("fl = FL[0]")
        a(f"I[{t[1]}] = 1 if ({_CC_EXPR[t[2]]}) else 0")
    elif op == O.CMOV:
        a("fl = FL[0]")
        a(f"if {_CC_EXPR[t[3]]}:")
        a(f"    I[{t[1]}] = I[{t[2]}]")
    elif op == O.LEA_RD:
        a(f"I[{t[1]}] = I[{t[2]}] + {t[3]}")
    elif op == O.LEA_ABS:
        a(f"I[{t[1]}] = {t[2]}")
    elif op == O.LOAD_ABS:
        a(f"I[{t[1]}] = {_int_at(t[2], _static(t[2], mem_size))}")
    elif op == O.FLOAD_ABS:
        a(f"F[{t[1]}] = {_float_at(t[2], _static(t[2], mem_size))}")
    elif op == O.STORE_RD:
        _address(a, t[1], t[2], i, "store to", mem_size)
        _store_int(a, "ad", f"I[{t[3]}]")
    elif op == O.STORE_RD_I:
        _address(a, t[1], t[2], i, "store to", mem_size)
        _store_imm(a, "ad", t[3])
    elif op == O.FSTORE_RD:
        _address(a, t[1], t[2], i, "fstore to", mem_size)
        _store_float(a, "ad", f"F[{t[3]}]")
    elif op == O.STORE_ABS:
        _store_int(a, t[1], f"I[{t[2]}]", _static(t[1], mem_size))
    elif op == O.STORE_ABS_I:
        _store_imm(a, t[1], t[2], _static(t[1], mem_size))
    elif op == O.FSTORE_ABS:
        _store_float(a, t[1], f"F[{t[2]}]", _static(t[1], mem_size))
    elif op == O.PUSH:
        a(f"sp = I[{RSP_IDX}] - 8")
        a(f"if sp < {stack_limit}:")
        a(f"    raise StackOverflow(f'rsp={{sp:#x}}', P[{i}])")
        a(f"if sp + 8 > {mem_size}:")
        a(f"    raise SegmentationFault(f'push to {{sp:#x}}', P[{i}])")
        a(f"I[{RSP_IDX}] = sp")
        _store_int(a, "sp", f"I[{t[1]}]")
    elif op == O.POP:
        a(f"sp = I[{RSP_IDX}]")
        a(f"if sp < {NULL_GUARD} or sp + 8 > {mem_size}:")
        a(f"    raise SegmentationFault(f'pop from {{sp:#x}}', P[{i}])")
        a(f"I[{t[1]}] = {_int_at('sp')}")
        a(f"I[{RSP_IDX}] = sp + 8")
    elif op == O.INTR:
        a(f"cpu._cur_pc = P[{i}]")
        a("cpu.flags = FL[0]")
        a(f"IN[{t[1]}](cpu)")
        a("FL[0] = cpu.flags")
    elif op == O.CVTSI2SD:
        a(f"F[{t[1]}] = float(I[{t[2]}])")
    elif op == O.CVTTSD2SI:
        a(f"v = F[{t[2]}]")
        a("if v != v or v in (INF, -INF):")
        a(f"    I[{t[1]}] = {_INT64_MIN}")
        a("else:")
        a("    tr = trunc(v)")
        a(f"    if not {_INT64_MIN} <= tr < {-_INT64_MIN}:")
        a(f"        I[{t[1]}] = {_INT64_MIN}")
        a("    else:")
        a(f"        I[{t[1]}] = tr")
    elif op == O.FI_CHECK:
        # No code: trigger counting is batched by the trampoline via
        # BlockMeta.sites, and an armed trigger never reaches a free-run block.
        pass
    else:
        a(f"raise IllegalInstruction(f'opcode {op}', P[{i}])")


def emit_terminator(lines: list[str], i: int, t: tuple, program: LoadedProgram) -> None:
    op = t[0]
    a = lines.append
    if op == O.JMP:
        a(f"return P[{t[1]}]")
    elif op == O.JCC:
        a("fl = FL[0]")
        a(f"return P[{t[2]}] if ({_CC_EXPR[t[1]]}) else P[{i + 1}]")
    elif op == O.CALL:
        a(f"sp = I[{RSP_IDX}] - 8")
        a(f"if sp < {program.stack_limit}:")
        a(f"    raise StackOverflow(f'rsp={{sp:#x}}', P[{i}])")
        a(f"if sp + 8 > {program.mem_size}:")
        a(f"    raise SegmentationFault(f'call push to {{sp:#x}}', P[{i}])")
        a(f"I[{RSP_IDX}] = sp")
        if VIEWS:  # a return address is a small positive int: no fallback
            a(f"{_view_word('QS', 'sp')} = P[{i + 1}]")
        else:
            a(f"M[sp:sp + 8] = P[{i + 1}].to_bytes(8, 'little')")
        a(f"return P[{t[1]}]")
    elif op == O.RET:
        a(f"sp = I[{RSP_IDX}]")
        a(f"if sp < {NULL_GUARD} or sp + 8 > {program.mem_size}:")
        a(f"    raise SegmentationFault(f'ret pop from {{sp:#x}}', P[{i}])")
        a(f"rp = {_int_at('sp')}")
        a(f"I[{RSP_IDX}] = sp + 8")
        a("if rp == -1:")
        a("    return -1")
        a("if not 0 <= rp < P[-1]:")
        a(f"    raise IllegalInstruction(f'ret to {{rp:#x}}', P[{i}])")
        a("return rp")
    else:
        raise AssertionError(f"not a terminator: {op}")


def gen_block_body(
    program: LoadedProgram, code: list[tuple], start: int, end: int
) -> list[str]:
    """Generate the body of one block function (unindented lines):
    ``code[start:end]``, in translated numbering (:func:`gen_source`)."""
    live = flag_liveness(code, start, end)
    lines: list[str] = []
    for i in range(start, end):
        t = code[i]
        if t[0] in _TERMINATORS:
            emit_terminator(lines, i, t, program)
        else:
            emit_instr(lines, i, t, program, live[i - start])
    if not code[end - 1][0] in _TERMINATORS:
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
        if t[0] in (O.JMP, O.CALL):
            reached.add(t[1])
        elif t[0] == O.JCC:
            reached.add(t[2])
        if t[0] in _TERMINATORS:
            reached.add(pc + 1)
    P = [pc for pc, t in enumerate(code) if t[0] != O.FI_CHECK or pc in reached]
    P.append(len(code))
    index = {pc: i for i, pc in enumerate(P)}
    translated = []
    for pc in P[:-1]:
        t = code[pc]
        if t[0] in (O.JMP, O.CALL):
            t = (t[0], index[t[1]])
        elif t[0] == O.JCC:
            t = (t[0], t[1], index[t[2]])
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
    for start in leaders:
        first, end = index[start], index[end_of[start]]
        out.append(f"    def b{first}():")
        for line in gen_block_body(program, translated, first, end):
            out.append("        " + line)
    table = ", ".join(f"P[{index[s]}]: b{index[s]}" for s in leaders)
    out.append("    return {%s}" % table)
    out.append("")
    return "\n".join(out), P


def exec_namespace() -> dict:
    """The globals generated code runs against."""
    return {
        "tos": to_signed64,
        "MK": MASK64,
        "PAR": PARITY_TABLE,
        "PDU": _PACK_D.unpack_from,
        "PDP": _PACK_D.pack_into,
        "NAN": math.nan,
        "INF": math.inf,
        "copysign": math.copysign,
        "trunc": math.trunc,
        "IN": INTRINSIC_TABLE.impls,
        "SegmentationFault": SegmentationFault,
        "StackOverflow": StackOverflow,
        "DivideByZero": DivideByZero,
        "IllegalInstruction": IllegalInstruction,
    }
