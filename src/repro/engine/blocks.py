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
instruction raises with its own pc literal; the trampoline rewinds the
batched accounting to the executed prefix (``range(entry, trap.pc)``).
"""

from __future__ import annotations

import math
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
TRANSLATION_VERSION = 1

_INT64_MIN = -(1 << 63)

#: Opcodes that end a basic block (control transfers).
_TERMINATORS = frozenset({O.JMP, O.JCC, O.CALL, O.RET})

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
    """A float literal that round-trips, including non-finite values."""
    if math.isfinite(value):
        return repr(value)
    return f"float({str(value)!r})"


def _bytes_lit(value: int) -> str:
    return repr((value & MASK64).to_bytes(8, "little"))


def _wrap_lines(dst: str) -> list[str]:
    return [
        f"w = r if {_INT64_MIN} <= r < {-_INT64_MIN} else tos(r)",
        f"{dst} = w",
    ]


def _zf_sf_pf(var: str) -> str:
    return f"(64 if {var} == 0 else (128 if {var} < 0 else 0)) | PAR[{var} & 255]"


def emit_instr(lines: list[str], pc: int, t: tuple, program: LoadedProgram) -> None:
    """Append the straight-line Python for instruction ``t`` at ``pc``."""
    op = t[0]
    mem_size = program.mem_size
    stack_limit = program.stack_limit
    a = lines.append

    if op == O.MOV_RR:
        a(f"I[{t[1]}] = I[{t[2]}]")
    elif op == O.MOV_RI:
        a(f"I[{t[1]}] = {t[2]}")
    elif op == O.LOAD_RD:
        a(f"ad = I[{t[2]}] + {t[3]}")
        a(f"if ad < {NULL_GUARD} or ad + 8 > {mem_size}:")
        a(f"    raise SegmentationFault(f'load from {{ad:#x}}', {pc})")
        a(f"I[{t[1]}] = int.from_bytes(M[ad:ad+8], 'little', signed=True)")
    elif op == O.FLOAD_RD:
        a(f"ad = I[{t[2]}] + {t[3]}")
        a(f"if ad < {NULL_GUARD} or ad + 8 > {mem_size}:")
        a(f"    raise SegmentationFault(f'fload from {{ad:#x}}', {pc})")
        a(f"F[{t[1]}] = PDU(M, ad)[0]")
    elif op in (O.ADD_RR, O.ADD_RI):
        src = f"I[{t[2]}]" if op == O.ADD_RR else str(t[2])
        a(f"a = I[{t[1]}]; b = {src}")
        a("r = a + b")
        lines.extend(_wrap_lines(f"I[{t[1]}]"))
        a("fl = PAR[w & 255]")
        a("if w == 0:")
        a("    fl |= 64")
        a("elif w < 0:")
        a("    fl |= 128")
        a("if r != w:")
        a("    fl |= 2048")
        a("if (a & MK) + (b & MK) > MK:")
        a("    fl |= 1")
        a("FL[0] = fl")
    elif op in (O.SUB_RR, O.SUB_RI, O.CMP_RR, O.CMP_RI):
        reg_src = op in (O.SUB_RR, O.CMP_RR)
        src = f"I[{t[2]}]" if reg_src else str(t[2])
        a(f"a = I[{t[1]}]; b = {src}")
        a("r = a - b")
        if op in (O.SUB_RR, O.SUB_RI):
            lines.extend(_wrap_lines(f"I[{t[1]}]"))
        else:
            a(f"w = r if {_INT64_MIN} <= r < {-_INT64_MIN} else tos(r)")
        a("fl = PAR[w & 255]")
        a("if w == 0:")
        a("    fl |= 64")
        a("elif w < 0:")
        a("    fl |= 128")
        a("if r != w:")
        a("    fl |= 2048")
        a("if (a & MK) < (b & MK):")
        a("    fl |= 1")
        a("FL[0] = fl")
    elif op in (O.IMUL_RR, O.IMUL_RI):
        src = f"I[{t[2]}]" if op == O.IMUL_RR else str(t[2])
        a(f"a = I[{t[1]}]; b = {src}")
        a("r = a * b")
        lines.extend(_wrap_lines(f"I[{t[1]}]"))
        a("fl = " + _zf_sf_pf("w"))
        a("if r != w:")
        a("    fl |= 2049")
        a("FL[0] = fl")
    elif op in (O.SHL_RI, O.SHL_RR):
        cnt = f"{t[2] & 63}" if op == O.SHL_RI else f"I[{t[2]}] & 63"
        a(f"r = tos(I[{t[1]}] << ({cnt}))")
        a(f"I[{t[1]}] = r")
        a("FL[0] = " + _zf_sf_pf("r"))
    elif op in (O.SAR_RI, O.SAR_RR):
        cnt = f"{t[2] & 63}" if op == O.SAR_RI else f"I[{t[2]}] & 63"
        a(f"r = I[{t[1]}] >> ({cnt})")
        a(f"I[{t[1]}] = r")
        a("FL[0] = " + _zf_sf_pf("r"))
    elif op in (O.AND_RR, O.AND_RI, O.OR_RR, O.OR_RI, O.XOR_RR, O.XOR_RI):
        sym = {
            O.AND_RR: "&", O.AND_RI: "&",
            O.OR_RR: "|", O.OR_RI: "|",
            O.XOR_RR: "^", O.XOR_RI: "^",
        }[op]
        reg_src = op in (O.AND_RR, O.OR_RR, O.XOR_RR)
        src = f"I[{t[2]}]" if reg_src else str(t[2])
        a(f"r = I[{t[1]}] {sym} {src}")
        a(f"I[{t[1]}] = r")
        a("FL[0] = " + _zf_sf_pf("r"))
    elif op == O.NEG:
        a(f"r = tos(-I[{t[1]}])")
        a(f"I[{t[1]}] = r")
        a("FL[0] = " + _zf_sf_pf("r"))
    elif op in (O.IDIV_RR, O.IDIV_RI):
        src = f"I[{t[2]}]" if op == O.IDIV_RR else str(t[2])
        a(f"a = I[{t[1]}]; b = {src}")
        a(f"if b == 0 or (a == {_INT64_MIN} and b == -1):")
        a(f"    raise DivideByZero(f'{{a}} idiv {{b}}', {pc})")
        a("r = abs(a) // abs(b)")
        a("if (a < 0) != (b < 0):")
        a("    r = -r")
        a(f"I[{t[1]}] = r")
        a("FL[0] = " + _zf_sf_pf("r"))
    elif op in (O.IREM_RR, O.IREM_RI):
        src = f"I[{t[2]}]" if op == O.IREM_RR else str(t[2])
        a(f"a = I[{t[1]}]; b = {src}")
        a(f"if b == 0 or (a == {_INT64_MIN} and b == -1):")
        a(f"    raise DivideByZero(f'{{a}} irem {{b}}', {pc})")
        a("r = abs(a) % abs(b)")
        a("if a < 0:")
        a("    r = -r")
        a(f"I[{t[1]}] = r")
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
        a(f"I[{t[1]}] = int.from_bytes(M[{t[2]}:{t[2] + 8}], 'little', signed=True)")
    elif op == O.FLOAD_ABS:
        a(f"F[{t[1]}] = PDU(M, {t[2]})[0]")
    elif op == O.STORE_RD:
        a(f"ad = I[{t[1]}] + {t[2]}")
        a(f"if ad < {NULL_GUARD} or ad + 8 > {mem_size}:")
        a(f"    raise SegmentationFault(f'store to {{ad:#x}}', {pc})")
        a(f"M[ad:ad+8] = (I[{t[3]}] & MK).to_bytes(8, 'little')")
    elif op == O.STORE_RD_I:
        a(f"ad = I[{t[1]}] + {t[2]}")
        a(f"if ad < {NULL_GUARD} or ad + 8 > {mem_size}:")
        a(f"    raise SegmentationFault(f'store to {{ad:#x}}', {pc})")
        a(f"M[ad:ad+8] = {_bytes_lit(t[3])}")
    elif op == O.FSTORE_RD:
        a(f"ad = I[{t[1]}] + {t[2]}")
        a(f"if ad < {NULL_GUARD} or ad + 8 > {mem_size}:")
        a(f"    raise SegmentationFault(f'fstore to {{ad:#x}}', {pc})")
        a(f"PDP(M, ad, F[{t[3]}])")
    elif op == O.STORE_ABS:
        a(f"M[{t[1]}:{t[1] + 8}] = (I[{t[2]}] & MK).to_bytes(8, 'little')")
    elif op == O.STORE_ABS_I:
        a(f"M[{t[1]}:{t[1] + 8}] = {_bytes_lit(t[2])}")
    elif op == O.FSTORE_ABS:
        a(f"PDP(M, {t[1]}, F[{t[2]}])")
    elif op == O.PUSH:
        a(f"sp = I[{RSP_IDX}] - 8")
        a(f"if sp < {stack_limit}:")
        a(f"    raise StackOverflow(f'rsp={{sp:#x}}', {pc})")
        a(f"if sp + 8 > {mem_size}:")
        a(f"    raise SegmentationFault(f'push to {{sp:#x}}', {pc})")
        a(f"I[{RSP_IDX}] = sp")
        a(f"M[sp:sp+8] = (I[{t[1]}] & MK).to_bytes(8, 'little')")
    elif op == O.POP:
        a(f"sp = I[{RSP_IDX}]")
        a(f"if sp < {NULL_GUARD} or sp + 8 > {mem_size}:")
        a(f"    raise SegmentationFault(f'pop from {{sp:#x}}', {pc})")
        a(f"I[{t[1]}] = int.from_bytes(M[sp:sp+8], 'little', signed=True)")
        a(f"I[{RSP_IDX}] = sp + 8")
    elif op == O.INTR:
        a(f"cpu._cur_pc = {pc}")
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
        # Trigger counting is batched by the trampoline via BlockMeta.sites;
        # armed triggers never reach free-run blocks (careful-window check).
        a("pass")
    else:
        a(f"raise IllegalInstruction(f'opcode {op}', {pc})")


def emit_terminator(lines: list[str], pc: int, t: tuple, program: LoadedProgram) -> None:
    op = t[0]
    a = lines.append
    if op == O.JMP:
        a(f"return {t[1]}")
    elif op == O.JCC:
        a("fl = FL[0]")
        a(f"return {t[2]} if ({_CC_EXPR[t[1]]}) else {pc + 1}")
    elif op == O.CALL:
        a(f"sp = I[{RSP_IDX}] - 8")
        a(f"if sp < {program.stack_limit}:")
        a(f"    raise StackOverflow(f'rsp={{sp:#x}}', {pc})")
        a(f"if sp + 8 > {program.mem_size}:")
        a(f"    raise SegmentationFault(f'call push to {{sp:#x}}', {pc})")
        a(f"I[{RSP_IDX}] = sp")
        a(f"M[sp:sp+8] = {_bytes_lit(pc + 1)}")
        a(f"return {t[1]}")
    elif op == O.RET:
        a(f"sp = I[{RSP_IDX}]")
        a(f"if sp < {NULL_GUARD} or sp + 8 > {program.mem_size}:")
        a(f"    raise SegmentationFault(f'ret pop from {{sp:#x}}', {pc})")
        a("rp = int.from_bytes(M[sp:sp+8], 'little', signed=True)")
        a(f"I[{RSP_IDX}] = sp + 8")
        a("if rp == -1:")
        a("    return -1")
        a(f"if not 0 <= rp < {len(program.code)}:")
        a(f"    raise IllegalInstruction(f'ret to {{rp:#x}}', {pc})")
        a("return rp")
    else:
        raise AssertionError(f"not a terminator: {op}")


def gen_block_body(program: LoadedProgram, start: int, end: int) -> list[str]:
    """Generate the body of one block function (unindented lines)."""
    code = program.code
    lines: list[str] = []
    for pc in range(start, end):
        t = code[pc]
        lines.append(f"# pc {pc}")
        if t[0] in _TERMINATORS:
            emit_terminator(lines, pc, t, program)
        else:
            emit_instr(lines, pc, t, program)
    if not code[end - 1][0] in _TERMINATORS:
        lines.append(f"return {end}")
    return lines


def gen_source(program: LoadedProgram, leaders: list[int], end_of: list[int]) -> str:
    """Generate the full translation: ``make_blocks(cpu, FL)`` factory."""
    out = [
        "# Generated by repro.engine.blocks -- do not edit.",
        f"# translation version {TRANSLATION_VERSION}",
        "def make_blocks(cpu, FL):",
        "    I = cpu.iregs",
        "    F = cpu.fregs",
        "    M = cpu.mem",
    ]
    for start in leaders:
        end = end_of[start]
        out.append(f"    def b{start}():")
        for line in gen_block_body(program, start, end):
            out.append("        " + line)
    table = ", ".join(f"{s}: b{s}" for s in leaders)
    out.append("    return {%s}" % table)
    out.append("")
    return "\n".join(out)


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
