"""Generated blocks against the interpreter loop, one opcode at a time.

For every opcode the block emitter handles, a block built around it runs
from a random register, flag and memory state twice: as the code
``repro.engine.blocks`` generates, and on ``CPU._loop`` for exactly the
block's length.  At the block's exit both must agree on the next pc, every
register (floats bit for bit), every memory word, the flags and the output;
a block that traps, on the trap kind and pc only — all a trapped run is
compared on.  Intrinsics here print the flags they are handed and their pc
first, so the exact flags a block owes at an intrinsic call are compared
too — all but the LLFI stubs, which a block does not call: it renders a
visit as the stub's unfired effect, so there the value must pass through
with the flags left alone, and the block's static visit count
(``BlockMeta.llfis``, over the executed prefix when it traps) must equal
what the interpreter's stubs added to ``_llfi_count``.

Both executions are rendered from one semantics table
(:mod:`repro.machine.semantics`), so this checks the two rendering contexts
and block flag liveness, not the table's entries: the frozen vectors of
``test_isa_vectors.py`` do that.

Random straight-line blocks mix flag writers with every flag reader
(``SETCC``, ``CMOV``, ``JCC``, ``INTR``): the case a flag-liveness bug
breaks.  States cover aligned and unaligned addresses, addresses outside
memory, int64 edges and values past them (what an overflowing ``lea`` leaves
in a register), and NaN (signalling too), ±inf and ±0.0.
"""

from __future__ import annotations

import math
import random
import re
import struct
from contextlib import contextmanager

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.engine import blocks
from repro.engine.blocks import DEOPT, block_meta, exec_namespace, gen_source
from repro.errors import MachineTrap
from repro.machine import CPU
from repro.machine import opcodes as O
from repro.machine.intrinsics import INTRINSIC_TABLE
from repro.machine.loader import NULL_GUARD, STACK_GUARD, LoadedProgram
from repro.machine.registers import (
    RAX_IDX,
    RDI_IDX,
    RSI_IDX,
    RSP_IDX,
    XMM0_IDX,
    XMM1_IDX,
)
from repro.utils.bits import INT64_MAX, INT64_MIN, MASK64

MEM_SIZE = 0x3000
DATA_END = NULL_GUARD + 0x100
STACK_LIMIT = DATA_END + STACK_GUARD

_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                     database=None)

# -- states ------------------------------------------------------------------

_SNAN = struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000001))[0]
_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000123))[0]

int64s = st.one_of(
    st.sampled_from([0, 1, -1, 2, 8, 63, 64, 255, 1 << 32, INT64_MAX,
                     INT64_MIN, INT64_MAX - 7, INT64_MIN + 1]),
    st.integers(INT64_MIN, INT64_MAX),
)
_aligned = st.integers(NULL_GUARD // 8, MEM_SIZE // 8 - 2).map(lambda w: 8 * w)
addresses = st.one_of(
    _aligned,
    st.tuples(_aligned, st.integers(1, 7)).map(sum),  # unaligned
    st.sampled_from([NULL_GUARD - 8, NULL_GUARD - 1, MEM_SIZE - 7, MEM_SIZE,
                     -8, STACK_LIMIT - 8, STACK_LIMIT, STACK_LIMIT + 8]),
)
#: what a register can hold: int64 values, addresses, and what an
#: overflowing ``lea`` leaves (outside int64)
reg_values = st.one_of(
    int64s, addresses, st.sampled_from([1 << 63, INT64_MIN - 8, (1 << 64) + 8]),
)
floats = st.one_of(
    st.sampled_from([math.nan, -math.nan, _SNAN, _NAN_PAYLOAD, math.inf,
                     -math.inf, 0.0, -0.0, 1.0, -2.5, 5e-324, 2.0 ** 63,
                     -(2.0 ** 63), 1.8e308]),
    st.floats(),
)

# -- instructions --------------------------------------------------------------

ireg = st.integers(0, 13)
#: an integer register used as an address: its value is drawn from
#: ``addresses`` (``ireg``'s from ``reg_values``)
breg = st.integers(0, 13)
freg = st.integers(0, 15)
cc = st.integers(0, 13)
disp = st.sampled_from([0, 8, -8, 24, 1, -3])
abs_addr = st.integers(0, MEM_SIZE // 8 - 2).map(lambda w: 8 * w).flatmap(
    lambda a: st.sampled_from([a, a + 8, a + 3, a + 4]))  # aligned, unaligned
#: a jump target (the block is the whole program: its own pc, or the end)
target = st.integers(0, 1)

_ALU = [
    (O.ADD_RR, O.ADD_RI), (O.SUB_RR, O.SUB_RI), (O.CMP_RR, O.CMP_RI),
    (O.IMUL_RR, O.IMUL_RI), (O.AND_RR, O.AND_RI), (O.OR_RR, O.OR_RI),
    (O.XOR_RR, O.XOR_RI), (O.SHL_RR, O.SHL_RI), (O.SAR_RR, O.SAR_RI),
    (O.IDIV_RR, O.IDIV_RI), (O.IREM_RR, O.IREM_RI),
]

#: operand strategies per opcode: the operands the emitter and the interpreter
#: read, in the loader's order (its INTR and FI_CHECK tuples carry one more,
#: which neither reads)
OPERANDS = {
    O.MOV_RR: (ireg, ireg), O.MOV_RI: (ireg, int64s),
    O.FMOV: (freg, freg), O.FCONST: (freg, floats),
    O.LEA_RD: (ireg, breg, disp), O.LEA_ABS: (ireg, abs_addr),
    O.LOAD_RD: (ireg, breg, disp), O.LOAD_ABS: (ireg, abs_addr),
    O.STORE_RD: (breg, disp, ireg), O.STORE_RD_I: (breg, disp, int64s),
    O.STORE_ABS: (abs_addr, ireg), O.STORE_ABS_I: (abs_addr, int64s),
    O.FLOAD_RD: (freg, breg, disp), O.FLOAD_ABS: (freg, abs_addr),
    O.FSTORE_RD: (breg, disp, freg), O.FSTORE_ABS: (abs_addr, freg),
    **{rr: (ireg, ireg) for rr, _ in _ALU},
    **{ri: (ireg, int64s) for _, ri in _ALU},
    O.NEG: (ireg,),
    O.FADD: (freg, freg), O.FSUB: (freg, freg), O.FMUL: (freg, freg),
    O.FDIV: (freg, freg), O.FCMP: (freg, freg),
    O.SETCC: (ireg, cc), O.CMOV: (ireg, ireg, cc),
    O.JMP: (target,), O.JCC: (cc, target), O.CALL: (target,),
    O.INTR: (st.integers(0, len(INTRINSIC_TABLE.impls) - 1),), O.RET: (),
    O.PUSH: (ireg,), O.POP: (ireg,),
    O.CVTSI2SD: (freg, ireg), O.CVTTSD2SI: (ireg, freg),
    O.FI_CHECK: (st.just(()),),
}
TERMINATORS = (O.JMP, O.JCC, O.CALL, O.RET)
_INJECT_I64 = INTRINSIC_TABLE.index_of("__fi_inject_i64")
FLAG_WRITERS = (*(op for pair in _ALU for op in pair), O.NEG, O.FCMP)
FLAG_READERS = (O.SETCC, O.CMOV, O.INTR)


def instrs(op):
    return st.tuples(st.just(op), *OPERANDS[op])


@st.composite
def states_for(draw, code):
    """A machine state to run ``code`` from: every register the code names
    (``rsp`` for the stack, the argument and result registers for an
    intrinsic) drawn, the rest seeded filler, random memory with a chosen
    word at ``rsp`` (a halt, a pc, garbage) for a ``ret`` to pop."""
    ints, flts = {}, set()
    for t in code:
        for operand, value in zip(OPERANDS[t[0]], t[1:]):
            if operand is ireg or operand is breg:
                ints[value] = ints.get(value, False) or operand is breg
            elif operand is freg:
                flts.add(value)
        if t[0] in (O.PUSH, O.POP, O.CALL, O.RET):
            ints[RSP_IDX] = True
        elif t[0] == O.INTR:
            ints.update(dict.fromkeys((RAX_IDX, RDI_IDX, RSI_IDX), False))
            flts |= {XMM0_IDX, XMM1_IDX}
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = random.Random(seed)
    iregs = [rng.randint(INT64_MIN, INT64_MAX) for _ in range(14)]
    fregs = [rng.uniform(-1e6, 1e6) for _ in range(16)]
    for i, address in sorted(ints.items()):
        iregs[i] = draw(addresses if address else reg_values)
    for f in sorted(flts):
        fregs[f] = draw(floats)
    flags = draw(st.integers(0, 0xFFF))
    ret_word = draw(st.sampled_from([-1, 0, 1, 1000, INT64_MIN]))
    return iregs, fregs, flags, seed, ret_word


@st.composite
def block_cases(draw):
    """A straight-line block of flag writers, flag readers, moves, loads and
    fi_checks (which translation drops, renumbering what follows), perhaps
    ended by a terminator, and the state it starts from."""
    ops = st.sampled_from(
        FLAG_WRITERS + FLAG_READERS * 4
        + (O.MOV_RR, O.MOV_RI, O.LOAD_RD, O.FI_CHECK)
    )
    code = [draw(ops.flatmap(instrs)) for _ in range(draw(st.integers(1, 8)))]
    end = draw(st.none() | st.sampled_from(TERMINATORS).flatmap(instrs))
    if end is not None:
        code.append(end)
    return code, draw(states_for(code))


# -- the two executions --------------------------------------------------------

class _Stop(Exception):
    def __init__(self, pc: int) -> None:
        self.pc = pc


def _stop(cpu, pc):
    raise _Stop(pc)


@contextmanager
def _intrinsics_print_flags():
    """Every intrinsic but an LLFI stub first prints the flags it was
    handed and the pc it was called from (both the generated code and
    ``CPU._loop`` look the table up when they start)."""
    real = INTRINSIC_TABLE.impls

    def printing(impl):
        def call(cpu):
            cpu.output.append(f"flags {cpu.flags} at {cpu._cur_pc}")
            impl(cpu)
        return call

    INTRINSIC_TABLE.impls = [
        impl if i in INTRINSIC_TABLE.unfired else printing(impl)
        for i, impl in enumerate(real)
    ]
    try:
        yield
    finally:
        INTRINSIC_TABLE.impls = real


def _program(code) -> LoadedProgram:
    n = len(code)
    return LoadedProgram(
        binary=None, code=list(code), cost=[1.0] * n,
        is_candidate=[False] * n, outputs=[()] * n,
        data_end=DATA_END, mem_size=MEM_SIZE,
    )


def _memory(state) -> bytes:
    return random.Random(state[3]).randbytes(MEM_SIZE)


def _cpu(program, state) -> CPU:
    iregs, fregs, flags, _, ret_word = state
    cpu = CPU(program)
    cpu.iregs[:] = iregs
    cpu.fregs[:] = fregs
    cpu.flags = flags
    cpu.mem[:] = _memory(state)
    sp = iregs[RSP_IDX]
    if 0 <= sp <= MEM_SIZE - 8:
        cpu.mem[sp:sp + 8] = (ret_word & MASK64).to_bytes(8, "little")
    return cpu


def _observed(cpu, exit_pc, state, llfis) -> dict:
    before = _memory(state)
    after = bytes(cpu.mem)
    return {
        "exit": exit_pc,
        "iregs": list(cpu.iregs),
        "fregs": struct.pack("<16d", *cpu.fregs).hex(),
        "flags": cpu.flags,
        "output": list(cpu.output),
        "mem": {} if after == before else {
            a: after[a:a + 8].hex()
            for a in range(0, MEM_SIZE, 8)
            if after[a:a + 8] != before[a:a + 8]
        },
        "llfis": llfis,
    }


def _block(program, cpu):
    """The block at pc 0, translated and bound to ``cpu``, and its ``FL``."""
    n = len(program.code)
    source, pcs = gen_source(program, [0], [n])
    ns = exec_namespace()
    exec(compile(source, "<block>", "exec"), ns)
    FL = [cpu.flags]
    return ns["make_blocks"](cpu, FL, pcs)[0], FL


def _run_block(program, state) -> dict:
    """The block's run, driven as ``FastEngine._drive`` drives it: a block
    whose frame guard fails has done nothing, and the interpreter loop runs
    it instead."""
    cpu = _cpu(program, state)
    block, FL = _block(program, cpu)
    try:
        exit_pc = block()
    except MachineTrap as trap:
        llfis = block_meta(program, 0, trap.pc).llfis
        return {"trap": trap.kind, "pc": trap.pc, "llfis": llfis}
    if exit_pc == DEOPT:
        return _interpret(program, cpu, state)
    cpu.flags = FL[0]
    return _observed(cpu, exit_pc, state, block_meta(program, 0, len(program.code)).llfis)


def _deopts(program, state) -> bool:
    """Whether the block's frame guards send it to the interpreter loop."""
    try:
        return _block(program, _cpu(program, state))[0]() == DEOPT
    except MachineTrap:
        return False


def _run_interpreter(program, state) -> dict:
    return _interpret(program, _cpu(program, state), state)


def _interpret(program, cpu, state) -> dict:
    """``CPU._loop`` on ``cpu`` for exactly the block's length."""
    cpu.record_snapshots(len(program.code), _stop)
    try:
        cpu._loop(0)
        exit_pc = -1  # a ret to the halt sentinel never reaches the hook
    except _Stop as stop:
        exit_pc = stop.pc
    except MachineTrap as trap:
        return {"trap": trap.kind, "pc": trap.pc, "llfis": cpu._llfi_count}
    return _observed(cpu, exit_pc, state, cpu._llfi_count)


def outcomes(code, state) -> tuple[dict, dict]:
    """What the generated block and the interpreter loop observe."""
    program = _program(code)
    with _intrinsics_print_flags():
        return _run_block(program, state), _run_interpreter(program, state)


def block_diverges(case) -> bool:
    try:
        block, interpreter = outcomes(*case)
    except NameError:  # the block read a local it never loaded
        return True
    return block != interpreter


# -- properties ----------------------------------------------------------------

def test_every_opcode_is_covered():
    opcodes = {v for k, v in vars(O).items() if k.isupper() and isinstance(v, int)}
    assert set(OPERANDS) == opcodes


@pytest.mark.parametrize("op", sorted(OPERANDS), ids=lambda op: next(
    k for k, v in vars(O).items() if v == op and k.isupper()))
@_SETTINGS
@given(data=st.data())
def test_opcode_matches_the_interpreter(op, data):
    code = [data.draw(instrs(op))]
    if op not in TERMINATORS and data.draw(st.booleans()):
        code.append((O.CMP_RI, 0, 0))  # its flags dead: the value-only code
    block, interpreter = outcomes(code, data.draw(states_for(code)))
    assert block == interpreter


@settings(_SETTINGS, max_examples=200)
@given(case=block_cases())
def test_straight_line_blocks_match_the_interpreter(case):
    block, interpreter = outcomes(*case)
    assert block == interpreter


def test_setcc_missing_from_the_flag_readers_is_caught(monkeypatch):
    """A liveness analysis that forgets a reader drops the flag write that
    reader sees.  ``SETCC`` is rare in the workloads — the campaign referee
    passes such a mutant on EP, CG and lulesh at n = 12 — so this property
    is what has to catch it."""
    monkeypatch.setattr(
        blocks, "FLAG_READERS", blocks.FLAG_READERS - {O.SETCC}
    )
    code, _ = find(
        block_cases(), block_diverges,
        settings=settings(max_examples=2000, database=None, derandomize=True,
                          phases=[Phase.generate]),
    )
    assert any(t[0] == O.SETCC for t in code)


def test_a_flag_write_nothing_observes_is_no_code():
    """Of ``cmp; cmp; jcc`` only the second ``cmp`` is rendered: the first
    one's flags are overwritten before anything reads them, and a ``cmp``
    has no other effect.  An LLFI visit between the two reads no flags: a
    block renders it as its value passing through, without the CPU."""
    for visit in [], [(O.INTR, _INJECT_I64)]:
        code = [(O.CMP_RR, 7, 8), *visit, (O.CMP_RI, 9, 5), (O.JCC, 0, 0)]
        body = blocks.gen_block_body(blocks._Block(_program(code)), code, 0, len(code))
        source = "\n".join(body)
        assert not {"r7", "r8", "I[7]", "I[8]"} & set(re.findall(r"r\d+|I\[\d+\]", source))
        assert "r = I[9] - 5" in source  # its one instruction reads it in place
        assert source.count("fl = PAR") == 1
        if visit:
            assert f"I[{RAX_IDX}] = I[{RSI_IDX}]" in source
            assert "cpu" not in source


def _edge_state(iregs=(), fregs=(), flags=0):
    """The state at seed 0 with the given registers (index, value) set."""
    base = STACK_LIMIT + 0x400  # an aligned word of the stack
    state = ([base] * 14, [0.5] * 16, flags, 0, -1)
    for i, value in iregs:
        state[0][i] = value
    for i, value in fregs:
        state[1][i] = value
    return state


#: pairs random draws reach only by luck
EDGE_CASES = {
    "idiv INT64_MIN by -1": (
        [(O.IDIV_RR, 0, 1)], _edge_state([(0, INT64_MIN), (1, -1)])),
    "irem INT64_MIN by -1": (
        [(O.IREM_RI, 0, -1)], _edge_state([(0, INT64_MIN)])),
    "store outside int64, aligned": (
        [(O.STORE_RD, 2, 8, 3)], _edge_state([(3, (1 << 64) + 5)])),
    "store below int64, aligned": (
        [(O.STORE_ABS, NULL_GUARD + 16, 3)], _edge_state([(3, INT64_MIN - 1)])),
    "push outside int64, aligned": (
        [(O.PUSH, 3)], _edge_state([(3, 1 << 63)])),
    "push rsp (the decremented one)": (
        [(O.PUSH, RSP_IDX)], _edge_state()),
    "load half a word off": (
        [(O.LOAD_RD, 0, 2, 4)], _edge_state()),
    "fload half a word off": (
        [(O.FLOAD_RD, 0, 2, -4)], _edge_state()),
    "fconst signalling NaN": (
        [(O.FCONST, 0, _SNAN)], _edge_state()),
    "fconst NaN with payload and sign": (
        [(O.FCONST, 0, _NAN_PAYLOAD)], _edge_state()),
    "cvttsd2si of 2**63": (
        [(O.CVTTSD2SI, 0, 1)], _edge_state(fregs=[(1, 2.0 ** 63)])),
    "shl into the sign bit, flags dead": (
        [(O.SHL_RI, 0, 63), (O.CMP_RI, 0, 0)], _edge_state([(0, 3)])),
    "neg INT64_MIN": (
        [(O.NEG, 0)], _edge_state([(0, INT64_MIN)])),
    "idiv by an immediate 0": (
        [(O.IDIV_RI, 0, 0)], _edge_state()),
    "idiv INT64_MIN by an immediate -1": (
        [(O.IDIV_RI, 0, -1)], _edge_state([(0, INT64_MIN)])),
    "idiv by a negative immediate": (
        [(O.IDIV_RI, 0, -7), (O.IDIV_RI, 1, -7)],
        _edge_state([(0, 100), (1, -100)])),
    "a trap behind fi_checks keeps its own pc": (
        [(O.FI_CHECK, ()), (O.FI_CHECK, ()), (O.MOV_RI, 1, 0), (O.FI_CHECK, ()),
         (O.LOAD_RD, 0, 1, 8)], _edge_state()),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_the_interpreter(name):
    block, interpreter = outcomes(*EDGE_CASES[name])
    assert block == interpreter


# -- frame guards --------------------------------------------------------------

#: tuple slots of the base register and the displacement of a frame access
_FRAME_ACCESS = {O.LOAD_RD: (2, 3), O.FLOAD_RD: (2, 3), O.STORE_RD: (1, 2),
                 O.STORE_RD_I: (1, 2), O.FSTORE_RD: (1, 2)}
_PRINT_INT = INTRINSIC_TABLE.index_of("print_int")
_SQRT = INTRINSIC_TABLE.index_of("sqrt")


def guarded_accesses(code) -> list[tuple[int, int, int]]:
    """``(pc, base, displacement)`` of each access a frame guard covers: one
    at a multiple of 8 from a base register nothing before it in the block
    writes (a call writes every register; an LLFI visit, ``rax``)."""
    written, out = set(), []
    for pc, t in enumerate(code):
        if t[0] in _FRAME_ACCESS:
            base, d = (t[k] for k in _FRAME_ACCESS[t[0]])
            if base not in written and d % 8 == 0:
                out.append((pc, base, d))
        if t[0] == O.INTR:
            written |= {RAX_IDX} if t[1] in INTRINSIC_TABLE.unfired else set(range(14))
        elif t[0] in (O.LOAD_RD, O.ADD_RI, O.MOV_RI):
            written.add(t[1])
    return out


#: the base registers of the frame blocks below
_BASES = st.sampled_from([13, 5])
#: where a base points: anywhere, near either end of memory (aligned or
#: not), or outside it
_BASE_VALUES = st.one_of(
    addresses, st.integers(NULL_GUARD - 40, NULL_GUARD + 120),
    st.integers(MEM_SIZE - 120, MEM_SIZE + 40),
)
_DISPS = st.sampled_from([-88, -16, -8, 0, 8, 24, 4, -3])


@st.composite
def frame_cases(draw):
    """A block of frame accesses through two base registers, with writes
    to a base, intrinsic calls and LLFI visits between them, and a state
    whose bases point near the ends of memory."""
    ops = st.one_of(
        st.tuples(st.just(O.LOAD_RD), ireg, _BASES, _DISPS),
        st.tuples(st.just(O.STORE_RD), _BASES, _DISPS, ireg),
        st.tuples(st.just(O.STORE_RD_I), _BASES, _DISPS, int64s),
        st.tuples(st.just(O.FLOAD_RD), freg, _BASES, _DISPS),
        st.tuples(st.just(O.FSTORE_RD), _BASES, _DISPS, freg),
        st.tuples(st.just(O.ADD_RI), _BASES, st.sampled_from([8, -64, 1 << 20])),
        st.tuples(st.just(O.INTR), st.sampled_from([_PRINT_INT, _SQRT, _INJECT_I64])),
    )
    code = draw(st.lists(ops, min_size=1, max_size=8))
    iregs, *rest = draw(states_for(code))
    for base in (13, 5):
        iregs[base] = draw(_BASE_VALUES)
    return code, (iregs, *rest)


def guard_errors(case) -> list[str]:
    """What is wrong with how ``case``'s block guards its frame accesses:
    it must deopt exactly when a guarded access would segfault from the
    entry state; then the interpreter loop traps no later than that access,
    and otherwise it segfaults at no guarded access; and what the block
    does, driven as the engine drives it, is what the interpreter loop
    does."""
    code, state = case
    program = _program(code)
    guarded = guarded_accesses(code)
    refused = [pc for pc, base, d in guarded
               if not NULL_GUARD <= state[0][base] + d <= MEM_SIZE - 8]
    with _intrinsics_print_flags():
        deopts = _deopts(program, state)
        block, interpreter = _run_block(program, state), _run_interpreter(program, state)
    errors = []
    if deopts != bool(refused):
        errors.append(f"deopts {deopts}, refused accesses at {refused}")
    if refused and not interpreter.get("pc", len(code)) <= refused[0]:
        errors.append(f"the interpreter loop ran past {refused[0]}: {interpreter}")
    if not refused and interpreter.get("trap") == "segfault" and interpreter["pc"] in {
            pc for pc, _, _ in guarded}:
        errors.append(f"a guarded access segfaulted: {interpreter}")
    if block != interpreter:
        errors.append(f"block {block} != interpreter {interpreter}")
    return errors


needs_views = pytest.mark.skipif(not blocks.VIEWS, reason="frame guards index typed views")


@needs_views
@settings(_SETTINGS, max_examples=200)
@given(case=frame_cases())
def test_a_block_deopts_exactly_when_a_guarded_access_would_segfault(case):
    assert guard_errors(case) == []


@needs_views
def test_a_guard_built_from_the_greatest_displacement_alone_is_caught(monkeypatch):
    """Planted: the lower bound taken from the greatest displacement, not
    the least, lets an access below memory through unchecked."""
    real = blocks.frame_guard
    monkeypatch.setattr(blocks, "frame_guard",
                        lambda base, d_min, d_max, top: real(base, d_max, d_max, top))
    code, _ = find(
        frame_cases(), lambda case: bool(guard_errors(case)),
        settings=settings(max_examples=2000, database=None, derandomize=True,
                          phases=[Phase.generate]),
    )
    assert len({t[k] for t in code if t[0] in _FRAME_ACCESS
                for k in _FRAME_ACCESS[t[0]][1:]}) > 1


#: a frame base near the top of memory, aligned and not
_HIGH = MEM_SIZE - 8 - 2048

#: name -> (block, state, whether its guards refuse it)
FRAME_CASES = {
    "a misaligned base in range": (
        [(O.LOAD_RD, 0, 13, -8), (O.STORE_RD, 13, 8, 0), (O.FSTORE_RD, 13, 0, 1),
         (O.FLOAD_RD, 2, 13, -16), (O.STORE_RD_I, 13, 16, -5)],
        _edge_state([(13, _HIGH + 3)]), False),
    "a base written mid-block keeps its own check": (
        [(O.LOAD_RD, 0, 13, -8), (O.ADD_RI, 13, 1 << 20), (O.LOAD_RD, 1, 13, -8)],
        _edge_state([(13, _HIGH)]), False),
    "a base loaded over keeps its own check": (
        [(O.LOAD_RD, 13, 13, -8), (O.LOAD_RD, 1, 13, -8)],
        _edge_state([(13, _HIGH)]), False),
    "an intrinsic call between frame accesses": (
        [(O.LOAD_RD, RDI_IDX, 13, -8), (O.ADD_RI, RDI_IDX, 1), (O.FLOAD_RD, XMM0_IDX, 13, -16),
         (O.INTR, _PRINT_INT), (O.INTR, _SQRT), (O.FSTORE_RD, 13, -24, XMM0_IDX),
         (O.FSTORE_RD, 13, -32, XMM0_IDX), (O.LOAD_RD, 1, 13, 8)],
        _edge_state([(13, _HIGH)]), False),
    "a base out of range at the third frame access": (
        [(O.LOAD_RD, 0, 13, -8), (O.STORE_RD, 13, -16, 0), (O.LOAD_RD, 1, 13, 4096)],
        _edge_state([(13, _HIGH)]), True),
}


@needs_views
@pytest.mark.parametrize("name", sorted(FRAME_CASES))
def test_frame_cases_match_the_interpreter(name):
    code, state, refused = FRAME_CASES[name]
    assert _deopts(_program(code), state) == refused
    assert guard_errors((code, state)) == []


def test_an_intrinsic_call_writes_registers_back_and_reloads_them():
    """The first call reads ``rdi`` off the CPU, the second writes ``xmm0``
    there (each is a local: two instructions of its stretch touch it)."""
    code, _, _ = FRAME_CASES["an intrinsic call between frame accesses"]
    body = blocks.gen_block_body(blocks._Block(_program(code)), code, 0, len(code))
    source = "\n".join(body)
    assert source.index(f"I[{RDI_IDX}] = r{RDI_IDX}") < source.index("IN[")
    assert source.index(f"x{XMM0_IDX} = F[{XMM0_IDX}]") > source.rindex("IN[")
    # the access after the call is checked where it happens
    assert "ad = r13 + 8" in source


@needs_views
def test_a_refused_block_traps_on_the_interpreter_loop(monkeypatch):
    """Through the engine's block loop: output, then a block whose third
    frame access leaves memory.  Its guard refuses it, the interpreter loop
    runs it, and the run ends as on the interpreter loop alone: same trap,
    pc, steps, half-cycles and output."""
    from repro.engine import FastEngine

    block, state, _ = FRAME_CASES["a base out of range at the third frame access"]
    code = [(O.MOV_RI, RDI_IDX, 7), (O.INTR, _PRINT_INT), (O.JMP, 3), *block, (O.RET,)]
    program = LoadedProgram(
        binary=None, code=code, cost=[1.0, 3.0, 1.0, 4.0, 4.0, 4.0, 4.0],
        is_candidate=[False] * len(code), outputs=[()] * len(code),
        data_end=DATA_END, mem_size=MEM_SIZE, func_entry={"f": 0},
    )
    strides = []
    interpret = FastEngine._interpret

    def spied(self, cpu, FL, steps, hc, rc, pin, lc, pc, k, syncs):
        strides.append((pc, k))
        return interpret(self, cpu, FL, steps, hc, rc, pin, lc, pc, k, syncs)

    monkeypatch.setattr(FastEngine, "_interpret", spied)
    fast = FastEngine().resume(_cpu(program, state), 0)
    reference = _cpu(program, state).resume(0)
    assert strides == [(3, 4)]  # the refused block, whole
    assert fast.trap == reference.trap == "segfault"
    assert fast.trap_pc == reference.trap_pc == 5
    assert (fast.steps, fast.half_cycles) == (reference.steps, reference.half_cycles) == (5, 26)
    assert fast.output == reference.output == ["7"]
