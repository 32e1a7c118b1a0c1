"""One NaN rule for every rendering of the float ALU.

An exponent-bit flip often turns a double into a NaN, so a float op meeting
two different NaNs is an everyday event in a campaign.  CPython's ``x + y``
does not pin which of two NaN operands comes back: its generic and its
specialised float paths take them in different orders, so the answer changes
once the bytecode is warm.  The semantics table declares x86 SSE's rule
instead (:func:`repro.machine.semantics.sse_nan`): the first operand if it is
a NaN, else the second, quieted.  Each case here runs 20 times in one process
on a generated block (through the fast engine), on ``CPU._loop`` and on the
access-logging loop, and every run must give the declared bit pattern.
"""

from __future__ import annotations

import struct

import pytest

from repro.engine import FastEngine
from repro.machine import CPU
from repro.machine import opcodes as O
from repro.machine.cpu import access_logging_loop
from repro.machine.loader import NULL_GUARD, LoadedProgram
from repro.machine.registers import RSP_IDX
from repro.machine.semantics import HALT_PC
from repro.utils.bits import MASK64

MEM_SIZE = 0x3000

#: two quiet NaNs of either sign and payload, and a signalling NaN whose
#: quieted pattern is ``QUIET``
NEGATIVE = 0xFFF8000000000002
POSITIVE = 0x7FF8000000000001
SIGNALLING = 0x7FF0000000000001
QUIET = 0x7FF8000000000001
ONE = 0x3FF0000000000000

#: (first operand, second operand, the declared result), as bit patterns
CASES = [
    (NEGATIVE, POSITIVE, NEGATIVE),
    (POSITIVE, NEGATIVE, POSITIVE),
    (SIGNALLING, NEGATIVE, QUIET),
    (NEGATIVE, SIGNALLING, NEGATIVE),
    (ONE, SIGNALLING, QUIET),
]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _cpu(op: int, first: int, second: int) -> CPU:
    """A CPU about to run ``op xmm0, xmm1`` and return to the halt
    sentinel."""
    program = LoadedProgram(
        binary=None, code=[(op, 0, 1), (O.RET,)], cost=[1.0, 1.0],
        is_candidate=[False, False], outputs=[(), ()], func_entry={"main": 0},
        data_end=NULL_GUARD + 0x100, mem_size=MEM_SIZE,
    )
    cpu = CPU(program)
    top = program.stack_top
    cpu.iregs[RSP_IDX] = top
    cpu.mem[top:top + 8] = (HALT_PC & MASK64).to_bytes(8, "little")
    cpu.fregs[0], cpu.fregs[1] = _double(first), _double(second)
    return cpu


def _block(cpu: CPU) -> None:
    assert FastEngine().resume(cpu, 0).trap is None


def _interpreter(cpu: CPU) -> None:
    assert cpu.resume(0).trap is None


def _access_logging(cpu: CPU) -> None:
    access_logging_loop([].append)(cpu, 0)


RENDERINGS = {"block": _block, "interpreter": _interpreter,
              "access-logging": _access_logging}


@pytest.mark.parametrize("rendering", sorted(RENDERINGS))
@pytest.mark.parametrize("op", [O.FADD, O.FSUB, O.FMUL, O.FDIV],
                         ids=["FADD", "FSUB", "FMUL", "FDIV"])
def test_two_nans_give_the_declared_nan_warm_or_cold(op, rendering):
    run = RENDERINGS[rendering]
    for first, second, declared in CASES:
        results = set()
        for _ in range(20):
            cpu = _cpu(op, first, second)
            run(cpu)
            results.add(_bits(cpu.fregs[0]))
        assert results == {declared}, (hex(first), hex(second))


def test_a_nan_of_the_op_itself_is_its_default():
    """Neither operand a NaN: the op's own result stands (inf - inf)."""
    inf = _bits(float("inf"))
    cpu = _cpu(O.FSUB, inf, inf)
    _interpreter(cpu)
    assert cpu.fregs[0] != cpu.fregs[0]
    assert _bits(cpu.fregs[0]) == _bits(float("inf") - float("inf"))
