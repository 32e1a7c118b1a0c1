"""Frozen ISA vectors: one instruction, a seeded state, and what it did.

``data/isa_vectors.json`` holds, for every opcode, about 30 machine states
— aligned, unaligned and out-of-memory addresses, int64 edges and values past
them (what an overflowing ``lea`` leaves in a register), ±inf, ±0.0 and one
NaN bit pattern per state — each paired with what ``CPU._loop`` did with the
instruction when the file was written: the state after it, or the trap kind
and pc.  The tests replay every vector on the interpreter loop and on a
generated one-instruction block.

Both executions are rendered from one semantics table
(:mod:`repro.machine.semantics`), so comparing them with each other cannot
see a mistake in a shared entry; these vectors can.  They are the only
reference for the instruction set that does not come from the table.

A state is stored as a seed plus the registers, flags and memory words the
instruction names; everything else is filler derived from the seed with
SHAKE-128 (:func:`initial_state`), the same on every platform.  A result
lists only what changed.  Regenerate the file only for an intended semantic
change, and say which in the commit:

    PYTHONPATH=src python -m tests.engine.test_isa_vectors
"""

from __future__ import annotations

import copy
import hashlib
import json
import linecache
import math
import random
import struct
from pathlib import Path

import pytest

from repro.engine.blocks import DEOPT, exec_namespace, gen_source
from repro.errors import MachineTrap
from repro.machine import CPU
from repro.machine import opcodes as O
from repro.machine.intrinsics import INTRINSIC_TABLE
from repro.machine.loader import NULL_GUARD, STACK_GUARD, LoadedProgram
from repro.machine.registers import RAX_IDX, RDI_IDX, RSI_IDX, RSP_IDX, XMM0_IDX, XMM1_IDX
from repro.machine.semantics import SEMANTICS, Sem
from repro.utils.bits import INT64_MAX, INT64_MIN, MASK64

PATH = Path(__file__).parent / "data" / "isa_vectors.json"

MEM_SIZE = 0x3000
DATA_END = NULL_GUARD + 0x100
STACK_LIMIT = DATA_END + STACK_GUARD

#: Opcode names, and the name vectors of undecodable opcodes go under.
OPCODES = {k: v for k, v in vars(O).items() if k.isupper() and isinstance(v, int)}
ILLEGAL = "ILLEGAL"


# -- states and results ---------------------------------------------------------

def _fbits(value: float) -> str:
    return struct.pack(">d", value).hex()


def _float(bits: str) -> float:
    return struct.unpack(">d", bytes.fromhex(bits))[0]


def decode(code: list) -> tuple:
    """An instruction tuple from its JSON form (floats are ``{"f64": bits}``)."""
    def item(x):
        if isinstance(x, dict):
            return _float(x["f64"])
        if isinstance(x, list):
            return tuple(item(y) for y in x)
        return x
    return tuple(item(x) for x in code)


def _encode(t: tuple) -> list:
    def item(x):
        if isinstance(x, float):
            return {"f64": _fbits(x)}
        if isinstance(x, tuple):
            return [item(y) for y in x]
        return x
    return [item(x) for x in t]


def initial_state(state: dict) -> tuple[list, list, int, bytearray]:
    """``(iregs, fregs, flags, mem)`` of a stored state: filler from its seed,
    then the registers and memory words it names."""
    raw = hashlib.shake_128(f"isa-vector:{state['seed']}".encode()).digest(
        MEM_SIZE + 8 * 30)
    mem = bytearray(raw[:MEM_SIZE])
    words = [int.from_bytes(raw[MEM_SIZE + 8 * k:MEM_SIZE + 8 * k + 8], "little",
                            signed=True) for k in range(30)]
    iregs = words[:14]
    fregs = [w / 2 ** 40 for w in words[14:]]
    for i, value in state.get("iregs", {}).items():
        iregs[int(i)] = value
    for i, bits in state.get("fregs", {}).items():
        fregs[int(i)] = _float(bits)
    for address, word in state.get("words", {}).items():
        mem[int(address):int(address) + 8] = bytes.fromhex(word)
    return iregs, fregs, state["flags"], mem


def _program(code: tuple) -> LoadedProgram:
    return LoadedProgram(
        binary=None, code=[code], cost=[1.0], is_candidate=[False],
        outputs=[()], data_end=DATA_END, mem_size=MEM_SIZE,
    )


def _cpu(code: tuple, state: dict) -> CPU:
    cpu = CPU(_program(code))
    iregs, fregs, cpu.flags, mem = initial_state(state)
    cpu.iregs[:] = iregs
    cpu.fregs[:] = fregs
    cpu.mem[:] = mem
    return cpu


def _result(cpu: CPU, exit_pc: int, state: dict) -> dict:
    """What changed: the next pc, registers, flags, memory words, output."""
    iregs, fregs, _, mem = initial_state(state)
    after = bytes(cpu.mem)
    changed = {
        "iregs": {str(i): v for i, v in enumerate(cpu.iregs) if v != iregs[i]},
        "fregs": {str(i): _fbits(v) for i, v in enumerate(cpu.fregs)
                  if _fbits(v) != _fbits(fregs[i])},
        "mem": {str(a): after[a:a + 8].hex() for a in range(0, MEM_SIZE, 8)
                if after[a:a + 8] != mem[a:a + 8]},
        "output": list(cpu.output),
    }
    return {"exit": exit_pc, "flags": cpu.flags,
            **{part: value for part, value in changed.items() if value}}


class _Stop(Exception):
    def __init__(self, pc: int) -> None:
        self.pc = pc


def _stop(cpu, pc):
    raise _Stop(pc)


def run_interpreter(code: tuple, state: dict) -> dict:
    """The instruction on ``CPU._loop``, stopped after one step."""
    cpu = _cpu(code, state)
    cpu.record_snapshots(1, _stop)
    try:
        cpu._loop(0)
        exit_pc = -1  # a ret to the halt sentinel never reaches the hook
    except _Stop as stop:
        exit_pc = stop.pc
    except MachineTrap as trap:
        return {"trap": trap.kind, "pc": trap.pc}
    return _result(cpu, exit_pc, state)


def run_block(code: tuple, state: dict) -> dict:
    """The instruction as a generated one-instruction block."""
    program = _program(code)
    source, pcs = gen_source(program, [0], [1])
    ns = exec_namespace()
    exec(compile(source, "<isa-vector>", "exec"), ns)
    cpu = _cpu(code, state)
    FL = [cpu.flags]
    block = ns["make_blocks"](cpu, FL, pcs)[0]
    try:
        exit_pc = block()
    except MachineTrap as trap:
        return {"trap": trap.kind, "pc": trap.pc}
    if exit_pc == DEOPT:
        # a frame guard refused the block, which did nothing: the engine
        # runs it on the interpreter loop (``FastEngine._drive``)
        return run_interpreter(code, state)
    cpu.flags = FL[0]
    return _result(cpu, exit_pc, state)


RUNNERS = {"interpreter": run_interpreter, "block": run_block}


def load_vectors() -> dict[str, list[dict]]:
    """The frozen vectors by opcode name."""
    by_op: dict[str, list[dict]] = {}
    for vector in json.loads(PATH.read_text(encoding="utf-8"))["vectors"]:
        by_op.setdefault(vector["op"], []).append(vector)
    return by_op


def mismatches(engine: str, vectors: list[dict]) -> list[tuple[dict, dict]]:
    """``(vector, what the engine did)`` for every vector it disagrees with."""
    run = RUNNERS[engine]
    out = []
    for vector in vectors:
        got = run(decode(vector["code"]), vector["state"])
        if got != vector["expect"]:
            out.append((vector, got))
    return out


# -- the tests --------------------------------------------------------------------

VECTORS = load_vectors() if PATH.exists() else {}


def test_every_opcode_has_semantics_and_vectors():
    assert set(SEMANTICS) == set(OPCODES.values())
    assert set(VECTORS) == set(OPCODES) | {ILLEGAL}


@pytest.mark.parametrize("op", sorted(VECTORS))
@pytest.mark.parametrize("engine", sorted(RUNNERS))
def test_frozen_vectors_replay(engine, op):
    assert mismatches(engine, VECTORS[op]) == []


#: ``-7 srem 2`` of values the optimiser cannot see: an ``irem`` at run time
REMAINDER_MODULE = """
@x = global [2 x i64] [-7, 2]
declare void @print_int(i64 %x)

define i64 @main() {
entry:
  %p = getelementptr [2 x i64]* @x, i64 0
  %a = load i64, i64* %p
  %q = getelementptr [2 x i64]* @x, i64 1
  %b = load i64, i64* %q
  %r = srem i64 %a, %b
  call void @print_int(i64 %r)
  ret i64 0
}
"""


def _edited(op: int, old: str, new: str) -> Sem:
    """``op``'s table entry with the code text ``old`` replaced by ``new``."""
    sem = copy.copy(SEMANTICS[op])
    sem.code = [item.replace(old, new) if isinstance(item, str) else item
                for item in sem.code]
    assert sem.code != SEMANTICS[op].code
    return sem


def test_a_fault_in_a_shared_entry_is_caught_by_the_vectors_only(monkeypatch):
    """Why these vectors exist.  The interpreter loop and the blocks are two
    renderings of one table entry, so a mistake in the entry — here ``irem``
    taking the remainder's sign from the divisor — reaches both, and the
    engine oracle, which compares them, passes a program whose output the
    mistake changed.  The IR interpreter, which shares no code with the
    table, sees the change; so do the frozen vectors, on both engines."""
    from repro.engine import FastEngine
    from repro.engine.cache import TranslationCache
    from repro.ir import parse_module
    from repro.machine.cpu import LOOP_FILENAME, interpreter_loop
    from repro.testing.oracles import EngineOracle, InterpOracle

    for op in (O.IREM_RR, O.IREM_RI):
        monkeypatch.setitem(SEMANTICS, op, _edited(op, "if a < 0:", "if b < 0:"))
    # the mutant loop registers its source; the real loop's comes back after
    monkeypatch.setitem(linecache.cache, LOOP_FILENAME, linecache.cache[LOOP_FILENAME])
    monkeypatch.setattr(CPU, "_loop", interpreter_loop())
    monkeypatch.setattr(FastEngine, "cache", TranslationCache())
    module = parse_module(REMAINDER_MODULE)
    assert EngineOracle().check(module) is None
    assert InterpOracle().check(module) is not None
    for engine in RUNNERS:
        assert mismatches(engine, VECTORS["IREM_RR"])


# -- writing the file -------------------------------------------------------------

_SNAN = struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000001))[0]
_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000123))[0]

INT_EDGES = [0, 1, -1, 2, 8, 63, 64, 255, 1 << 32, INT64_MAX, INT64_MIN,
             INT64_MAX - 7, INT64_MIN + 1]
PAST_INT64 = [1 << 63, INT64_MIN - 8, (1 << 64) + 8]
ADDRESS_EDGES = [NULL_GUARD - 8, NULL_GUARD - 1, MEM_SIZE - 8, MEM_SIZE - 7,
                 MEM_SIZE, MEM_SIZE + 1, -8, STACK_LIMIT - 8, STACK_LIMIT,
                 STACK_LIMIT + 8]
FLOAT_EDGES = [math.inf, -math.inf, 0.0, -0.0, 1.0, -2.5, 5e-324, 2.0 ** 63,
               -(2.0 ** 63), 1.8e308, 9.3e18, -0.5]
NANS = [math.nan, -math.nan, _SNAN, _NAN_PAYLOAD]
RET_WORDS = [-1, 0, 1, 1000, INT64_MIN]
#: (first, second) integer operands the first states of a two-operand
#: integer opcode take: the pairs random draws reach only by luck
PAIRS = [(INT64_MIN, -1), (5, 0), (-7, 2), (7, -2), (INT64_MIN, 1),
         (INT64_MAX, 1), (INT64_MAX, INT64_MAX), (-1, -1), (1 << 63, 1)]

#: Operand kinds, in the loader's tuple order: ``r`` an integer register,
#: ``b`` one used as an address, ``q`` an int64 immediate, ``d`` a
#: displacement, ``a`` a static address, ``f`` a float register, ``c`` a
#: float constant, ``k`` a condition code, ``t`` a jump target, ``n`` an
#: intrinsic.
KINDS = {
    "MOV_RR": "rr", "MOV_RI": "rq", "FMOV": "ff", "FCONST": "fc",
    "LEA_RD": "rbd", "LEA_ABS": "ra", "LOAD_RD": "rbd", "LOAD_ABS": "ra",
    "STORE_RD": "bdr", "STORE_RD_I": "bdq", "STORE_ABS": "ar", "STORE_ABS_I": "aq",
    "FLOAD_RD": "fbd", "FLOAD_ABS": "fa", "FSTORE_RD": "bdf", "FSTORE_ABS": "af",
    **{f"{alu}_RR": "rr" for alu in ("ADD", "SUB", "CMP", "IMUL", "AND", "OR",
                                      "XOR", "SHL", "SAR", "IDIV", "IREM")},
    **{f"{alu}_RI": "rq" for alu in ("ADD", "SUB", "CMP", "IMUL", "AND", "OR",
                                      "XOR", "SHL", "SAR", "IDIV", "IREM")},
    "NEG": "r", "FADD": "ff", "FSUB": "ff", "FMUL": "ff", "FDIV": "ff", "FCMP": "ff",
    "SETCC": "rk", "CMOV": "rrk", "JMP": "t", "JCC": "kt", "CALL": "t",
    "INTR": "n", "RET": "", "PUSH": "r", "POP": "r",
    "CVTSI2SD": "fr", "CVTTSD2SI": "rf", "FI_CHECK": "",
}


class _Draw:
    """One state's draws: the registers and words it names, and its one NaN."""

    def __init__(self, rng: random.Random, seed: int) -> None:
        self.rng = rng
        self.nan = rng.choice(NANS)
        self.state = {"seed": seed, "iregs": {}, "fregs": {}, "flags": 0, "words": {}}

    def int64(self) -> int:
        rng = self.rng
        return rng.choice(INT_EDGES) if rng.random() < 0.5 else rng.randint(INT64_MIN, INT64_MAX)

    def address(self) -> int:
        rng = self.rng
        word = 8 * rng.randrange(NULL_GUARD // 8, MEM_SIZE // 8 - 1)
        pick = rng.random()
        if pick < 0.4:
            return word
        if pick < 0.65:
            return word + rng.randint(1, 7)
        return rng.choice(ADDRESS_EDGES)

    def reg_value(self) -> int:
        pick = self.rng.random()
        if pick < 0.8:
            return self.int64()
        return self.rng.choice(PAST_INT64) if pick < 0.9 else self.address()

    def float(self) -> float:
        rng = self.rng
        pick = rng.random()
        if pick < 0.4:
            return rng.choice(FLOAT_EDGES)
        if pick < 0.55:
            return self.nan
        return rng.uniform(-1e6, 1e6) if pick < 0.8 else rng.choice([-1, 1]) * 2.0 ** rng.randint(-1074, 1023)

    def ireg(self, value: int, reg: int | None = None) -> int:
        reg = self.rng.randrange(14) if reg is None else reg
        self.state["iregs"][str(reg)] = value
        return reg

    def freg(self, value: float, reg: int | None = None) -> int:
        reg = self.rng.randrange(16) if reg is None else reg
        self.state["fregs"][str(reg)] = _fbits(value)
        return reg

    def word(self, address: int, data: bytes) -> None:
        if 0 <= address <= MEM_SIZE - 8:
            self.state["words"][str(address)] = data.hex()

    def memory_value(self, address: int) -> None:
        """Perhaps plant an edge value in the word at ``address``."""
        pick = self.rng.random()
        if pick < 0.3:
            self.word(address, struct.pack("<d", self.float()))
        elif pick < 0.5:
            self.word(address, (self.int64() & MASK64).to_bytes(8, "little"))


def _draw_case(name: str, k: int, seed: int) -> tuple[tuple, dict]:
    rng = random.Random(f"{name}:{k}")
    d = _Draw(rng, seed)
    kinds = KINDS[name]
    pair = PAIRS[k] if k < len(PAIRS) and kinds in ("rr", "rq") else None
    operands: list = []
    base = None
    for j, kind in enumerate(kinds):
        if kind == "r":
            value = pair[j] if pair else d.reg_value()
            taken = {int(i) for i in d.state["iregs"]} if pair else set()
            operands.append(d.ireg(value, rng.choice(
                [r for r in range(14) if r not in taken])))
        elif kind == "b":
            base = d.address()
            operands.append(d.ireg(base))
        elif kind == "q":
            operands.append(pair[j] if pair else d.int64())
        elif kind == "d":
            operands.append(rng.choice([0, 8, -8, 24, 1, -3]))
            d.memory_value(base + operands[-1])
        elif kind == "a":
            address = 8 * rng.randrange(0, MEM_SIZE // 8 - 1) + rng.choice([0, 0, 3, 4])
            operands.append(address)
            d.memory_value(address)
        elif kind == "f":
            operands.append(d.freg(d.float()))
        elif kind == "c":
            operands.append(d.float())
        elif kind == "k":
            operands.append(k % 14)
        elif kind == "t":
            operands.append(rng.randint(0, 1))
        elif kind == "n":
            index = k % len(INTRINSIC_TABLE.impls)
            operands += [index, INTRINSIC_TABLE.names[index]]
    if name in ("PUSH", "POP", "CALL", "RET"):
        sp = d.address()
        d.ireg(sp, RSP_IDX)
        d.word(sp, (rng.choice(RET_WORDS) & MASK64).to_bytes(8, "little"))
    elif name == "INTR":
        for reg in (RAX_IDX, RDI_IDX, RSI_IDX):
            d.ireg(d.reg_value(), reg)
        for reg in (XMM0_IDX, XMM1_IDX):
            d.freg(d.float(), reg)
    elif name == "FI_CHECK":
        operands = [((0, rng.randrange(14), 64),) if k % 2 else (), k]
    d.state["flags"] = rng.randrange(0x1000) if k % 5 else rng.randrange(0x10000)
    for part in ("iregs", "fregs", "words"):
        if not d.state[part]:
            del d.state[part]
    return (OPCODES[name], *operands), d.state


def _cases() -> list[tuple[str, tuple, dict]]:
    cases = []
    for name in sorted(OPCODES):
        count = 42 if "k" in KINDS[name] else 30
        for k in range(count):
            code, state = _draw_case(name, k, len(cases))
            cases.append((name, code, state))
    for code in [(0,), (99,), (7, 1, 2)]:
        rng = random.Random(f"{ILLEGAL}:{code}")
        cases.append((ILLEGAL, code, {"seed": len(cases), "flags": rng.randrange(0x1000)}))
    return cases


def write() -> int:
    """Write the vectors from ``CPU._loop`` as it is now."""
    lines = []
    for name, code, state in _cases():
        vector = {"op": name, "code": _encode(code), "state": state,
                  "expect": run_interpreter(code, state)}
        lines.append(json.dumps(vector, sort_keys=True))
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(
        '{"mem_size": %d, "data_end": %d, "vectors": [\n%s\n]}\n'
        % (MEM_SIZE, DATA_END, ",\n".join(lines)),
        encoding="utf-8",
    )
    return len(lines)


if __name__ == "__main__":
    print(f"{write()} vectors -> {PATH}")
