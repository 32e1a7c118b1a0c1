"""The sx64 instruction set, declared once.

:data:`ISA` holds one declaration (:class:`Mnemonic`) per mnemonic: its
operand shapes (:class:`Form`), each with its opcode number and semantics;
the operands it writes and reads, and whether it writes rsp; its Table 2
class, which also says whether it is a fault-injection candidate; its cycle
cost; and its printed form.  Every other view of the instruction set is
derived from it: the opcode names (:mod:`repro.machine.opcodes`), the
loader's decoder (:data:`FORMS`), the backend's ``OpcodeInfo``
(:mod:`repro.backend.mir`), ``-fi-instrs`` filtering and the cycle model.
This module imports nothing from the backend.

A form's semantics (:class:`Sem`) give the kinds of the decoded tuple's
slots, the Python lines of its effect, its flag effect (reads, writes all,
or none), its trap checks, and — through a :class:`Jump` — whether it ends a
basic block; :data:`SEMANTICS` maps opcode numbers to them.

:meth:`Context.emit` turns an entry into Python source.  A context decides
how that source names things; there are three:

* the interpreter's (:mod:`repro.machine.cpu`), from which ``CPU._loop`` is
  generated once, at import: operands are read off the decoded tuple at run
  time (``I[t[1]]``, ``t[2]``), the pc is ``cur``, flags are the loop's local
  ``flags``, memory goes through slices, and every flag write is computed;
* the block translator's (:mod:`repro.engine.blocks`): operands are inlined
  literals, registers and flags are block locals, the pc is ``P[i]``,
  memory goes through typed views on little-endian hosts, an
  :class:`Address` the block's frame guard covers is no code, a flag write
  nobody observes is not emitted, and values known at translation time are
  specialised — a static address is a fixed view index, an immediate's
  unsigned value a literal;
* the access-logging one (:func:`repro.machine.cpu.access_logging_loop`),
  built on first use: the interpreter's, with every :class:`Load` and
  :class:`Store` first noting its address.  Only those items touch memory;
  intrinsics touch registers and output alone.

**Templates.**  Code lines are :meth:`str.format` templates.  ``{1}`` ...
``{3}`` are the instruction's operands (its tuple slots), rendered by their
kind (:attr:`Sem.operands`), and ``{1u}`` ... ``{3u}`` the same operands'
low 64 bits as an unsigned value.  The context names the rest: ``{pc}`` and
``{next}`` (this instruction's pc and the one after it), ``{ncode}`` (the
code length), ``{top}`` (the last address a word can be read from),
``{stack_limit}``, ``{cpu}``, ``{flags}`` (the FLAGS register), ``{fl}``
(the FLAGS a :class:`Flags` item computes), and a register by its name
(``{rsp}``, ``{rax}``, ``{xmm0}`` ...; :data:`REGISTER_FIELDS`).  Every
context runs the source against :func:`namespace` and binds the register
files ``I`` / ``F`` and the memory ``M``.  An entry reads every operand it
needs before it writes its destination, so a destination that is also a
source is never read stale.

**NaNs.**  A float op whose result is a NaN returns x86 SSE's
(:func:`sse_nan`).  Python's ``x + y`` does not pin which of two NaNs comes
back: CPython's generic and specialised float paths differ.
"""

from __future__ import annotations

import math
import re
import struct
from typing import NamedTuple

from repro.errors import DivideByZero, IllegalInstruction, SegmentationFault, StackOverflow
from repro.machine.registers import FREG_NAMES, IREG_NAMES
from repro.utils.bits import INT64_MIN, MASK64, to_signed64
from repro.utils.ieee754 import bits_to_double, double_to_bits

_PACK_D = struct.Struct("<d")

#: Sentinel return address that terminates the program.
HALT_PC = -1

#: PF lookup: x86 parity is set when the low result byte has an even
#: number of set bits.  Indexed by ``result & 255``; yields PF (4) or 0.
PARITY_TABLE = tuple(4 if bin(i).count("1") % 2 == 0 else 0 for i in range(256))

#: The first mapped address: every access below it segfaults.
NULL_GUARD = 0x1000

#: A register's template field (its name) -> how the interpreter loop reads
#: it; a block renders the same fields as locals (:mod:`repro.engine.blocks`).
REGISTER_FIELDS = {
    **{name: f"I[{i}]" for i, name in enumerate(IREG_NAMES)},
    **{name: f"F[{i}]" for i, name in enumerate(FREG_NAMES)},
}

#: The condition codes; a code's id, its decoded operand, is its index.
CONDITION_CODES = ("e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae", "s", "ns", "p", "np")

#: Condition-code id -> whether it holds, over the FLAGS register (bits: CF
#: 1, PF 4, ZF 64, SF 128, OF 2048).  The interpreter tests them in this
#: order.
CONDITIONS = {CONDITION_CODES.index(cc): holds for cc, holds in (
    ("ne", "not {flags} & 64"),
    ("e", "{flags} & 64"),
    ("l", "({flags} & 128 != 0) != ({flags} & 2048 != 0)"),
    ("le", "{flags} & 64 or ({flags} & 128 != 0) != ({flags} & 2048 != 0)"),
    ("g", "not {flags} & 64 and ({flags} & 128 != 0) == ({flags} & 2048 != 0)"),
    ("ge", "({flags} & 128 != 0) == ({flags} & 2048 != 0)"),
    ("b", "{flags} & 1"),
    ("be", "{flags} & 65"),
    ("a", "not {flags} & 65"),
    ("ae", "not {flags} & 1"),
    ("s", "{flags} & 128"),
    ("ns", "not {flags} & 128"),
    ("p", "{flags} & 4"),
    ("np", "not {flags} & 4"),
)}


# -- entries -------------------------------------------------------------------

class Trap(NamedTuple):
    """Raise ``exc`` at this instruction's pc when ``cond`` holds
    (``message`` is the body of an f-string over the code's locals)."""

    exc: str
    message: str
    cond: str


class Address(NamedTuple):
    """``ad = `` the base register in slot ``base`` + the displacement in
    slot ``disp``, an access (``what``) that segfaults outside memory.  A
    block may check one base register once for all its displacements (its
    frame guards, :mod:`repro.engine.blocks`) and index memory without
    ``ad``."""

    base: int
    disp: int
    what: str


class Load(NamedTuple):
    """``dst = `` the int64 (``width`` ``q``) or float64 (``d``) word at
    ``addr``, which the entry has bounds-checked or the loader placed."""

    width: str
    dst: str
    addr: str


class Store(NamedTuple):
    """The word at ``addr`` becomes ``value`` (its low 64 bits, for ``q``)."""

    width: str
    addr: str
    value: str


class Jump(NamedTuple):
    """Control goes to ``target``: the entry ends a basic block."""

    target: str


class Halt(NamedTuple):
    """The program ends here when ``cond`` holds."""

    cond: str


class Flags(NamedTuple):
    """Lines that set every FLAGS bit, in ``{fl}``; a context may leave them
    out where nothing observes the result."""

    text: str


def _named(template):
    """``{1}`` -> ``{_1}``: operand fields as names ``str.format_map`` takes."""
    if isinstance(template, str):
        return re.sub(r"\{(\du?)\}", r"{_\1}", template)
    if isinstance(template, tuple):
        return tuple(map(_named, template))
    return template  # a slot number


def template_fields(text: str) -> tuple[frozenset, frozenset]:
    """The fields code ``text`` assigns (a line ``{x} = ...``, at any depth)
    and those it reads: every other occurrence, a conditional assignment's
    target included (what it leaves alone keeps the old value)."""
    named = re.findall(r"\{(\w+)\}", text)
    unconditional = re.findall(r"(?m)^\{(\w+)\} =", text)
    for name in unconditional:
        named.remove(name)
    return frozenset(re.findall(r"(?m)^\s*\{(\w+)\} =", text)), frozenset(named)


def _text(item) -> str:
    """An item's code as :func:`template_fields` reads it."""
    if isinstance(item, str):
        return item
    if isinstance(item, Load):
        return f"{item.dst} = ({item.addr})"
    if isinstance(item, Store):
        return f"({item.addr}) = {item.value}"
    if isinstance(item, Address):
        return "({_%d}{_%d})" % (item.base, item.disp)
    return f"({item.target if isinstance(item, Jump) else item.cond})"


class Sem:
    """One opcode's semantics; see the module docstring."""

    __slots__ = ("operands", "code", "reads", "writes", "ends", "slots", "unsigned",
                 "defs", "uses", "flag_uses")

    def __init__(self, operands: str, *code, reads: bool = False) -> None:
        #: one kind per tuple slot after the opcode: ``r`` / ``f`` an integer
        #: / float register, ``i`` an integer immediate, ``d`` a displacement
        #: (an immediate added to what precedes it), ``c`` a float constant,
        #: ``k`` a condition code, ``t`` a jump target, ``n`` an intrinsic,
        #: ``-`` a slot the semantics do not read
        self.operands = operands
        #: consecutive lines are one template, rendered at once
        self.code: list = []
        for item in code:
            item = _named(item) if isinstance(item, str) else type(item)(*map(_named, item))
            if isinstance(item, str) and self.code and isinstance(self.code[-1], str):
                self.code[-1] += "\n" + item
            else:
                self.code.append(item)
        #: reads FLAGS: a condition code, or the whole register (``{flags}``)
        self.reads = reads
        #: writes every FLAGS bit
        self.writes = any(isinstance(item, Flags) for item in code)
        #: a control transfer: ends a basic block
        self.ends = any(isinstance(item, Jump) for item in code)
        #: the format fields of its operands, by slot
        self.slots = tuple((f"_{k}", kind, k) for k, kind in enumerate(operands, 1)
                           if kind != "-")
        #: the fields it assigns and reads (:func:`template_fields`): operand
        #: slots (``_1`` ..., ``_1u``), registers by name, ``flags``; and
        #: those only its :class:`Flags` item reads
        self.defs, self.uses = template_fields(
            "\n".join(_text(x) for x in self.code if not isinstance(x, Flags)))
        self.flag_uses = template_fields(
            "\n".join(x.text for x in self.code if isinstance(x, Flags)))[1]
        #: the slots whose unsigned value (``{1u}`` ...) the code reads
        self.unsigned = tuple(s for s in self.slots
                              if s[0] + "u" in self.uses | self.flag_uses)


#: ``r`` wrapped to int64 (``tos`` only when it overflowed)
_WRAP = f"w = r if {INT64_MIN} <= r < {-INT64_MIN} else tos(r)"


def _zsp(v: str) -> Flags:
    """ZF, SF and PF of ``v``; CF and OF clear."""
    return Flags(f"{{fl}} = (64 if {v} == 0 else (128 if {v} < 0 else 0)) | PAR[{v} & 255]")


def _arith(carry: str) -> Flags:
    """The flags of an add or subtract whose exact result is ``r`` and
    wrapped result ``w``; ``carry`` is the CF condition."""
    return Flags("\n".join((
        "{fl} = PAR[w & 255]",
        "if w == 0:", "    {fl} |= 64",
        "elif w < 0:", "    {fl} |= 128",
        "if r != w:", "    {fl} |= 2048",
        f"if {carry}:", "    {fl} |= 1",
    )))


# The carry out of a + b is ``(a + b) mod 2**64 < b`` and the borrow of a - b
# is ``(a - b) mod 2**64 + b >= 2**64`` (unsigned): both read only the
# wrapped result and the second operand, so the flags can be computed before
# the destination — which may be that operand — is written.
_ADD_FLAGS = _arith("(w & MK) < {2u}")
_SUB_FLAGS = _arith("(w & MK) + {2u} > MK")


def _push(what: str) -> tuple:
    """``sp = `` rsp - 8, checked against the stack limit and memory."""
    return (
        "sp = {rsp} - 8",
        Trap("StackOverflow", "rsp={sp:#x}", "sp < {stack_limit}"),
        Trap("SegmentationFault", what + " {sp:#x}", "sp > {top}"),
        "{rsp} = sp",
    )


def _pop(what: str) -> tuple:
    """``sp = `` rsp, segfaulting outside memory."""
    return (
        "sp = {rsp}",
        Trap("SegmentationFault", what + " {sp:#x}", "not %d <= sp <= {top}" % NULL_GUARD),
    )


def _float_op(op: str, a: str = "{1}", b: str = "{2}") -> tuple:
    """``{1} = a op b``, a NaN result x86 SSE's (:func:`sse_nan`)."""
    return (f"r = {a} {op} {b}", "if r != r:", f"    r = sse_nan({a}, {b}, r)", "{1} = r")


def _divide(name: str, *result: str) -> tuple:
    """Signed division of operand 1 by operand 2, trapping on a zero divisor
    and on the quotient that overflows (``INT64_MIN / -1``)."""
    message = "{a} %s {b}" % name
    return (
        "a = {1}",
        "b = {2}",
        Trap("DivideByZero", message, f"b == 0 or b == -1 and a == {INT64_MIN}"),
        *result,
        "    r = -r",
        "{1} = r",
        _zsp("r"),
    )


# -- the declaration -----------------------------------------------------------

class Form(NamedTuple):
    """One operand shape of a mnemonic, and the opcode the loader decodes it
    to."""

    #: the opcode's name (``repro.machine.opcodes.<name>``)
    name: str
    #: the opcode's number; frozen, since ``isa_vectors.json`` stores it
    number: int
    #: the kinds of the machine instruction's operands, one letter each:
    #: ``r`` / ``f`` an integer / float register, ``i`` / ``c`` an integer /
    #: float immediate, ``m`` register + displacement memory, ``a`` a
    #: global's (absolute) memory, ``t`` a block label, ``p`` a function of
    #: the program, ``n`` an intrinsic
    shape: str
    sem: Sem


class Mnemonic:
    """One sx64 instruction, declared once: what the backend, the loader, the
    cycle model, fault injection and the printer read of it."""

    __slots__ = ("name", "cost", "fi_class", "defs", "uses", "forms", "rsp", "printed",
                 "reads_cc")

    def __init__(self, name: str, cost: float, fi_class: str | None, defs: tuple,
                 uses: tuple, *forms: Form, rsp: bool = False, printed: str = "") -> None:
        self.name = name
        #: simulated cycles, loosely Sandy Bridge-class (the paper's Xeon
        #: E5-2670); Figure 5 compares relative campaign times, so only the
        #: ratios between instructions matter
        self.cost = cost
        #: its Table 2 class (``-fi-instrs``): ``stack``, ``mem`` or
        #: ``arithm``.  An instruction with a class is a fault-injection
        #: candidate where it writes a register; ``None`` (control transfers,
        #: REFINE's check) never is
        self.fi_class = fi_class
        #: the operands it writes and reads, by index (a memory operand's
        #: base register is always read; a two-address instruction lists
        #: operand 0 in both)
        self.defs = defs
        self.uses = uses
        #: its operand shapes, each with its opcode and semantics
        self.forms = forms
        #: writes rsp besides its operands
        self.rsp = rsp
        #: its printed mnemonic; ``{cc}`` is the condition code
        self.printed = printed or name
        #: reads FLAGS through a condition code
        self.reads_cc = "{cc}" in self.printed


def _rr_ri(name: str, rr: int, *code) -> tuple[Form, Form]:
    """The register-source form (opcode ``rr``) and the immediate-source form
    (``rr + 1``) of one operation."""
    return (Form(f"{name}_RR", rr, "rr", Sem("rr", *code)),
            Form(f"{name}_RI", rr + 1, "ri", Sem("ri", *code)))


#: the defs and uses of a two-address operation
_TWO = ((0,), (0, 1))

_CVTTSD2SI = (
    "v = {2}",
    "if v != v or v in (INF, -INF):",
    f"    {{1}} = {INT64_MIN}",
    "else:",
    "    tr = trunc(v)",
    f"    if not {INT64_MIN} <= tr < {-INT64_MIN}:",
    f"        {{1}} = {INT64_MIN}",
    "    else:",
    "        {1} = tr",
)

_FDIV = (
    "a = {1}",
    "b = {2}",
    "if b == 0.0:",
    "    if a == 0.0 or a != a:",
    "        {1} = NAN",
    "    else:",
    "        {1} = copysign(INF, a) * copysign(1.0, b)",
    "else:",
    *("    " + line for line in _float_op("/", "a", "b")),
)

#: ucomisd: unordered sets ZF, PF and CF
_FCMP = Flags("\n".join((
    "a = {1}",
    "b = {2}",
    "if a != a or b != b:", "    {fl} = 69",
    "elif a == b:", "    {fl} = 64",
    "elif a < b:", "    {fl} = 1",
    "else:", "    {fl} = 0",
)))

#: The sx64 instruction set: every mnemonic, once.
ISA: tuple[Mnemonic, ...] = (
    # data movement
    Mnemonic("mov", 1.0, "arithm", (0,), (1,),
             Form("MOV_RR", 1, "rr", Sem("rr", "{1} = {2}")),
             Form("MOV_RI", 2, "ri", Sem("ri", "{1} = {2}"))),
    Mnemonic("fmov", 1.0, "arithm", (0,), (1,), Form("FMOV", 3, "ff", Sem("ff", "{1} = {2}"))),
    Mnemonic("fconst", 2.0, "arithm", (0,), (1,),
             Form("FCONST", 4, "fc", Sem("fc", "{1} = {2}"))),
    Mnemonic("lea", 1.0, "mem", (0,), (1,),
             Form("LEA_RD", 5, "rm", Sem("rrd", "{1} = {2}{3}")),
             Form("LEA_ABS", 6, "ra", Sem("ri", "{1} = {2}"))),
    # memory: register + displacement, or a static address the loader
    # placed inside memory
    Mnemonic("load", 4.0, "mem", (0,), (1,),
             Form("LOAD_RD", 10, "rm",
                  Sem("rrd", Address(2, 3, "load from"), Load("q", "{1}", "ad"))),
             Form("LOAD_ABS", 11, "ra", Sem("ri", Load("q", "{1}", "{2}")))),
    Mnemonic("store", 4.0, "mem", (), (0, 1),
             Form("STORE_RD", 12, "mr",
                  Sem("rdr", Address(1, 2, "store to"), Store("q", "ad", "{3}"))),
             Form("STORE_RD_I", 13, "mi",
                  Sem("rdi", Address(1, 2, "store to"), Store("q", "ad", "{3}"))),
             Form("STORE_ABS", 14, "ar", Sem("ir", Store("q", "{1}", "{2}"))),
             Form("STORE_ABS_I", 15, "ai", Sem("ii", Store("q", "{1}", "{2}")))),
    Mnemonic("fload", 4.0, "mem", (0,), (1,),
             Form("FLOAD_RD", 16, "fm",
                  Sem("frd", Address(2, 3, "fload from"), Load("d", "{1}", "ad"))),
             Form("FLOAD_ABS", 17, "fa", Sem("fi", Load("d", "{1}", "{2}")))),
    Mnemonic("fstore", 4.0, "mem", (), (0, 1),
             Form("FSTORE_RD", 18, "mf",
                  Sem("rdf", Address(1, 2, "fstore to"), Store("d", "ad", "{3}"))),
             Form("FSTORE_ABS", 19, "af", Sem("if", Store("d", "{1}", "{2}")))),
    # integer ALU: two-address, writes FLAGS like x86
    Mnemonic("add", 1.0, "arithm", *_TWO,
             *_rr_ri("ADD", 20, "r = {1} + {2}", _WRAP, _ADD_FLAGS, "{1} = w")),
    Mnemonic("sub", 1.0, "arithm", *_TWO,
             *_rr_ri("SUB", 22, "r = {1} - {2}", _WRAP, _SUB_FLAGS, "{1} = w")),
    Mnemonic("imul", 3.0, "arithm", *_TWO,
             *_rr_ri("IMUL", 24, "r = {1} * {2}", "{1} = " + _WRAP,
                     Flags(_zsp("w").text + "\nif r != w:\n    {fl} |= 2049"))),
    # bitwise: no overflow
    Mnemonic("and", 1.0, "arithm", *_TWO,
             *_rr_ri("AND", 26, "r = {1} & {2}", "{1} = r", _zsp("r"))),
    Mnemonic("or", 1.0, "arithm", *_TWO, *_rr_ri("OR", 28, "r = {1} | {2}", "{1} = r", _zsp("r"))),
    Mnemonic("xor", 1.0, "arithm", *_TWO,
             *_rr_ri("XOR", 30, "r = {1} ^ {2}", "{1} = r", _zsp("r"))),
    Mnemonic("shl", 1.0, "arithm", *_TWO,
             *_rr_ri("SHL", 32, "r = {1} << ({2} & 63)", "{1} = " + _WRAP, _zsp("w"))),
    Mnemonic("sar", 1.0, "arithm", *_TWO,
             *_rr_ri("SAR", 34, "r = {1} >> ({2} & 63)", "{1} = r", _zsp("r"))),
    Mnemonic("neg", 1.0, "arithm", (0,), (0,),
             Form("NEG", 36, "r", Sem("r", "r = -{1}", "{1} = " + _WRAP, _zsp("w")))),
    Mnemonic("idiv", 25.0, "arithm", *_TWO,
             *_rr_ri("IDIV", 37, *_divide("idiv", "r = abs(a) // abs(b)",
                                          "if (a < 0) != (b < 0):"))),
    Mnemonic("irem", 25.0, "arithm", *_TWO,
             *_rr_ri("IREM", 39, *_divide("irem", "r = abs(a) % abs(b)", "if a < 0:"))),
    # float ALU: two-address, no flags (like SSE)
    Mnemonic("fadd", 3.0, "arithm", *_TWO, Form("FADD", 50, "ff", Sem("ff", *_float_op("+")))),
    Mnemonic("fsub", 3.0, "arithm", *_TWO, Form("FSUB", 51, "ff", Sem("ff", *_float_op("-")))),
    Mnemonic("fmul", 4.0, "arithm", *_TWO, Form("FMUL", 52, "ff", Sem("ff", *_float_op("*")))),
    Mnemonic("fdiv", 14.0, "arithm", *_TWO, Form("FDIV", 53, "ff", Sem("ff", *_FDIV))),
    # compare / conditions
    Mnemonic("cmp", 1.0, "arithm", (), (0, 1),
             *_rr_ri("CMP", 60, Flags(f"r = {{1}} - {{2}}\n{_WRAP}\n{_SUB_FLAGS.text}"))),
    Mnemonic("fcmp", 2.0, "arithm", (), (0, 1), Form("FCMP", 62, "ff", Sem("ff", _FCMP))),
    Mnemonic("setcc", 1.0, "arithm", (0,), (),
             Form("SETCC", 63, "r", Sem("rk", "{1} = 1 if {2} else 0", reads=True)),
             printed="set{cc}"),
    Mnemonic("cmov", 1.0, "arithm", (0,), (0, 1),
             Form("CMOV", 64, "rr", Sem("rrk", "if {3}:", "    {1} = {2}", reads=True)),
             printed="cmov{cc}"),
    # control flow (a conditional jump costs its average over prediction)
    Mnemonic("jmp", 1.0, None, (), (), Form("JMP", 70, "t", Sem("t", Jump("{1}")))),
    Mnemonic("jcc", 1.5, None, (), (),
             Form("JCC", 71, "t", Sem("kt", Jump("{2} if {1} else {next}"), reads=True)),
             printed="j{cc}"),
    Mnemonic("call", 6.0, None, (), (),
             Form("CALL", 72, "p",
                  Sem("t", *_push("call push to"), Store("q", "sp", "{next}"), Jump("{1}"))),
             # an intrinsic is handed the whole CPU, flags included
             Form("INTR", 73, "n",
                  Sem("n-", "{cpu}._cur_pc = {pc}", "{cpu}.flags = {flags}", "IN[{1}]({cpu})",
                      "{flags} = {cpu}.flags", reads=True)),
             rsp=True),
    Mnemonic("ret", 4.0, None, (), (),
             Form("RET", 74, "", Sem(
                 "", *_pop("ret pop from"), Load("q", "rp", "sp"), "{rsp} = sp + 8",
                 Halt(f"rp == {HALT_PC}"),
                 Trap("IllegalInstruction", "ret to {rp:#x}", "not 0 <= rp < {ncode}"),
                 Jump("rp"),
             )),
             rsp=True),
    # stack (a push of rsp stores the decremented value)
    Mnemonic("push", 2.0, "stack", (), (0,),
             Form("PUSH", 80, "r", Sem("r", *_push("push to"), Store("q", "sp", "{1}"))),
             rsp=True),
    Mnemonic("pop", 2.0, "stack", (0,), (),
             Form("POP", 81, "r",
                  Sem("r", *_pop("pop from"), Load("q", "{1}", "sp"), "{rsp} = sp + 8")),
             rsp=True),
    # conversion
    Mnemonic("cvtsi2sd", 4.0, "arithm", (0,), (1,),
             Form("CVTSI2SD", 90, "fr", Sem("fr", "{1} = float({2})"))),
    Mnemonic("cvttsd2si", 4.0, "arithm", (0,), (1,),
             Form("CVTTSD2SI", 91, "rf", Sem("rf", *_CVTTSD2SI))),
    # instrumentation: REFINE's trigger counting, not an architectural effect
    # (costed as its inline PreFI check: a compare and a branch not taken)
    Mnemonic("fi_check", 2.0, None, (), (), Form("FI_CHECK", 100, "i", Sem("--"))),
)

#: mnemonic -> its declaration
MNEMONICS: dict[str, Mnemonic] = {m.name: m for m in ISA}
#: (mnemonic, operand shape) -> the form it decodes to
FORMS: dict[tuple[str, str], Form] = {(m.name, f.shape): f for m in ISA for f in m.forms}
#: opcode -> its semantics
SEMANTICS: dict[int, Sem] = {f.number: f.sem for m in ISA for f in m.forms}

#: Opcodes that read FLAGS / overwrite every FLAGS bit / end a basic block.
FLAG_READERS = frozenset(op for op, sem in SEMANTICS.items() if sem.reads)
FLAG_WRITERS = frozenset(op for op, sem in SEMANTICS.items() if sem.writes)
TERMINATORS = frozenset(op for op, sem in SEMANTICS.items() if sem.ends)


# -- rendering ---------------------------------------------------------------------

class Context:
    """How :meth:`emit` names operands, the pc, the flags and memory.

    This base renders memory through slices of ``M`` and an operand's
    unsigned value as a mask.  A subclass renders an operand
    (``operand(kind, slot, t)``), names the other fields (``fields(i)``),
    renders a :class:`Flags` item (``set_flags``), and sets :attr:`JUMP`,
    :attr:`HALT` and :attr:`NEXT`."""

    #: a jump to ``{}``; the end of the program; the step to the next
    #: instruction
    JUMP: str
    HALT: tuple[str, ...]
    NEXT: tuple[str, ...]

    def unsigned(self, kind: str, slot: int, t: tuple | None, value: str) -> str:
        return f"({value} & MK)"

    def load(self, width: str, addr: str) -> str:
        if width == "q":
            return f"int.from_bytes(M[{addr}:{addr} + 8], 'little', signed=True)"
        return f"PDU(M, {addr})[0]"

    def access(self, store: bool, addr: str, out: list[str]) -> None:
        """Lines ahead of a :class:`Load` (``store`` false) or :class:`Store`
        of the word at ``addr``: none, but for the access-logging rendering
        (:func:`repro.machine.cpu.access_logging_loop`)."""

    def address(self, item: Address, f: dict, out: list[str]) -> None:
        """Lines that compute ``ad`` and check it."""
        out.append(f"ad = {f['_%d' % item.base]}{f['_%d' % item.disp]}")
        self.trap(Trap("SegmentationFault", item.what + " {ad:#x}",
                       "not %d <= ad <= {top}" % NULL_GUARD), f, out)

    def trap(self, item: Trap, f: dict, out: list[str]) -> None:
        out.append(f"if {item.cond.format_map(f)}:")
        out.append(f"    raise {item.exc}(f'{item.message}', {f['pc']})")

    def leave(self) -> tuple[str, ...]:
        """Lines ahead of a jump or a halt: none, but for a block's
        write-back of its register locals."""
        return ()

    def store(self, width: str, addr: str, value: str, out: list[str]) -> None:
        if width == "d":
            out.append(f"PDP(M, {addr}, {value})")
        elif value.lstrip("-").isdigit():
            out.append(f"M[{addr}:{addr} + 8] = {(int(value) & MASK64).to_bytes(8, 'little')!r}")
        else:
            out.append(f"M[{addr}:{addr} + 8] = ({value} & MK).to_bytes(8, 'little')")

    def emit(self, op: int, t: tuple | None, out: list[str], i: int | None = None,
             live: bool = True) -> None:
        """Append the unindented Python of instruction ``t`` (``None``: of
        opcode ``op`` in general), an item's lines at a time; ``live``:
        whether the flags it writes are observed."""
        sem = SEMANTICS[op]
        f = self.fields(i)
        for name, kind, k in sem.slots:
            f[name] = self.operand(kind, k, t)
        for name, kind, k in sem.unsigned:
            f[name + "u"] = self.unsigned(kind, k, t, f[name])
        for item in sem.code:
            kind = type(item)
            if kind is str:
                out.append(item.format_map(f))
            elif kind is Flags:
                if live:
                    self.set_flags(item.text, f, out)
            elif kind is Trap:
                self.trap(item, f, out)
            elif kind is Address:
                self.address(item, f, out)
            elif kind is Load:
                addr = item.addr.format_map(f)
                self.access(False, addr, out)
                out.append(f"{item.dst.format_map(f)} = {self.load(item.width, addr)}")
            elif kind is Store:
                addr = item.addr.format_map(f)
                self.access(True, addr, out)
                self.store(item.width, addr, item.value.format_map(f), out)
            elif kind is Jump:
                out.extend(self.leave())
                out.append(self.JUMP.format(item.target.format_map(f)))
            else:
                out.append(f"if {item.cond.format_map(f)}:")
                out.extend("    " + line for line in (*self.leave(), *self.HALT))
        if not sem.ends:
            out.extend(self.NEXT)


def sse_nan(a: float, b: float, r: float) -> float:
    """x86 SSE's NaN result ``r`` of a float op on ``a`` and ``b``: ``a`` if it
    is a NaN, else ``b`` if it is one, quieted; else ``r``, the op's own."""
    for x in (a, b):
        if x != x:
            return bits_to_double(double_to_bits(x) | 1 << 51)  # the quiet bit
    return r


def namespace() -> dict:
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
        "sse_nan": sse_nan,
        "SegmentationFault": SegmentationFault,
        "StackOverflow": StackOverflow,
        "DivideByZero": DivideByZero,
        "IllegalInstruction": IllegalInstruction,
    }
