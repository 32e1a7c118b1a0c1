"""The sx64 declaration (``repro.machine.semantics.ISA``) is whole and is
the only spelling of the instruction set.

Every (mnemonic, operand shape) the compiler emits — the 14 workloads under
all three tools, and the demo program — has exactly one declaration and
decodes to exactly one form; the opcode numbers the frozen ISA vectors use
as illegal stay unassigned; and the flags the backend schedules around are
each form's semantics, except a call's FLAGS clobber, which is the calling
convention's.
"""

import pytest

from repro.backend.mir import OPCODES, FImm, FuncRef, Imm, Label, Mem, PReg
from repro.backend.target import CALL_CLOBBERS, FLAGS
from repro.fi import TOOL_CLASSES, TOOL_ORDER
from repro.machine.registers import FREG_INDEX
from repro.machine.semantics import FORMS, ISA, MNEMONICS, SEMANTICS
from repro.workloads import all_workloads

from tests.conftest import DEMO_SOURCE

#: what each operand kind of a shape fills in the decoded tuple (a memory
#: operand: base register and displacement, or its absolute address; an
#: intrinsic: its id and name)
SLOTS = {"r": "r", "f": "f", "i": "i", "c": "c", "m": "rd", "a": "i", "t": "t", "p": "t",
         "n": "n-"}


def shape(instr, functions) -> str:
    """An instruction's operand shape, spelled here apart from the loader."""
    kinds = {Imm: "i", FImm: "c", Label: "t"}
    out = ""
    for op in instr.operands:
        if isinstance(op, PReg):
            out += "f" if op.name in FREG_INDEX else "r"
        elif isinstance(op, Mem):
            out += "m" if op.global_name is None else "a"
        elif isinstance(op, FuncRef):
            out += "p" if op.name in functions else "n"
        else:
            out += kinds[type(op)]
    return out


@pytest.fixture(scope="module")
def emitted() -> dict[tuple[str, str], set[int]]:
    """(mnemonic, shape) -> the opcodes the loader decoded it to, over every
    build of every program."""
    programs = [(name, spec.source) for name, spec in all_workloads().items()]
    seen: dict[tuple[str, str], set[int]] = {}
    for name, source in programs + [("demo", DEMO_SOURCE)]:
        for tool in TOOL_ORDER:
            built = TOOL_CLASSES[tool](source, name)
            functions = built.binary.functions
            instrs = [i for mf in functions.values() for i in mf.instructions()]
            for instr, decoded in zip(instrs, built.program.code, strict=True):
                seen.setdefault((instr.opcode, shape(instr, functions)), set()).add(decoded[0])
    return seen


def test_each_mnemonic_and_form_is_declared_once():
    forms = [f for m in ISA for f in m.forms]
    assert len(MNEMONICS) == len(ISA)
    assert len(FORMS) == len(SEMANTICS) == len(forms)
    assert len({f.name for f in forms}) == len(forms)


def test_every_emitted_shape_decodes_to_one_form(emitted):
    assert len(emitted) >= 40
    for key, opcodes in emitted.items():
        assert key in FORMS, f"{key} has no declaration"
        assert opcodes == {FORMS[key].number}, key


def test_retired_numbers_stay_unassigned():
    """The ISA vectors replay codes 0, 7 and 99 as undecodable."""
    assert {0, 7, 99}.isdisjoint(SEMANTICS)


def test_a_shape_fills_its_semantics_slots():
    for m in ISA:
        for form in m.forms:
            if form.name != "FI_CHECK":  # the loader fills it from REFINE's site
                filled = "".join(SLOTS[kind] for kind in form.shape)
                assert filled == form.sem.operands.replace("k", ""), form.name
                assert ("k" in form.sem.operands) == m.reads_cc, form.name


def test_backend_flag_writes_are_the_semantics():
    for m in ISA:
        backend = {FLAGS} if OPCODES[m.name].writes_flags else set()
        for form in m.forms:
            sem = {FLAGS} if form.sem.writes else set()
            if m.name == "call":
                assert backend - sem == set(CALL_CLOBBERS) and sem <= backend
            else:
                assert backend == sem, form.name


def test_backend_flag_reads_are_the_condition_codes():
    for m in ISA:
        for form in m.forms:
            assert OPCODES[m.name].reads_flags == ("k" in form.sem.operands), form.name
