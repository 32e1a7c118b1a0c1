"""Loader: turns a :class:`~repro.backend.binary.Binary` into an executable
image for the CPU interpreter.

Responsibilities of a real loader/linker, scaled down:

* lay out globals in the data segment and build the initial memory image,
* flatten functions into one code array and resolve labels/call targets,
* pre-decode every instruction into a dispatch tuple so the interpreter's
  hot loop never inspects operand objects: the tuple is the opcode of the
  instruction's form — looked up by its mnemonic and operand shape in
  :data:`~repro.machine.semantics.FORMS`, derived from the ISA declaration —
  then the slots its operands fill, a condition code's id where the form's
  semantics read it,
* precompute per-instruction cycle costs and fault-injection metadata
  (candidate flag and output-register descriptors) used by PINFI's DBI hook
  and REFINE's ``fi_check`` sites.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import LinkError
from repro.backend.asmprinter import format_instr
from repro.backend.binary import Binary
from repro.backend.mir import FImm, Imm, Label, MachineInstr, Mem, PReg
from repro.backend.target import INTRINSIC_COSTS
from repro.machine.intrinsics import INTRINSIC_TABLE
from repro.machine.registers import FREG_INDEX, IREG_INDEX, output_descriptor
from repro.machine.semantics import CONDITION_CODES, FORMS, MNEMONICS, NULL_GUARD

#: Memory map constants (and :data:`~repro.machine.semantics.NULL_GUARD`).
DEFAULT_MEM_SIZE = 1 << 20
STACK_GUARD = 0x1000


@dataclass
class InstrInfo:
    """Provenance of one decoded instruction (for fault logs/debugging)."""

    func: str
    block: str
    index: int
    text: str
    #: the instruction's mnemonic (``-fi-instrs`` filters by its class)
    mnemonic: str


@dataclass
class LoadedProgram:
    """A fully decoded, executable program image."""

    binary: Binary
    code: list[tuple] = field(default_factory=list)
    cost: list[float] = field(default_factory=list)
    is_candidate: list[bool] = field(default_factory=list)
    #: per-pc fault-output descriptors ((space, index, width), ...)
    outputs: list[tuple] = field(default_factory=list)
    info: list[InstrInfo] = field(default_factory=list)
    func_entry: dict[str, int] = field(default_factory=dict)
    globals_addr: dict[str, int] = field(default_factory=dict)
    data_image: bytes = b""
    data_end: int = NULL_GUARD
    mem_size: int = DEFAULT_MEM_SIZE
    #: pc values of LLFI injection stubs (for candidate accounting)
    llfi_site_pcs: list[int] = field(default_factory=list)
    #: pc values of REFINE fi_check pseudos
    fi_check_pcs: list[int] = field(default_factory=list)

    @property
    def stack_limit(self) -> int:
        return self.data_end + STACK_GUARD

    @property
    def stack_top(self) -> int:
        return self.mem_size - 16

    def fresh_memory(self) -> bytearray:
        mem = bytearray(self.mem_size)
        mem[NULL_GUARD : NULL_GUARD + len(self.data_image)] = self.data_image
        return mem


class Loader:
    def __init__(self, binary: Binary, mem_size: int = DEFAULT_MEM_SIZE) -> None:
        self.binary = binary
        self.prog = LoadedProgram(binary=binary, mem_size=mem_size)

    # -- data segment ----------------------------------------------------------

    def _layout_globals(self) -> None:
        addr = NULL_GUARD
        chunks: list[bytes] = []
        for g in self.binary.globals.values():
            self.prog.globals_addr[g.name] = addr
            if g.kind == "double":
                data = struct.pack(f"<{g.count}d", *[float(v) for v in g.init])
            else:
                data = struct.pack(f"<{g.count}q", *[int(v) for v in g.init])
            chunks.append(data)
            addr += g.size_bytes
        self.prog.data_image = b"".join(chunks)
        self.prog.data_end = addr
        if addr + STACK_GUARD + 4096 > self.prog.mem_size:
            raise LinkError(
                f"data segment ({addr} bytes) does not fit in "
                f"{self.prog.mem_size}-byte memory"
            )

    # -- code ------------------------------------------------------------

    def load(self) -> LoadedProgram:
        self._layout_globals()

        # Pass 1: assign pc to every instruction; record labels and entries.
        label_pc: dict[tuple[str, str], int] = {}
        pc = 0
        for mf in self.binary.functions.values():
            self.prog.func_entry[mf.name] = pc
            for block in mf.blocks:
                label_pc[(mf.name, block.name)] = pc
                pc += len(block.instructions)

        # Pass 2: decode.
        for mf in self.binary.functions.values():
            for block in mf.blocks:
                for idx, instr in enumerate(block.instructions):
                    self._decode(mf.name, block.name, idx, instr, label_pc)
        return self.prog

    # -- decoding ---------------------------------------------------------

    def _operands(self, func: str, operands: list, label_pc: dict) -> tuple[str, list]:
        """The operands' shape (:attr:`~repro.machine.semantics.Form.shape`)
        and the decoded tuple slots they fill."""
        prog = self.prog
        shape = ""
        slots: list = []
        for op in operands:
            kind = type(op)
            if kind is PReg:
                if op.name in IREG_INDEX:
                    shape += "r"
                    slots.append(IREG_INDEX[op.name])
                else:
                    shape += "f"
                    slots.append(FREG_INDEX[op.name])
            elif kind is Imm:
                shape += "i"
                slots.append(op.value)
            elif kind is FImm:
                shape += "c"
                slots.append(op.value)
            elif kind is Mem:
                if op.global_name is None:
                    shape += "m"
                    slots += (IREG_INDEX[op.base.name], op.disp)
                else:
                    base = prog.globals_addr.get(op.global_name)
                    if base is None:
                        raise LinkError(f"undefined global @{op.global_name}")
                    shape += "a"
                    slots.append(base + op.disp)
            elif kind is Label:
                shape += "t"
                slots.append(label_pc[(func, op.name)])
            elif op.name in prog.func_entry:
                shape += "p"
                slots.append(prog.func_entry[op.name])
            else:
                shape += "n"
                slots += (INTRINSIC_TABLE.index_of(op.name), op.name)
        return shape, slots

    def _decode(
        self,
        func: str,
        block: str,
        idx: int,
        instr: MachineInstr,
        label_pc: dict[tuple[str, str], int],
    ) -> None:
        prog = self.prog
        pc = len(prog.code)
        shape, slots = self._operands(func, instr.operands, label_pc)
        form = FORMS.get((instr.opcode, shape))
        if form is None:
            raise LinkError(f"cannot decode {instr} (operand shape {shape!r})")
        k = form.sem.operands.find("k")
        if k >= 0:
            slots.insert(k, CONDITION_CODES.index(instr.cc))
        cost = MNEMONICS[instr.opcode].cost
        text = format_instr(instr)
        if form.name == "INTR":
            cost += INTRINSIC_COSTS.get(slots[1], 10.0)
            if slots[1].startswith("__fi_inject"):
                prog.llfi_site_pcs.append(pc)
        elif form.name == "FI_CHECK":
            # REFINE site: the tuple carries the guarded instruction's
            # fault-output descriptors so injection needs no lookup, and
            # fault logs name the instruction whose outputs the site
            # corrupts, not the instrumentation pseudo itself.
            meta = instr.fi_meta
            slots = [tuple(map(output_descriptor, getattr(meta, "out_regs", ()))),
                     getattr(meta, "site_id", -1)]
            text = getattr(meta, "guarded_text", "") or text
            prog.fi_check_pcs.append(pc)
        outs = instr.fi_outputs()
        prog.code.append((form.number, *slots))
        prog.cost.append(cost)
        prog.is_candidate.append(bool(outs))
        prog.outputs.append(tuple(map(output_descriptor, outs)))
        prog.info.append(InstrInfo(func, block, idx, text, instr.opcode))


def load_binary(binary: Binary, mem_size: int = DEFAULT_MEM_SIZE) -> LoadedProgram:
    """Load and decode a binary for execution."""
    binary.validate()
    return Loader(binary, mem_size).load()
