"""Machine IR (MIR): the backend's instruction representation.

Mirrors LLVM's MachineInstr layer: target-flavoured instructions over
virtual or physical registers, organized in machine basic blocks.  REFINE's
instrumentation pass operates on this representation *after* register
allocation — exactly the paper's design (Section 4.2).

Operand kinds:

* :class:`VReg` — virtual register (pre-RA only)
* :class:`PReg` — physical register
* :class:`Imm` / :class:`FImm` — integer / float immediates
* :class:`Mem` — memory reference ``[base + disp]``, a global symbol, or a
  frame slot (pre-frame-lowering placeholder)
* :class:`Label` — branch target
* :class:`FuncRef` — call target
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import BackendError
from repro.backend.target import CALL_CLOBBERS, FLAGS, FPR, RSP
from repro.machine.semantics import ISA, MNEMONICS, Mnemonic


# -- operands ----------------------------------------------------------------

@dataclass(frozen=True)
class VReg:
    """Virtual register: unlimited supply, assigned by the allocator."""

    id: int
    cls: str  # GPR | FPR

    def __str__(self) -> str:
        prefix = "%vf" if self.cls == FPR else "%v"
        return f"{prefix}{self.id}"


@dataclass(frozen=True)
class PReg:
    """Physical register."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Imm:
    """64-bit integer immediate."""

    value: int

    def __str__(self) -> str:
        return f"${self.value}"


@dataclass(frozen=True)
class FImm:
    """Double immediate (stands in for a constant-pool reference)."""

    value: float

    def __str__(self) -> str:
        return f"${self.value!r}"


@dataclass(frozen=True)
class Mem:
    """Memory operand: ``[base + disp]``, ``[@global + disp]``, or a frame
    slot placeholder (``frame`` index resolved during frame lowering)."""

    base: Optional[VReg | PReg] = None
    disp: int = 0
    global_name: Optional[str] = None
    frame_slot: Optional[int] = None

    def __str__(self) -> str:
        if self.frame_slot is not None:
            return f"[frame#{self.frame_slot}{self.disp:+d}]"
        if self.global_name is not None:
            return f"[@{self.global_name}{self.disp:+d}]"
        if self.disp:
            return f"[{self.base}{self.disp:+d}]"
        return f"[{self.base}]"


@dataclass(frozen=True)
class Label:
    """Branch target (machine basic block name)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FuncRef:
    """Direct call target."""

    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


Operand = VReg | PReg | Imm | FImm | Mem | Label | FuncRef


# -- opcode semantics table ---------------------------------------------------

@dataclass(frozen=True)
class OpcodeInfo:
    """What the backend reads of an opcode.

    ``defs``/``uses`` are operand indices (a memory operand's base register
    is always read).  ``ends``: every form ends a basic block (a call to an
    intrinsic does not).  ``rsp``: writes rsp besides its operands.
    ``fi_class``: its Table 2 class, ``None`` where it is never a
    fault-injection candidate.
    """

    defs: tuple[int, ...] = ()
    uses: tuple[int, ...] = ()
    writes_flags: bool = False
    reads_flags: bool = False
    ends: bool = False
    rsp: bool = False
    fi_class: str | None = None


def _opcode_info(m: Mnemonic) -> OpcodeInfo:
    """The backend's view of a declaration: its semantics' flag effects, and a
    call's clobber (a calling-convention fact, not the instruction's)."""
    return OpcodeInfo(
        m.defs, m.uses,
        writes_flags=any(f.sem.writes for f in m.forms) or (
            m.name == "call" and FLAGS in CALL_CLOBBERS),
        reads_flags=m.reads_cc,
        ends=all(f.sem.ends for f in m.forms),
        rsp=m.rsp,
        fi_class=m.fi_class,
    )


#: The sx64 instruction set, from its declaration
#: (:data:`repro.machine.semantics.ISA`).
OPCODES: dict[str, OpcodeInfo] = {m.name: _opcode_info(m) for m in ISA}

#: Pseudo-instructions that exist only before frame lowering.
PSEUDO_OPCODES: dict[str, OpcodeInfo] = {
    # CALL pseudo: ops = [FuncRef, ret-vreg-or-None, arg0, arg1, ...]
    "pcall": OpcodeInfo(writes_flags=FLAGS in CALL_CLOBBERS),
    # RET pseudo: ops = [value-vreg] or []
    "pret": OpcodeInfo(ends=True),
    # incoming-arguments pseudo: ops = [dst-vreg, ...] (all defs)
    "pargs": OpcodeInfo(),
}


class MachineInstr:
    """One machine instruction."""

    __slots__ = ("opcode", "operands", "cc", "fi_meta")

    def __init__(
        self,
        opcode: str,
        operands: list[Operand] | tuple[Operand, ...] = (),
        cc: str | None = None,
    ) -> None:
        if opcode not in OPCODES and opcode not in PSEUDO_OPCODES:
            raise BackendError(f"unknown opcode {opcode!r}")
        self.opcode = opcode
        self.operands: list[Operand] = list(operands)
        #: condition code for jcc/setcc/cmov
        self.cc = cc
        #: fault-injection metadata slot (set by FI passes)
        self.fi_meta: object = None

    # -- dataflow queries ---------------------------------------------------

    @property
    def info(self) -> OpcodeInfo:
        return OPCODES.get(self.opcode) or PSEUDO_OPCODES[self.opcode]

    def reg_defs(self) -> list[VReg | PReg]:
        """Registers written by this instruction (excluding FLAGS/rsp)."""
        if self.opcode == "pcall":
            ret = self.operands[1]
            return [ret] if isinstance(ret, (VReg, PReg)) else []
        if self.opcode == "pargs":
            return [op for op in self.operands if isinstance(op, (VReg, PReg))]
        out: list[VReg | PReg] = []
        for idx in self.info.defs:
            op = self.operands[idx]
            if isinstance(op, (VReg, PReg)):
                out.append(op)
        return out

    def reg_uses(self) -> list[VReg | PReg]:
        """Registers read by this instruction (incl. memory base registers)."""
        out: list[VReg | PReg] = []
        if self.opcode == "pcall":
            for op in self.operands[2:]:
                if isinstance(op, (VReg, PReg)):
                    out.append(op)
            return out
        if self.opcode == "pret":
            for op in self.operands:
                if isinstance(op, (VReg, PReg)):
                    out.append(op)
            return out
        for idx in self.info.uses:
            op = self.operands[idx]
            if isinstance(op, (VReg, PReg)):
                out.append(op)
        # Base registers of any memory operand are reads.
        for op in self.operands:
            if isinstance(op, Mem) and isinstance(op.base, (VReg, PReg)):
                out.append(op.base)
        return out

    def output_registers(self) -> list[str]:
        """Names of the *physical* registers this instruction writes: its
        destination registers, FLAGS, rsp.

        Only meaningful after register allocation.
        """
        outs = [op.name for op in self.reg_defs() if isinstance(op, PReg)]
        info = self.info
        if info.writes_flags:
            outs.append(FLAGS)
        if info.rsp:
            outs.append(RSP)
        return outs

    def fi_outputs(self) -> list[str]:
        """The fault-injection targets: the output registers of an instruction
        with a Table 2 class, none for any other (control transfers and
        REFINE's check; stores write memory, not registers)."""
        return self.output_registers() if self.info.fi_class else []

    @property
    def is_fi_candidate(self) -> bool:
        """True when the single-bit-flip fault model applies: the instruction
        has a Table 2 class and writes at least one architectural register."""
        return bool(self.fi_outputs())

    @property
    def printed(self) -> str:
        """The printed mnemonic (``jcc`` with condition ``ge`` prints ``jge``)."""
        m = MNEMONICS.get(self.opcode)
        return self.opcode if m is None else m.printed.format(cc=self.cc)

    def __str__(self) -> str:
        ops = ", ".join(str(o) for o in self.operands)
        return f"{self.printed} {ops}".rstrip()

    def __repr__(self) -> str:
        return f"<MI {self}>"


class MachineBlock:
    """A machine basic block."""

    __slots__ = ("name", "instructions", "successors")

    def __init__(self, name: str) -> None:
        self.name = name
        self.instructions: list[MachineInstr] = []
        #: successor block names (filled by the builder/isel)
        self.successors: list[str] = []

    def append(self, instr: MachineInstr) -> MachineInstr:
        self.instructions.append(instr)
        return instr

    def __iter__(self) -> Iterator[MachineInstr]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<MachineBlock {self.name} ({len(self.instructions)})>"


@dataclass
class FrameInfo:
    """Stack frame bookkeeping for one function."""

    #: slot index -> size in bytes (all 8 here, arrays larger)
    slot_sizes: list[int] = field(default_factory=list)
    #: resolved slot offsets relative to rbp (filled by frame lowering)
    slot_offsets: list[int] = field(default_factory=list)
    #: callee-saved registers this function must preserve
    saved_regs: list[str] = field(default_factory=list)
    frame_size: int = 0

    def new_slot(self, size: int = 8) -> int:
        self.slot_sizes.append(size)
        return len(self.slot_sizes) - 1


class MachineFunction:
    """Machine code for one function."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.blocks: list[MachineBlock] = []
        self._block_map: dict[str, MachineBlock] = {}
        self.frame = FrameInfo()
        self._next_vreg = 0

    def new_vreg(self, cls: str) -> VReg:
        self._next_vreg += 1
        return VReg(self._next_vreg, cls)

    def add_block(self, name: str) -> MachineBlock:
        if name in self._block_map:
            raise BackendError(f"duplicate machine block {name!r} in @{self.name}")
        block = MachineBlock(name)
        self.blocks.append(block)
        self._block_map[name] = block
        return block

    def get_block(self, name: str) -> MachineBlock:
        try:
            return self._block_map[name]
        except KeyError:
            raise BackendError(f"@{self.name} has no machine block {name!r}") from None

    def clone(self) -> "MachineFunction":
        """An independent copy, down to the instructions (operands are
        immutable, and shared): REFINE's splices in it, or a caller's edits,
        do not show in the original."""
        new = MachineFunction(self.name)
        new._next_vreg = self._next_vreg
        frame = self.frame
        new.frame = FrameInfo(list(frame.slot_sizes), list(frame.slot_offsets),
                              list(frame.saved_regs), frame.frame_size)
        for block in self.blocks:
            copy = new.add_block(block.name)
            copy.successors = list(block.successors)
            for i in block.instructions:
                copy.append(MachineInstr(i.opcode, i.operands, i.cc)).fi_meta = i.fi_meta
        return new

    def instructions(self) -> Iterator[MachineInstr]:
        for block in self.blocks:
            yield from block.instructions

    def instr_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __repr__(self) -> str:
        return f"<MachineFunction @{self.name} ({self.instr_count()} instrs)>"
