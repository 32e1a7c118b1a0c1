"""REFINE: the backend fault-injection pass (paper Section 4).

Runs over the *final* machine code — after instruction selection, register
allocation, frame lowering and peephole optimization, immediately before
emission — so it sees every instruction the hardware will execute (function
prologue/epilogue, spill/fill, stack management) and, crucially, does not
perturb code generation at all: the application instructions of the
instrumented binary are byte-identical to the clean binary.

Each candidate instruction gets an ``fi_check`` splice after it.  In the
paper this is the PreFI/SetupFI/FI1..n/PostFI basic-block structure of
Figure 2; here the splice is a single pseudo-instruction that the VM
executes by consulting the injection library (dynamic candidate counting +
the single bit flip), costed at the inline-check price in the cycle model.
The assembly printer can expand the splice into the full four-block form
for inspection (``format_function(..., expand_fi_checks=True)``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend.binary import Binary
from repro.backend.mir import Imm, MachineFunction, MachineInstr
from repro.fi.config import FIConfig


@dataclass
class FISiteMeta:
    """Metadata attached to an ``fi_check``: which instruction it guards."""

    site_id: int
    #: physical output registers of the guarded instruction (dst + FLAGS...)
    out_regs: tuple[str, ...]
    guarded_text: str


class RefinePass:
    """The REFINE FaultInjection machine pass."""

    def __init__(self, config: FIConfig | None = None) -> None:
        self.config = config or FIConfig()
        self.sites = 0

    def run_on_binary(self, binary: Binary) -> int:
        """Instrument every function; returns the number of static sites."""
        if not self.config.enabled:
            return 0
        for mf in binary.functions.values():
            if not self.config.match_function(mf.name):
                continue
            self.run_on_function(mf)
        binary.meta["refine_sites"] = self.sites
        binary.meta["fi_tool"] = "refine"
        return self.sites

    def run_on_function(self, mf: MachineFunction) -> None:
        from repro.backend.asmprinter import format_instr

        for block in mf.blocks:
            new_instrs: list[MachineInstr] = []
            for instr in block.instructions:
                new_instrs.append(instr)
                out_regs = tuple(instr.fi_outputs())
                if not out_regs or not self.config.match_machine_opcode(instr.opcode):
                    continue
                self.sites += 1
                check = MachineInstr("fi_check", [Imm(self.sites)])
                check.fi_meta = FISiteMeta(
                    site_id=self.sites,
                    out_regs=out_regs,
                    guarded_text=format_instr(instr),
                )
                new_instrs.append(check)
            block.instructions = new_instrs


def refine_instrument(binary: Binary, config: FIConfig | None = None) -> int:
    """Instrument a binary in place with REFINE FI sites."""
    return RefinePass(config).run_on_binary(binary)
