"""Post-RA peephole optimization on machine code.

Small cleanups a real backend performs late:

* delete ``mov r, r`` / ``fmov r, r`` self-moves left by expansion,
* delete ``jmp`` to the immediately following block (fallthrough),
* collapse ``mov r, 0`` into ``xor r, r`` — the idiom every x86 compiler
  emits (and a nice example of an instruction whose FLAGS write makes it a
  multi-output fault target while the mov it replaces was single-output).
"""

from __future__ import annotations

from repro.backend.mir import Imm, Label, MachineFunction, MachineInstr, PReg


#: condition-code inversions for branch folding
_INVERT_CC = {
    "e": "ne", "ne": "e", "l": "ge", "ge": "l", "le": "g", "g": "le",
    "b": "ae", "ae": "b", "be": "a", "a": "be", "s": "ns", "ns": "s",
    "p": "np", "np": "p",
}


def _is_self_move(instr: MachineInstr) -> bool:
    if instr.opcode not in ("mov", "fmov"):
        return False
    dst, src = instr.operands
    return isinstance(dst, PReg) and isinstance(src, PReg) and dst.name == src.name


def run_peephole(mf: MachineFunction) -> int:
    """Apply peephole rewrites; returns number of changes."""
    changes = 0
    for bi, block in enumerate(mf.blocks):
        next_block = mf.blocks[bi + 1].name if bi + 1 < len(mf.blocks) else None
        # Branch inversion: `jcc cc, NEXT; jmp OTHER` -> `j!cc OTHER`
        # (fall through to NEXT) — the layout optimization every compiler
        # applies; halves the dynamic branch count of loop bodies.
        if (
            len(block.instructions) >= 2
            and block.instructions[-1].opcode == "jmp"
            and block.instructions[-2].opcode == "jcc"
        ):
            jcc = block.instructions[-2]
            jmp = block.instructions[-1]
            jcc_target = jcc.operands[0]
            if (
                isinstance(jcc_target, Label)
                and jcc_target.name == next_block
                and jcc.cc in _INVERT_CC
            ):
                jcc.cc = _INVERT_CC[jcc.cc]
                jcc.operands[0] = jmp.operands[0]
                block.instructions.pop()
                changes += 1
        new_instrs: list[MachineInstr] = []
        n = len(block.instructions)
        for i, instr in enumerate(block.instructions):
            if _is_self_move(instr):
                changes += 1
                continue
            if (
                instr.opcode == "jmp"
                and i == n - 1
                and next_block is not None
                and isinstance(instr.operands[0], Label)
                and instr.operands[0].name == next_block
            ):
                changes += 1
                continue
            if (
                instr.opcode == "mov"
                and isinstance(instr.operands[0], PReg)
                and isinstance(instr.operands[1], Imm)
                and instr.operands[1].value == 0
                and not _flags_live_after(block.instructions, i)
            ):
                new_instrs.append(
                    MachineInstr("xor", [instr.operands[0], instr.operands[0]])
                )
                changes += 1
                continue
            new_instrs.append(instr)
        block.instructions = new_instrs
    return changes


def _flags_live_after(instrs: list[MachineInstr], index: int) -> bool:
    """Conservatively check whether FLAGS might be read after ``index``
    before being rewritten (an ``xor`` rewrite would clobber them)."""
    for instr in instrs[index + 1 :]:
        info = instr.info
        if info.reads_flags:
            return True
        if info.writes_flags:
            return False
        if info.ends:
            # Our codegen always re-materializes FLAGS (cmp) in the block
            # that consumes them, so FLAGS never flow across block edges.
            return False
    return False
