"""Textual assembly printing of machine functions.

Intel-ish syntax, matching the listings in the paper (e.g. Listing 1(b)).
The printer also knows how to expand REFINE's ``fi_check`` pseudo into the
PreFI/SetupFI/FI/PostFI basic-block structure of Figure 2 for inspection,
so examples can show exactly what the instrumented binary looks like.
"""

from __future__ import annotations

from repro.backend.mir import (
    FImm,
    FuncRef,
    Imm,
    Label,
    MachineFunction,
    MachineInstr,
    Mem,
    PReg,
)


def format_operand(op) -> str:
    if isinstance(op, Mem):
        if op.global_name is not None:
            inner = f"rel {op.global_name}"
            if op.disp:
                inner += f" + {op.disp}" if op.disp > 0 else f" - {-op.disp}"
            return f"qword ptr [{inner}]"
        base = str(op.base)
        if op.disp:
            sign = "+" if op.disp > 0 else "-"
            return f"qword ptr [{base} {sign} {abs(op.disp)}]"
        return f"qword ptr [{base}]"
    if isinstance(op, Imm):
        return str(op.value)
    if isinstance(op, FImm):
        return f"{op.value!r}"
    if isinstance(op, (PReg, Label)):
        return str(op)
    if isinstance(op, FuncRef):
        return f"_{op.name}"
    return str(op)


def format_instr(instr: MachineInstr) -> str:
    ops = ", ".join(format_operand(o) for o in instr.operands)
    return f"{instr.printed} {ops}".rstrip()


def format_function(
    mf: MachineFunction, expand_fi_checks: bool = False
) -> str:
    """Print a machine function as assembly text.

    With ``expand_fi_checks=True``, each REFINE ``fi_check`` pseudo is shown
    as its PreFI/SetupFI/FI1..n/PostFI expansion (paper Figure 2) so users
    can inspect what the instrumentation will execute.
    """
    lines = [f"_{mf.name}:"]
    for block in mf.blocks:
        lines.append(f".{block.name}:")
        for instr in block.instructions:
            if instr.opcode == "fi_check" and expand_fi_checks:
                lines.extend(_expand_fi_check(instr))
            else:
                lines.append(f"    {format_instr(instr)}")
    return "\n".join(lines)


def _expand_fi_check(instr: MachineInstr) -> list[str]:
    site = instr.operands[0]
    meta = instr.fi_meta
    out_regs = getattr(meta, "out_regs", ()) or ("<reg>",)
    lines = [
        f"    ## -- REFINE FI site {format_operand(site)} "
        f"(operands: {', '.join(out_regs)})",
        "    .PreFI:",
        "    pushf",
        "    push r10",
        "    push r11",
        f"    mov rdi, {format_operand(site)}",
        "    call _selInstr",
        "    test rax, rax",
        "    jz .PostFI",
        "    .SetupFI:",
        f"    mov rdi, {len(out_regs)}",
        "    lea rsi, [rip + .FIsizes]",
        "    call _setupFI",
        "    ## <Op, Bit> returned in rax, rdx",
    ]
    for i, reg in enumerate(out_regs, start=1):
        lines += [
            f"    .FI{i}:",
            "    mov rcx, 1",
            "    shl rcx, cl        ## bit mask from setupFI",
            f"    xor {reg}, rcx     ## flip the chosen bit of {reg}",
        ]
    lines += [
        "    .PostFI:",
        "    pop r11",
        "    pop r10",
        "    popf",
    ]
    return lines


def format_program(functions: dict[str, MachineFunction]) -> str:
    return "\n\n".join(format_function(mf) for mf in functions.values())
