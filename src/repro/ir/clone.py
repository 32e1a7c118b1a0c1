"""Deep-copying IR modules.

Compilation mutates a module in place (optimization passes, instrumentation,
pre-isel lowering), so whoever compiles the *same* program twice — the FI
tools sharing one optimised module, differential oracles, reducers — works on
independent copies.  The copy is structural: every block, instruction,
argument, global and constant is duplicated once and every reference
(operands, use lists in their order, branch targets, phi edges, callees) is
mapped across, so what is compiled from the copy is what would have been
compiled from the original.  Types are immutable and shared.
"""

from __future__ import annotations

from copy import copy

from repro.errors import IRError
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Branch, Call, CondBranch, Instruction, Phi
from repro.ir.module import Module
from repro.ir.values import Constant, Value


def clone_module(module: Module) -> Module:
    """Return a structurally identical, fully independent copy of ``module``."""
    clone = Module(module.name)
    twin: dict[object, object] = {}  #: original block / value -> its copy
    for gv in module.globals.values():
        twin[gv] = clone.add_global(gv.name, gv.value_type, gv.initializer)
    for fn in module.functions.values():
        new_fn = twin[fn] = clone.add_function(fn.name, fn.type, [a.name for a in fn.args])
        new_fn._name_counter = fn._name_counter
        new_fn.attributes = dict(fn.attributes)
        twin.update(zip(fn.args, new_fn.args))
        for block in fn.blocks:
            new_block = twin[block] = BasicBlock(block.name, new_fn)
            new_fn.blocks.append(new_block)
            for instr in block.instructions:
                new = twin[instr] = copy(instr)
                new.parent = new_block
                new_block.instructions.append(new)

    def users_of(value: Value) -> list:
        # (a use list may still name an instruction a pass has since erased)
        return [twin[u] for u in value.users if u in twin]

    def operand(value: Value) -> Value:
        new = twin.get(value)
        if new is None:
            if not isinstance(value, Constant):
                raise IRError(f"{value!r} is used in {module.name} but not defined in it")
            new = twin[value] = copy(value)
            new.users = users_of(value)
        return new

    for old, new in list(twin.items()):
        if isinstance(old, Value):
            new.users = users_of(old)
        if not isinstance(old, Instruction):
            continue
        new.operands = [operand(op) for op in old.operands]
        if isinstance(old, Call):
            new.callee = twin[old.callee]
        elif isinstance(old, Branch):
            new.target = twin[old.target]
        elif isinstance(old, CondBranch):
            new.if_true = twin[old.if_true]
            new.if_false = twin[old.if_false]
        elif isinstance(old, Phi):
            new.incoming_blocks = [twin[b] for b in old.incoming_blocks]
    return clone
