"""Common subexpression elimination, dominator-scoped.

Walks the dominator tree with a scoped hash table (like LLVM's EarlyCSE):
a pure instruction whose (opcode, operands) key was already computed in a
dominating position is replaced by the earlier value.  Commutative operators
are canonicalized by operand identity so ``a+b`` and ``b+a`` unify.

Loads are value-numbered too, but the load table is invalidated by any store
or call (a conservative, alias-free memory model).
"""

from __future__ import annotations

from repro.ir.dominators import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import (
    BinaryOp,
    Cast,
    COMMUTATIVE_OPS,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Select,
)
from repro.ir.values import ConstantFloat, ConstantInt, Value
from repro.irpasses.base import FunctionPass


def _operand_key(value: Value) -> object:
    if isinstance(value, ConstantInt):
        return ("ci", value.value, value.type.bits)  # type: ignore[attr-defined]
    if isinstance(value, ConstantFloat):
        # repr distinguishes -0.0/0.0 and NaN payloads encode equal; fine.
        return ("cf", repr(value.value))
    return id(value)


def _expr_key(instr: Instruction) -> tuple | None:
    """Hashable value-number key for pure instructions; None if not CSE-able."""
    if isinstance(instr, BinaryOp):
        a, b = (_operand_key(o) for o in instr.operands)
        if instr.opcode in COMMUTATIVE_OPS:
            a, b = sorted((a, b), key=repr)
        return ("bin", instr.opcode, a, b)
    if isinstance(instr, (ICmp, FCmp)):
        return (
            "cmp",
            instr.opcode,
            instr.pred,
            _operand_key(instr.operands[0]),
            _operand_key(instr.operands[1]),
        )
    if isinstance(instr, Cast):
        return ("cast", instr.opcode, _operand_key(instr.operands[0]))
    if isinstance(instr, GetElementPtr):
        return (
            "gep",
            _operand_key(instr.operands[0]),
            _operand_key(instr.operands[1]),
        )
    if isinstance(instr, Select):
        return ("sel", tuple(_operand_key(o) for o in instr.operands))
    return None


class CommonSubexprElim(FunctionPass):
    """Dominator-tree-scoped CSE with conservative load value numbering."""

    name = "cse"

    def run(self, fn: Function) -> bool:
        dt = DominatorTree(fn)
        all_preds = fn.predecessor_map()  # (CSE never touches a terminator)
        changed = False

        # Scoped tables: chained dicts along the dominator tree.
        def process(block, expr_scope: dict, load_scope: dict) -> bool:
            local_changed = False
            exprs = dict(expr_scope)
            loads = dict(load_scope)
            for instr in list(block.instructions):
                if isinstance(instr, Load):
                    key = ("load", _operand_key(instr.ptr))
                    prev = loads.get(key)
                    if prev is not None:
                        instr.replace_all_uses_with(prev)
                        instr.erase()
                        local_changed = True
                    else:
                        loads[key] = instr
                    continue
                if instr.opcode == "store":
                    # Conservative: any store may alias any load.
                    loads.clear()
                    # A load of the stored pointer now sees the stored value.
                    loads[("load", _operand_key(instr.operands[1]))] = (
                        instr.operands[0]
                    )
                    continue
                if instr.opcode == "call":
                    loads.clear()
                    continue
                key = _expr_key(instr)
                if key is None:
                    continue
                prev = exprs.get(key)
                if prev is not None:
                    instr.replace_all_uses_with(prev)
                    instr.erase()
                    local_changed = True
                else:
                    exprs[key] = instr
            for child in dt.children.get(block, ()):
                # Memory state is path-sensitive: children begin from this
                # block's table only if this block dominates them (it does,
                # by construction), but stores on other paths into the child
                # can invalidate loads.  A child with multiple predecessors
                # may be reached along paths that bypass this block's tail,
                # so only expression values (pure, path-insensitive) flow
                # down; load availability flows only to sole-successor
                # children whose unique predecessor is this block.
                preds = all_preds[child]
                if len(preds) == 1 and preds[0] is block:
                    child_loads = loads
                else:
                    child_loads = {}
                if process(child, exprs, child_loads):
                    local_changed = True
            return local_changed

        import sys

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 10000))
        try:
            changed = process(fn.entry, {}, {})
        finally:
            sys.setrecursionlimit(old_limit)
        return changed
