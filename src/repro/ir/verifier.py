"""Structural verification of IR modules.

Run after frontend lowering and after every optimization pass in tests to
catch malformed IR early — the same role ``llvm::verifyModule`` plays.
"""

from __future__ import annotations

from repro.errors import VerifierError
from repro.ir.basicblock import BasicBlock
from repro.ir.dominators import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Phi
from repro.ir.module import Module
from repro.ir.values import Argument, Constant, GlobalVariable


def verify_module(module: Module) -> None:
    """Raise :class:`VerifierError` on the first structural violation."""
    for fn in module.functions.values():
        if not fn.is_declaration:
            verify_function(fn)


def verify_function(fn: Function) -> None:
    if fn.is_declaration:
        return
    _check_blocks(fn)
    _check_phis(fn)
    _check_operands(fn)
    _check_dominance(fn)


def _fail(fn: Function, msg: str) -> None:
    raise VerifierError(f"@{fn.name}: {msg}")


def _check_blocks(fn: Function) -> None:
    names = set()
    for block in fn.blocks:
        if block.name in names:
            _fail(fn, f"duplicate block name {block.name}")
        names.add(block.name)
        if block.parent is not fn:
            _fail(fn, f"block {block.name} has wrong parent")
        if not block.is_terminated:
            _fail(fn, f"block {block.name} lacks a terminator")
        for instr in block.instructions[:-1]:
            if instr.is_terminator:
                _fail(fn, f"terminator {instr.opcode} not at end of {block.name}")
        for instr in block.instructions:
            if instr.parent is not block:
                _fail(fn, f"instruction in {block.name} has wrong parent")
        for succ in block.successors():
            if succ not in fn.blocks:
                _fail(fn, f"{block.name} branches to foreign block {succ.name}")
    if fn.entry.predecessors():
        _fail(fn, "entry block has predecessors")
    ret_ty = fn.return_type
    for block in fn.blocks:
        term = block.terminator
        if term is not None and term.opcode == "ret":
            value = term.operands[0] if term.operands else None
            if ret_ty.is_void():
                if value is not None:
                    _fail(fn, f"ret with value in void function ({block.name})")
            else:
                if value is None:
                    _fail(fn, f"ret without value in {block.name}")
                elif value.type != ret_ty:
                    _fail(fn, f"ret type {value.type} != {ret_ty}")


def _check_phis(fn: Function) -> None:
    all_preds = fn.predecessor_map()
    for block in fn.blocks:
        preds = all_preds[block]
        pred_ids = {id(p) for p in preds}
        seen_non_phi = False
        for instr in block.instructions:
            if isinstance(instr, Phi):
                if seen_non_phi:
                    _fail(fn, f"phi {instr.ref()} not at head of {block.name}")
                incoming_ids = {id(b) for b in instr.incoming_blocks}
                if incoming_ids != pred_ids:
                    _fail(
                        fn,
                        f"phi {instr.ref()} in {block.name} has incoming blocks "
                        f"{sorted(b.name for b in instr.incoming_blocks)} but "
                        f"predecessors are {sorted(p.name for p in preds)}",
                    )
                if len(instr.incoming_blocks) != len(set(incoming_ids)):
                    _fail(fn, f"phi {instr.ref()} has duplicate incoming blocks")
            else:
                seen_non_phi = True


def _check_operands(fn: Function) -> None:
    instrs = set(id(i) for i in fn.instructions())
    args = set(id(a) for a in fn.args)
    for block in fn.blocks:
        for instr in block.instructions:
            for op in instr.operands:
                if isinstance(op, (Constant, GlobalVariable, Function)):
                    continue
                if isinstance(op, Argument):
                    if id(op) not in args:
                        _fail(fn, f"{instr.ref()} uses foreign argument {op.ref()}")
                    continue
                if isinstance(op, Instruction):
                    if id(op) not in instrs:
                        _fail(
                            fn,
                            f"{instr.ref()} uses instruction {op.ref()} "
                            "not present in this function",
                        )
                    continue
                _fail(fn, f"{instr.ref()} has invalid operand {op!r}")
            for op in instr.operands:
                if instr not in op.users:
                    _fail(fn, f"use-list of {op.ref()} is missing user {instr.ref()}")


def _check_dominance(fn: Function) -> None:
    dt = DominatorTree(fn)
    positions: dict[int, tuple[BasicBlock, int]] = {}
    for block in fn.blocks:
        for i, instr in enumerate(block.instructions):
            positions[id(instr)] = (block, i)

    for block in fn.blocks:
        if not dt.reachable(block):
            continue  # unreachable code is allowed, like LLVM
        for i, instr in enumerate(block.instructions):
            if isinstance(instr, Phi):
                for value, pred in instr.incoming():
                    if isinstance(value, Instruction):
                        def_block, _ = positions[id(value)]
                        if dt.reachable(pred) and not dt.dominates(def_block, pred):
                            _fail(
                                fn,
                                f"phi {instr.ref()}: incoming {value.ref()} does "
                                f"not dominate edge from {pred.name}",
                            )
                continue
            for op in instr.operands:
                if not isinstance(op, Instruction):
                    continue
                def_block, def_idx = positions[id(op)]
                if def_block is block:
                    if def_idx >= i:
                        _fail(
                            fn,
                            f"{instr.ref()} uses {op.ref()} before its definition",
                        )
                elif dt.reachable(def_block) and not dt.strictly_dominates(def_block, block):
                    _fail(
                        fn,
                        f"{instr.ref()} in {block.name} not dominated by def of "
                        f"{op.ref()} in {def_block.name}",
                    )
