"""IR-level preparation for instruction selection.

Two mandatory lowerings run before isel:

* **critical-edge splitting** — phi elimination inserts copies in predecessor
  blocks, which is only correct when no predecessor with multiple successors
  feeds a block with multiple predecessors;
* **select lowering** — ``select`` becomes an explicit diamond (sx64 has
  integer ``cmov`` but no float conditional move, and a uniform lowering
  keeps isel simple; LLVM's X86 backend does the same for fp selects).
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.instructions import Branch, CondBranch, Phi, Select
from repro.ir.module import Module


def split_critical_edges(fn: Function) -> bool:
    """Insert a forwarding block on every critical edge into a phi block."""
    changed = False
    # (one snapshot: a split leaves every other block's predecessors alone)
    all_preds = fn.predecessor_map()
    for block in list(fn.blocks):
        preds = all_preds[block]
        if len(preds) < 2 or not block.phis():
            continue
        for pred in preds:
            term = pred.terminator
            if term is None or len(pred.successors()) < 2:
                continue
            # Critical edge pred -> block: split it.  The new block receives
            # phi copies reading values defined in `pred`, and isel consumes
            # fn.blocks in list order expecting defs before uses — so it must
            # sit right after `pred`, not before `block` (for a backedge,
            # `block` precedes `pred` and the copies would be selected first).
            pred_pos = fn.blocks.index(pred)
            after_pred = (
                fn.blocks[pred_pos + 1]
                if pred_pos + 1 < len(fn.blocks)
                else None
            )
            mid = fn.add_block(
                fn.next_name(f"{pred.name}.split"), before=after_pred
            )
            mid.append(Branch(block))
            assert isinstance(term, CondBranch)
            term.replace_successor(block, mid)
            for phi in block.phis():
                for i, b in enumerate(phi.incoming_blocks):
                    if b is pred:
                        phi.incoming_blocks[i] = mid
            changed = True
    return changed


def lower_selects(fn: Function) -> bool:
    """Rewrite every ``select`` into an if/else diamond with a phi."""
    changed = False
    for block in list(fn.blocks):
        selects = [i for i in block.instructions if isinstance(i, Select)]
        for sel in selects:
            _lower_one_select(fn, sel)
            changed = True
    return changed


def _lower_one_select(fn: Function, sel: Select) -> None:
    block = sel.parent
    assert block is not None
    idx = block.instructions.index(sel)

    # Split the block at the select.  The tail must stay adjacent to the
    # block it was split from: isel walks fn.blocks in list order and relies
    # on defs preceding cross-block uses, so appending the tail at the end
    # of the list would select users of the moved instructions first.
    pos = fn.blocks.index(block)
    successor = fn.blocks[pos + 1] if pos + 1 < len(fn.blocks) else None
    tail = fn.add_block(fn.next_name("sel.end"), before=successor)
    moved = block.instructions[idx + 1 :]
    del block.instructions[idx + 1 :]
    for instr in moved:
        instr.parent = tail
        tail.instructions.append(instr)
    # Successor phis must be retargeted from `block` to `tail`.
    for succ_name_block in tail.successors():
        for phi in succ_name_block.phis():
            for i, b in enumerate(phi.incoming_blocks):
                if b is block:
                    phi.incoming_blocks[i] = tail

    then_bb = fn.add_block(fn.next_name("sel.then"), before=tail)
    else_bb = fn.add_block(fn.next_name("sel.else"), before=tail)
    then_bb.append(Branch(tail))
    else_bb.append(Branch(tail))

    cond, tval, fval = sel.operands
    block.remove(sel)
    branch = CondBranch(cond, then_bb, else_bb)
    block.append(branch)

    phi = Phi(sel.type)
    phi.name = fn.next_name("sel")
    tail.insert(0, phi)
    phi.parent = tail
    phi.add_incoming(tval, then_bb)
    phi.add_incoming(fval, else_bb)
    sel.replace_all_uses_with(phi)
    sel.drop_operands()


def prepare_function(fn: Function) -> None:
    lower_selects(fn)
    split_critical_edges(fn)


def prepare_module(module: Module) -> None:
    """Run all pre-isel lowerings."""
    for fn in module.defined_functions():
        prepare_function(fn)
