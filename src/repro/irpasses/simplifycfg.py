"""Control-flow graph cleanups.

Four rewrites, iterated until stable:

1. fold conditional branches with a constant condition,
2. delete unreachable blocks,
3. merge a block into its unique predecessor when that predecessor has a
   single successor,
4. forward branches through empty blocks that only jump onward.
"""

from __future__ import annotations

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Branch, CondBranch
from repro.ir.values import ConstantInt
from repro.irpasses.base import FunctionPass


def _reachable_blocks(fn: Function) -> set[int]:
    seen = {id(fn.entry)}
    work = [fn.entry]
    while work:
        block = work.pop()
        for succ in block.successors():
            if id(succ) not in seen:
                seen.add(id(succ))
                work.append(succ)
    return seen


class SimplifyCFG(FunctionPass):
    """Iteratively simplify the CFG."""

    name = "simplifycfg"

    def run(self, fn: Function) -> bool:
        changed = False
        while True:
            local = (
                self._fold_constant_branches(fn)
                | self._remove_unreachable(fn)
                | self._merge_into_predecessor(fn)
                | self._forward_empty_blocks(fn)
            )
            if not local:
                return changed
            changed = True

    # -- rewrites ------------------------------------------------------------

    @staticmethod
    def _fold_constant_branches(fn: Function) -> bool:
        changed = False
        for block in fn.blocks:
            term = block.terminator
            if not isinstance(term, CondBranch):
                continue
            cond = term.cond
            taken: BasicBlock | None = None
            if isinstance(cond, ConstantInt):
                taken = term.if_true if cond.value else term.if_false
            elif term.if_true is term.if_false:
                taken = term.if_true
            if taken is None:
                continue
            dead = term.if_false if taken is term.if_true else term.if_true
            if dead is not taken:
                for phi in dead.phis():
                    phi.remove_incoming(block)
            term.drop_operands()
            block.remove(term)
            block.append(Branch(taken))
            changed = True
        return changed

    @staticmethod
    def _remove_unreachable(fn: Function) -> bool:
        reachable = _reachable_blocks(fn)
        dead = [b for b in fn.blocks if id(b) not in reachable]
        if not dead:
            return False
        dead_ids = {id(b) for b in dead}
        # First detach phi edges from dead predecessors.
        for block in fn.blocks:
            if id(block) in dead_ids:
                continue
            for phi in block.phis():
                for pred in list(phi.incoming_blocks):
                    if id(pred) in dead_ids:
                        phi.remove_incoming(pred)
        # Then drop the dead blocks' instructions.  Values defined in dead
        # blocks cannot be used from reachable code (dominance), so remaining
        # users are themselves dead and vanish with their blocks.
        for block in dead:
            for instr in block.instructions:
                instr.drop_operands()
        for block in dead:
            for instr in list(block.instructions):
                instr.users.clear()
                block.remove(instr)
            fn.remove_block(block)
        return True

    @staticmethod
    def _merge_into_predecessor(fn: Function) -> bool:
        changed = False
        all_preds = fn.predecessor_map()
        for block in list(fn.blocks):
            if block is fn.entry:
                continue
            preds = all_preds[block]
            if len(preds) != 1:
                continue
            pred = preds[0]
            term = pred.terminator
            if not isinstance(term, Branch) or term.target is not block:
                continue
            if pred is block:
                continue
            # Rewire phis: with a single predecessor each phi has one incoming.
            for phi in block.phis():
                value = phi.incoming_for(pred)
                phi.replace_all_uses_with(value)
                phi.drop_operands()
                block.remove(phi)
            term.drop_operands()
            pred.remove(term)
            for instr in list(block.instructions):
                block.remove(instr)
                instr.parent = pred
                pred.instructions.append(instr)
            # Successor phis referring to `block` must now refer to `pred`.
            for succ in pred.successors():
                for phi in succ.phis():
                    for i, b in enumerate(phi.incoming_blocks):
                        if b is block:
                            phi.incoming_blocks[i] = pred
            fn.remove_block(block)
            all_preds = fn.predecessor_map()  # the CFG just changed
            changed = True
        return changed

    @staticmethod
    def _forward_empty_blocks(fn: Function) -> bool:
        """Rewrite jumps through blocks containing only ``br label %next``."""
        changed = False
        all_preds = fn.predecessor_map()
        for block in list(fn.blocks):
            if block is fn.entry or len(block.instructions) != 1:
                continue
            term = block.terminator
            if not isinstance(term, Branch):
                continue
            target = term.target
            if target is block:
                continue
            # Phi nodes in the target distinguish predecessors; forwarding a
            # predecessor through `block` must keep the phi consistent, which
            # is only easy when the target has no phis involving `block`.
            if any(block in phi.incoming_blocks for phi in target.phis()):
                continue
            preds = all_preds[block]
            if not preds:
                continue
            retargeted = False
            for pred in preds:
                pterm = pred.terminator
                assert pterm is not None
                if isinstance(pterm, (Branch, CondBranch)):
                    # If pred already branches to target, retargeting would
                    # create a duplicate edge that phis cannot represent.
                    if target in pterm.successors:
                        continue
                    pterm.replace_successor(block, target)
                    # (target had no phi edges from block, checked above:
                    # nothing to fix there)
                    retargeted = changed = True
            if not retargeted:
                continue
            all_preds = fn.predecessor_map()  # the CFG just changed
            if not all_preds[block]:
                term.drop_operands()
                block.remove(term)
                fn.remove_block(block)
                all_preds = fn.predecessor_map()
        return changed
