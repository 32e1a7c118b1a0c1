"""Loop-invariant code motion.

Finds natural loops via back edges in the dominator tree, ensures each loop
has a preheader, and hoists pure instructions whose operands are defined
outside the loop.  Division is not hoisted unless provably non-trapping
(constant non-zero divisor) because hoisting could introduce a trap on an
iteration-count-zero path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.basicblock import BasicBlock
from repro.ir.dominators import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import (
    BinaryOp,
    Branch,
    Cast,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Phi,
    Select,
)
from repro.ir.values import ConstantInt
from repro.irpasses.base import FunctionPass

_HOISTABLE = (BinaryOp, ICmp, FCmp, Cast, GetElementPtr, Select)


@dataclass
class NaturalLoop:
    """A natural loop: header plus body blocks (header included)."""

    header: BasicBlock
    blocks: set = field(default_factory=set)
    latches: list = field(default_factory=list)


def find_loops(fn: Function, dt: DominatorTree | None = None) -> list[NaturalLoop]:
    """Discover natural loops from back edges (``latch -> header`` where the
    header dominates the latch)."""
    dt = dt or DominatorTree(fn)
    loops: dict[int, NaturalLoop] = {}
    for block in fn.blocks:
        if not dt.reachable(block):
            continue
        for succ in block.successors():
            if dt.dominates(succ, block):
                loop = loops.get(id(succ))
                if loop is None:
                    loop = NaturalLoop(header=succ, blocks={id(succ)})
                    loops[id(succ)] = loop
                loop.latches.append(block)
                # Walk predecessors from the latch up to the header.
                work = [block]
                while work:
                    b = work.pop()
                    if id(b) in loop.blocks:
                        continue
                    loop.blocks.add(id(b))
                    work.extend(dt.preds[b])
    return list(loops.values())


class LoopInvariantCodeMotion(FunctionPass):
    """Hoist loop-invariant pure instructions to loop preheaders."""

    name = "licm"

    def run(self, fn: Function) -> bool:
        dt = DominatorTree(fn)
        loops = find_loops(fn, dt)
        if not loops:
            return False
        changed = False
        all_preds = fn.predecessor_map()
        for loop in loops:
            preheader = self._get_or_create_preheader(fn, loop, all_preds[loop.header])
            if preheader is None:
                continue
            if preheader not in all_preds:  # a new block: the snapshot is stale
                all_preds = fn.predecessor_map()
            if self._hoist(fn, loop, preheader):
                changed = True
        return changed

    # -- preheader ----------------------------------------------------------

    @staticmethod
    def _get_or_create_preheader(
        fn: Function, loop: NaturalLoop, header_preds: list[BasicBlock]
    ) -> BasicBlock | None:
        header = loop.header
        outside_preds = [p for p in header_preds if id(p) not in loop.blocks]
        if not outside_preds:
            return None
        if len(outside_preds) == 1:
            pred = outside_preds[0]
            term = pred.terminator
            if isinstance(term, Branch):
                return pred  # already a dedicated preheader
        # Create a fresh preheader and route all outside edges through it.
        pre = fn.add_block(fn.next_name("preheader"), before=header)
        pre.append(Branch(header))
        for pred in outside_preds:
            term = pred.terminator
            assert term is not None
            term.replace_successor(header, pre)  # type: ignore[attr-defined]
        # Split header phis: incoming values from outside move to a new phi
        # in the preheader (or a single direct value when one outside pred).
        for phi in header.phis():
            outside_pairs = [
                (v, b) for v, b in phi.incoming() if id(b) not in loop.blocks
            ]
            if not outside_pairs:
                continue
            if len(outside_pairs) == 1:
                value, block = outside_pairs[0]
                phi.remove_incoming(block)
                phi.add_incoming(value, pre)
            else:
                merged = Phi(phi.type)
                merged.name = fn.next_name("pre")
                pre.insert(len(pre.phis()), merged)
                merged.parent = pre
                for value, block in outside_pairs:
                    phi.remove_incoming(block)
                    merged.add_incoming(value, block)
                phi.add_incoming(merged, pre)
        return pre

    # -- hoisting ------------------------------------------------------------

    def _hoist(self, fn: Function, loop: NaturalLoop, preheader: BasicBlock) -> bool:
        loop_instrs: set[int] = set()
        blocks = [b for b in fn.blocks if id(b) in loop.blocks]
        for block in blocks:
            for instr in block.instructions:
                loop_instrs.add(id(instr))

        changed = False
        progress = True
        while progress:
            progress = False
            for block in blocks:
                for instr in list(block.instructions):
                    if id(instr) not in loop_instrs:
                        continue
                    if not isinstance(instr, _HOISTABLE):
                        continue
                    if not self._is_invariant(instr, loop_instrs):
                        continue
                    if not self._safe_to_speculate(instr):
                        continue
                    block.remove(instr)
                    preheader.insert_before_terminator(instr)
                    loop_instrs.discard(id(instr))
                    progress = True
                    changed = True
        return changed

    @staticmethod
    def _is_invariant(instr: Instruction, loop_instrs: set[int]) -> bool:
        return all(
            not isinstance(op, Instruction) or id(op) not in loop_instrs
            for op in instr.operands
        )

    @staticmethod
    def _safe_to_speculate(instr: Instruction) -> bool:
        if instr.opcode in ("sdiv", "srem"):
            divisor = instr.operands[1]
            return isinstance(divisor, ConstantInt) and divisor.value != 0
        return True
