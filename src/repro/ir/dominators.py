"""Dominator tree and dominance frontiers.

Implements the Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast
Dominance Algorithm").  Used by the SSA construction pass (mem2reg) and the
verifier's dominance checks.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function


class DominatorTree:
    """Immediate-dominator tree plus dominance frontiers for a function."""

    def __init__(self, fn: Function) -> None:
        if fn.is_declaration:
            raise IRError(f"cannot compute dominators of declaration @{fn.name}")
        self.function = fn
        self.rpo = self._reverse_postorder(fn)
        self._index = {b: i for i, b in enumerate(self.rpo)}
        all_preds = fn.predecessor_map()
        #: reachable block -> its reachable predecessors, in function order
        self.preds: dict[BasicBlock, list[BasicBlock]] = {
            b: [p for p in all_preds[b] if p in self._index] for b in self.rpo
        }
        self.idom: dict[BasicBlock, BasicBlock | None] = {}
        self._compute_idoms()
        self.frontiers = self._compute_frontiers()
        self.children: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in self.rpo}
        for block, parent in self.idom.items():
            if parent is not None and parent is not block:
                self.children[parent].append(block)

    # -- construction ------------------------------------------------------

    @staticmethod
    def _reverse_postorder(fn: Function) -> list[BasicBlock]:
        seen: set[int] = set()
        order: list[BasicBlock] = []

        # Iterative DFS with an explicit stack (functions can be deep).
        stack: list[tuple[BasicBlock, int]] = [(fn.entry, 0)]
        seen.add(id(fn.entry))
        while stack:
            block, child_idx = stack[-1]
            succs = block.successors()
            if child_idx < len(succs):
                stack[-1] = (block, child_idx + 1)
                succ = succs[child_idx]
                if id(succ) not in seen:
                    seen.add(id(succ))
                    stack.append((succ, 0))
            else:
                order.append(block)
                stack.pop()
        order.reverse()
        return order

    def _compute_idoms(self) -> None:
        entry = self.rpo[0]
        idom: dict[BasicBlock, BasicBlock | None] = {b: None for b in self.rpo}
        idom[entry] = entry
        index = self._index

        def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
            while a is not b:
                while index[a] > index[b]:
                    a = idom[a]  # type: ignore[assignment]
                while index[b] > index[a]:
                    b = idom[b]  # type: ignore[assignment]
            return a

        preds = self.preds
        changed = True
        while changed:
            changed = False
            for block in self.rpo[1:]:
                candidates = [p for p in preds[block] if idom[p] is not None]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for p in candidates[1:]:
                    new_idom = intersect(p, new_idom)
                if idom[block] is not new_idom:
                    idom[block] = new_idom
                    changed = True
        self.idom = idom

    def _compute_frontiers(self) -> dict[BasicBlock, set[BasicBlock]]:
        frontiers: dict[BasicBlock, set[BasicBlock]] = {b: set() for b in self.rpo}
        for block in self.rpo:
            preds = self.preds[block]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner = pred
                while runner is not self.idom[block]:
                    frontiers[runner].add(block)
                    runner = self.idom[runner]  # type: ignore[assignment]
                    if runner is None:  # pragma: no cover - defensive
                        break
        return frontiers

    # -- queries ------------------------------------------------------------

    def reachable(self, block: BasicBlock) -> bool:
        return block in self._index

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if every path from entry to ``b`` passes through ``a``."""
        if not (self.reachable(a) and self.reachable(b)):
            return False
        runner: BasicBlock | None = b
        entry = self.rpo[0]
        while True:
            if runner is a:
                return True
            if runner is entry:
                return False
            runner = self.idom[runner]  # type: ignore[index]
            if runner is None:  # pragma: no cover - defensive
                return False

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)
