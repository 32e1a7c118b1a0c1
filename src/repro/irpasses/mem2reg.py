"""SSA construction: promote scalar allocas to registers (mem2reg).

Classic Cytron-style algorithm: place phi nodes at the iterated dominance
frontier of every store, then rename along the dominator tree.  Only allocas
of scalar type whose address never escapes (used solely by direct loads and
stores) are promotable — arrays and address-taken slots stay in memory,
exactly like LLVM.
"""

from __future__ import annotations

from repro.ir.basicblock import BasicBlock
from repro.ir.dominators import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import Alloca, Load, Phi, Store
from repro.ir.values import ConstantFloat, ConstantInt, Value
from repro.irpasses.base import FunctionPass


def _promotable_allocas(fn: Function) -> list[Alloca]:
    result = []
    for instr in fn.instructions():
        if not isinstance(instr, Alloca):
            continue
        if not instr.allocated_type.is_scalar():
            continue
        ok = True
        for user in instr.users:
            if isinstance(user, Load):
                continue
            if isinstance(user, Store) and user.ptr is instr and user.value is not instr:
                continue
            ok = False
            break
        if ok:
            result.append(instr)
    return result


def _default_value(alloca: Alloca) -> Value:
    """Value of a promoted slot before any store (load-before-store reads 0)."""
    ty = alloca.allocated_type
    if ty.is_float():
        return ConstantFloat(0.0)
    if ty.is_pointer():
        # A never-initialized pointer slot: model as integer zero is not
        # type-correct, so synthesize a null-like constant via ConstantInt is
        # impossible; instead keep such allocas unpromoted.
        raise _Unpromotable()
    return ConstantInt(0, ty)


class _Unpromotable(Exception):
    pass


class PromoteMemToReg(FunctionPass):
    """The mem2reg pass."""

    name = "mem2reg"

    def run(self, fn: Function) -> bool:
        allocas = _promotable_allocas(fn)
        if not allocas:
            return False
        dt = DominatorTree(fn)
        all_preds = fn.predecessor_map()  # (promotion leaves the CFG alone)
        changed = False
        for alloca in allocas:
            try:
                self._promote(fn, dt, all_preds, alloca)
                changed = True
            except _Unpromotable:
                continue
        return changed

    def _promote(self, fn: Function, dt: DominatorTree, all_preds: dict, alloca: Alloca) -> None:
        loads = [u for u in alloca.users if isinstance(u, Load)]
        stores = [u for u in alloca.users if isinstance(u, Store)]

        # Fast path: no stores at all -> every load reads the default value.
        if not stores:
            default = _default_value(alloca)
            for ld in loads:
                ld.replace_all_uses_with(default)
                ld.erase()
            alloca.erase()
            return

        # Fast path: a single store that dominates every load.
        if len(stores) == 1:
            st = stores[0]
            st_block = st.parent
            assert st_block is not None
            st_idx = st_block.instructions.index(st)
            if all(
                self._dominates_use(dt, st_block, st_idx, ld) for ld in loads
            ):
                value = st.value
                for ld in loads:
                    ld.replace_all_uses_with(value)
                    ld.erase()
                st.erase()
                alloca.erase()
                return

        # General case: phi placement at iterated dominance frontiers.
        def_blocks = {st.parent for st in stores if st.parent is not None}
        phi_blocks: set[BasicBlock] = set()
        work = list(def_blocks)
        while work:
            block = work.pop()
            if not dt.reachable(block):
                continue
            for frontier in dt.frontiers.get(block, ()):
                if frontier not in phi_blocks:
                    phi_blocks.add(frontier)
                    work.append(frontier)

        phis: dict[BasicBlock, Phi] = {}
        for block in phi_blocks:
            phi = Phi(alloca.allocated_type)
            phi.name = fn.next_name(alloca.name or "mem")
            block.insert(len(block.phis()), phi)
            phi.parent = block
            phis[block] = phi

        default = _default_value(alloca)

        # Renaming walk over the dominator tree (iterative: dominator trees
        # of deep loop nests would overflow Python's recursion limit).
        work2: list[tuple[BasicBlock, Value]] = [(fn.entry, default)]
        while work2:
            block, incoming = work2.pop()
            current = incoming
            if block in phis:
                current = phis[block]
            for instr in list(block.instructions):
                if isinstance(instr, Load) and instr.ptr is alloca:
                    instr.replace_all_uses_with(current)
                    instr.erase()
                elif isinstance(instr, Store) and instr.ptr is alloca:
                    current = instr.value
                    instr.erase()
            for succ in block.successors():
                if succ in phis:
                    phis[succ].add_incoming(current, block)
            for child in dt.children.get(block, ()):
                work2.append((child, current))

        # Phi nodes in unreachable-from-stores paths may have missing incoming
        # edges if a predecessor is unreachable; the verifier requires exact
        # correspondence, so fill any gaps with the default value.
        for block, phi in phis.items():
            have = {id(b) for b in phi.incoming_blocks}
            for pred in all_preds[block]:
                if id(pred) not in have:
                    phi.add_incoming(default, pred)

        # The renaming walk only visits the dominator tree, so accesses in
        # unreachable blocks survive it; rewrite them here (a load from a
        # slot that no reachable store reaches sees the default value) or
        # erasing the alloca below would fail on the leftover uses.
        for user in list(alloca.users):
            if user.parent is not None and not dt.reachable(user.parent):
                if isinstance(user, Load):
                    user.replace_all_uses_with(default)
                user.erase()

        # Dead phis (no loads reached them) are left for DCE to clean up.
        alloca.erase()

    @staticmethod
    def _dominates_use(
        dt: DominatorTree, st_block: BasicBlock, st_idx: int, load: Load
    ) -> bool:
        ld_block = load.parent
        assert ld_block is not None
        if ld_block is st_block:
            return ld_block.instructions.index(load) > st_idx
        return dt.strictly_dominates(st_block, ld_block) or (
            dt.dominates(st_block, ld_block) and st_block is not ld_block
        )
