"""Tests for basic blocks, functions, modules, the builder, dominators and
the verifier."""

import pytest

from repro.errors import IRError, VerifierError
from repro.frontend import compile_source
from repro.irpasses import optimize_module
from repro.workloads import get_workload, workload_names
from repro.ir import (
    Branch,
    ConstantInt,
    DominatorTree,
    F64,
    FunctionType,
    I64,
    IRBuilder,
    Module,
    Ret,
    VOID,
    clone_module,
    format_function,
    format_module,
    verify_function,
    verify_module,
)


def build_loop_function():
    """Module with a factorial-style loop (entry -> loop -> exit)."""
    m = Module("m")
    fn = m.add_function("loop", FunctionType(I64, [I64]), ["n"])
    entry = fn.add_block("entry")
    loop = fn.add_block("loop")
    exit_ = fn.add_block("exit")
    b = IRBuilder(entry)
    b.br(loop)
    b.set_block(loop)
    i = b.phi(I64, "i")
    acc = b.phi(I64, "acc")
    newacc = b.binop("mul", acc, i)
    newi = b.binop("add", i, ConstantInt(1))
    cond = b.icmp("sle", newi, fn.args[0])
    b.cond_br(cond, loop, exit_)
    i.add_incoming(ConstantInt(1), entry)
    i.add_incoming(newi, loop)
    acc.add_incoming(ConstantInt(1), entry)
    acc.add_incoming(newacc, loop)
    b.set_block(exit_)
    b.ret(newacc)
    return m, fn


class TestBasicBlock:
    def test_terminator_detection(self):
        m = Module()
        fn = m.add_function("f", FunctionType(VOID, []))
        bb = fn.add_block("entry")
        assert bb.terminator is None
        bb.append(Ret())
        assert bb.is_terminated

    def test_append_after_terminator_fails(self):
        m = Module()
        fn = m.add_function("f", FunctionType(VOID, []))
        bb = fn.add_block("entry")
        bb.append(Ret())
        with pytest.raises(IRError):
            bb.append(Ret())

    def test_successors_predecessors(self):
        m, fn = build_loop_function()
        entry, loop, exit_ = fn.blocks
        assert entry.successors() == [loop]
        assert set(b.name for b in loop.predecessors()) == {"entry", "loop"}
        assert exit_.predecessors() == [loop]

    def test_phis_are_prefix(self):
        m, fn = build_loop_function()
        loop = fn.get_block("loop")
        assert len(loop.phis()) == 2


class TestFunctionModule:
    def test_duplicate_function(self):
        m = Module()
        m.add_function("f", FunctionType(VOID, []))
        with pytest.raises(IRError):
            m.add_function("f", FunctionType(VOID, []))

    def test_declare_idempotent(self):
        m = Module()
        a = m.declare_function("sqrt", FunctionType(F64, [F64]))
        b = m.declare_function("sqrt", FunctionType(F64, [F64]))
        assert a is b

    def test_declare_conflicting_type(self):
        m = Module()
        m.declare_function("f", FunctionType(F64, [F64]))
        with pytest.raises(IRError):
            m.declare_function("f", FunctionType(I64, [I64]))

    def test_globals(self):
        m = Module()
        g = m.add_global("g", F64, 1.5)
        assert m.get_global("g") is g
        with pytest.raises(IRError):
            m.add_global("g", F64)
        with pytest.raises(IRError):
            m.get_global("missing")

    def test_declaration_vs_definition(self):
        m, fn = build_loop_function()
        assert not fn.is_declaration
        decl = m.declare_function("ext", FunctionType(VOID, []))
        assert decl.is_declaration
        assert m.defined_functions() == [fn]

    def test_arg_name_mismatch(self):
        m = Module()
        with pytest.raises(IRError):
            m.add_function("f", FunctionType(VOID, [I64]), ["a", "b"])

    def test_fresh_names_unique(self):
        m, fn = build_loop_function()
        names = {fn.next_name("x") for _ in range(100)}
        assert len(names) == 100


class TestDominators:
    def test_loop_dominance(self):
        m, fn = build_loop_function()
        entry, loop, exit_ = fn.blocks
        dt = DominatorTree(fn)
        assert dt.dominates(entry, loop)
        assert dt.dominates(entry, exit_)
        assert dt.dominates(loop, exit_)
        assert not dt.dominates(exit_, loop)
        assert dt.dominates(entry, entry)
        assert not dt.strictly_dominates(loop, loop)

    def test_idom(self):
        m, fn = build_loop_function()
        entry, loop, exit_ = fn.blocks
        dt = DominatorTree(fn)
        assert dt.idom[loop] is entry
        assert dt.idom[exit_] is loop

    def test_diamond_frontiers(self):
        m = Module()
        fn = m.add_function("d", FunctionType(I64, [I64]))
        entry = fn.add_block("entry")
        left = fn.add_block("left")
        right = fn.add_block("right")
        merge = fn.add_block("merge")
        b = IRBuilder(entry)
        cond = b.icmp("eq", fn.args[0], ConstantInt(0))
        b.cond_br(cond, left, right)
        b.set_block(left)
        b.br(merge)
        b.set_block(right)
        b.br(merge)
        b.set_block(merge)
        b.ret(ConstantInt(0))
        dt = DominatorTree(fn)
        assert dt.frontiers[left] == {merge}
        assert dt.frontiers[right] == {merge}
        assert dt.idom[merge] is entry

    def test_unreachable_block(self):
        m, fn = build_loop_function()
        dead = fn.add_block("dead")
        dead.append(Branch(fn.get_block("exit")))
        dt = DominatorTree(fn)
        assert not dt.reachable(dead)


class TestPredecessorMap:
    """One pass over a function must answer what ``predecessors()``
    answers block by block — same blocks, same order — or the dominator
    tree, and with it the compiled binaries, would change."""

    def check(self, fn):
        dt = DominatorTree(fn)
        all_preds = fn.predecessor_map()
        assert list(all_preds) == fn.blocks
        for block in fn.blocks:
            scanned = block.predecessors()
            assert all_preds[block] == scanned
            if dt.reachable(block):
                assert dt.preds[block] == [
                    p for p in scanned if dt.reachable(p)
                ]
        assert set(dt.preds) == set(dt.rpo)

    def test_duplicate_edge_counts_once(self):
        m = Module()
        fn = m.add_function("f", FunctionType(I64, [I64]))
        entry, target = fn.add_block("entry"), fn.add_block("target")
        b = IRBuilder(entry)
        b.cond_br(b.icmp("eq", fn.args[0], ConstantInt(0)), target, target)
        b.set_block(target)
        b.ret(ConstantInt(0))
        assert fn.predecessor_map() == {entry: [], target: [entry]}
        self.check(fn)

    def test_unreachable_predecessor_is_filtered(self):
        m, fn = build_loop_function()
        dead = fn.add_block("dead")
        dead.append(Branch(fn.get_block("exit")))
        self.check(fn)
        exit_ = fn.get_block("exit")
        assert dead in fn.predecessor_map()[exit_]
        assert dead not in DominatorTree(fn).preds[exit_]

    @pytest.mark.parametrize("name", workload_names())
    def test_every_function_of_every_workload(self, name):
        module = compile_source(get_workload(name).source, name)
        for optimized in (False, True):
            if optimized:
                optimize_module(module, "O2")
            functions = module.defined_functions()
            assert functions
            for fn in functions:
                self.check(fn)


class TestCloneModule:
    """A structural copy: prints the same, shares no mutable object, keeps
    every use list in order — what is compiled from it is what would have
    been compiled from the original."""

    @pytest.mark.parametrize("name", workload_names())
    def test_copy_of_every_workload(self, name):
        module = compile_source(get_workload(name).source, name)
        for optimized in (False, True):
            if optimized:
                optimize_module(module, "O2")
            text = format_module(module)
            clone = clone_module(module)
            verify_module(clone)
            assert clone.name == module.name
            assert format_module(clone) == text
            self.check_wiring(module, clone)
            # the copy is the copy's to wreck
            optimize_module(clone, "O2")
            for fn in clone.defined_functions():
                del fn.blocks[1:]
            clone.globals.clear()
            assert format_module(module) == text
            verify_module(module)

    @staticmethod
    def check_wiring(module, clone):
        theirs = {
            id(v) for fn in module.functions.values()
            for v in [fn, *fn.args, *fn.blocks, *fn.instructions()]
        } | {id(g) for g in module.globals.values()}
        for fn, new_fn in zip(module.functions.values(), clone.functions.values()):
            assert new_fn.module is clone and id(new_fn) not in theirs
            assert new_fn._name_counter == fn._name_counter
            for block, new_block in zip(fn.blocks, new_fn.blocks):
                assert new_block.parent is new_fn
                for old, new in zip(block.instructions, new_block.instructions):
                    assert type(new) is type(old) and new.parent is new_block
                    assert [u.name for u in new.users] == [u.name for u in old.users]
                    for value in (new, *new.operands, *new.users,
                                  *getattr(new, "successors", ()),
                                  *getattr(new, "incoming_blocks", ())):
                        assert id(value) not in theirs
                    for op in new.operands:
                        assert new in op.users
                    if new.opcode == "call":
                        assert new.callee is clone.functions[old.callee.name]

    def test_foreign_operand_is_refused(self):
        m, fn = build_loop_function()
        other, other_fn = build_loop_function()
        stray = other_fn.get_block("loop").instructions[0]
        fn.get_block("exit").instructions[-1].operands[0] = stray
        with pytest.raises(IRError, match="not defined in it"):
            clone_module(m)


class TestVerifier:
    def test_valid_function_passes(self):
        m, fn = build_loop_function()
        verify_module(m)

    def test_missing_terminator(self):
        m = Module()
        fn = m.add_function("f", FunctionType(VOID, []))
        fn.add_block("entry")
        with pytest.raises(VerifierError, match="terminator"):
            verify_function(fn)

    def test_ret_type_mismatch(self):
        m = Module()
        fn = m.add_function("f", FunctionType(I64, []))
        b = IRBuilder(fn.add_block("entry"))
        b.ret()  # missing value
        with pytest.raises(VerifierError, match="ret"):
            verify_function(fn)

    def test_phi_incoming_mismatch(self):
        m, fn = build_loop_function()
        loop = fn.get_block("loop")
        phi = loop.phis()[0]
        phi.remove_incoming(fn.get_block("entry"))
        with pytest.raises(VerifierError, match="phi"):
            verify_function(fn)

    def test_use_before_def_in_block(self):
        m = Module()
        fn = m.add_function("f", FunctionType(I64, []))
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        x = b.binop("add", ConstantInt(1), ConstantInt(2))
        y = b.binop("add", x, ConstantInt(3))
        b.ret(y)
        # Swap x after y: now y uses x before its definition.
        entry.instructions[0], entry.instructions[1] = (
            entry.instructions[1],
            entry.instructions[0],
        )
        with pytest.raises(VerifierError, match="before its definition"):
            verify_function(fn)

    def test_cross_block_dominance_violation(self):
        m = Module()
        fn = m.add_function("f", FunctionType(I64, [I64]))
        entry = fn.add_block("entry")
        left = fn.add_block("left")
        right = fn.add_block("right")
        b = IRBuilder(entry)
        cond = b.icmp("eq", fn.args[0], ConstantInt(0))
        b.cond_br(cond, left, right)
        b.set_block(left)
        x = b.binop("add", fn.args[0], ConstantInt(1))
        b.ret(x)
        b.set_block(right)
        b.ret(x)  # x does not dominate right
        with pytest.raises(VerifierError, match="not dominated"):
            verify_function(fn)

    def test_duplicate_block_names(self):
        m = Module()
        fn = m.add_function("f", FunctionType(VOID, []))
        b1 = fn.add_block("bb")
        b1.append(Ret())
        b2 = fn.add_block("bb")
        b2.append(Ret())
        with pytest.raises(VerifierError, match="duplicate"):
            verify_function(fn)


class TestPrinter:
    def test_function_format_stable(self):
        m, fn = build_loop_function()
        text = format_function(fn)
        assert "define i64 @loop(i64 %n)" in text
        assert "phi i64" in text
        assert "br i1" in text
        assert "ret i64" in text

    def test_module_format_includes_globals(self):
        m, fn = build_loop_function()
        m.add_global("gv", F64, 2.5)
        text = format_module(m)
        assert "@gv = global f64 2.5" in text

    def test_declaration_format(self):
        m = Module()
        m.declare_function("sqrt", FunctionType(F64, [F64]))
        assert "declare f64 @sqrt" in format_module(m)
