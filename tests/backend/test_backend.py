"""Backend unit tests: prepare, isel, MIR invariants, peephole, frame."""

import pytest

from repro.backend import (
    Binary,
    Imm,
    MachineInstr,
    PReg,
    compile_minic,
    format_function,
    prepare_function,
)
from repro.backend.compiler import CompileOptions
from repro.backend.mir import FuncRef, Label, Mem, OPCODES, VReg
from repro.backend.target import (
    CALLEE_SAVED_GPR,
    CF,
    OF,
    SF,
    ZF,
)
from repro.errors import BackendError, LinkError
from repro.frontend import compile_source
from repro.ir import verify_function
from repro.irpasses import optimize_module
from repro.machine.semantics import CONDITION_CODES, CONDITIONS


def condition_holds(cc: str, flags: int) -> bool:
    """Whether ``cc`` holds over ``flags``: the test the VM renders for the
    code's id (an unknown code has none: ``ValueError``)."""
    test = CONDITIONS[CONDITION_CODES.index(cc)].format(flags="flags")
    return bool(eval(test, {"flags": flags}))


def compile_to_mir(source: str, fn_name: str = "main", opt: str = "O2"):
    """Run the full backend pipeline and return one finished function."""
    options = CompileOptions(opt_level=opt)
    binary = compile_minic(source, "test", options)
    return binary.functions[fn_name]


class TestPrepare:
    def test_critical_edges_split(self):
        src = """
        int main() {
          int s = 0;
          for (int i = 0; i < 4; i = i + 1) {
            if (i % 2 == 0 && i > 0) { s = s + i; }
          }
          return s;
        }
        """
        module = compile_source(src)
        optimize_module(module, "O2")
        fn = module.get_function("main")
        prepare_function(fn)
        verify_function(fn)
        for block in fn.blocks:
            if not block.phis():
                continue
            for pred in block.predecessors():
                assert len(pred.successors()) == 1, (
                    f"critical edge {pred.name} -> {block.name} not split"
                )

    def test_select_lowered_to_diamond(self):
        from repro.ir import (
            ConstantInt,
            FunctionType,
            I64,
            IRBuilder,
            Module,
        )

        m = Module()
        fn = m.add_function("f", FunctionType(I64, [I64]))
        b = IRBuilder(fn.add_block("entry"))
        cond = b.icmp("sgt", fn.args[0], ConstantInt(0))
        sel = b.select(cond, ConstantInt(1), ConstantInt(-1))
        b.ret(sel)
        prepare_function(fn)
        verify_function(fn)
        assert not any(i.opcode == "select" for i in fn.instructions())
        assert any(i.opcode == "phi" for i in fn.instructions())


class TestMIR:
    def test_opcode_table_complete(self):
        # Every opcode used by isel must be in the semantics table.
        mf = compile_to_mir("int main() { print_double(sqrt(2.0)); return 0; }")
        for instr in mf.instructions():
            assert instr.opcode in OPCODES or instr.opcode in (
                "pargs", "pcall", "pret",
            )

    def test_unknown_opcode_rejected(self):
        with pytest.raises(BackendError):
            MachineInstr("bogus", [])

    def test_two_address_defs_uses(self):
        instr = MachineInstr("add", [VReg(1, "g"), VReg(2, "g")])
        assert instr.reg_defs() == [VReg(1, "g")]
        assert set(instr.reg_uses()) == {VReg(1, "g"), VReg(2, "g")}

    def test_mem_base_is_use(self):
        instr = MachineInstr(
            "load", [VReg(1, "g"), Mem(base=VReg(2, "g"), disp=8)]
        )
        assert VReg(2, "g") in instr.reg_uses()

    def test_store_has_no_defs(self):
        instr = MachineInstr(
            "store", [Mem(base=VReg(1, "g")), VReg(2, "g")]
        )
        assert instr.reg_defs() == []

    def test_output_registers_include_flags(self):
        instr = MachineInstr("add", [PReg("rax"), Imm(1)])
        assert set(instr.output_registers()) == {"rax", "flags"}

    def test_cmp_outputs_only_flags(self):
        instr = MachineInstr("cmp", [PReg("rax"), Imm(0)])
        assert instr.output_registers() == ["flags"]
        assert instr.is_fi_candidate

    def test_push_outputs_rsp(self):
        instr = MachineInstr("push", [PReg("rbp")])
        assert "rsp" in instr.output_registers()
        assert instr.is_fi_candidate

    def test_control_flow_not_candidates(self):
        assert not MachineInstr("jmp", [Label("x")]).is_fi_candidate
        assert not MachineInstr("ret", []).is_fi_candidate
        assert not MachineInstr("call", [FuncRef("f")]).is_fi_candidate

    def test_float_ops_no_flags(self):
        instr = MachineInstr("fadd", [PReg("xmm0"), PReg("xmm1")])
        assert instr.output_registers() == ["xmm0"]


class TestConditionCodes:
    @pytest.mark.parametrize(
        "cc,flags,expected",
        [
            ("e", ZF, True),
            ("e", 0, False),
            ("ne", 0, True),
            ("l", SF, True),
            ("l", SF | OF, False),
            ("le", ZF, True),
            ("g", 0, True),
            ("g", ZF, False),
            ("ge", SF | OF, True),
            ("b", CF, True),
            ("a", 0, True),
            ("a", CF, False),
            ("a", ZF, False),
            ("ae", 0, True),
            ("be", ZF, True),
        ],
    )
    def test_condition_holds(self, cc, flags, expected):
        assert condition_holds(cc, flags) is expected

    def test_unknown_cc(self):
        with pytest.raises(ValueError):
            condition_holds("xx", 0)


class TestGeneratedCode:
    def test_prologue_epilogue_present(self):
        mf = compile_to_mir("int main() { return 3; }")
        text = format_function(mf)
        assert "push rbp" in text
        assert "mov rbp, rsp" in text
        assert "pop rbp" in text
        assert text.rstrip().endswith("ret")

    def test_frame_allocated_for_arrays(self):
        mf = compile_to_mir(
            "int main() { double a[10]; a[0] = 1.0; return (int)a[0]; }"
        )
        assert mf.frame.frame_size >= 80

    def test_callee_saved_pushed_when_used(self):
        # A value live across a call must live in a callee-saved register
        # (or be spilled); if a callee-saved reg is used it must be saved.
        src = """
        double f(double x) { return x + 1.0; }
        int main() {
          int a = 5;
          print_double(f(1.0));
          print_int(a);
          return 0;
        }
        """
        mf = compile_to_mir(src)
        text = format_function(mf)
        used_saved = [r for r in CALLEE_SAVED_GPR if f"push {r}" in text]
        pops = [r for r in CALLEE_SAVED_GPR if f"pop {r}" in text]
        assert used_saved == pops

    def test_no_virtual_registers_remain(self):
        mf = compile_to_mir("int main() { print_int(1 + 2); return 0; }")
        for instr in mf.instructions():
            for op in instr.operands:
                assert not isinstance(op, VReg), f"vreg left in {instr}"
                if isinstance(op, Mem):
                    assert not isinstance(op.base, VReg)
                    assert op.frame_slot is None, f"frame slot left in {instr}"

    def test_no_pseudo_instructions_remain(self):
        mf = compile_to_mir("int f(int x) { return x; } int main() { return f(1); }", "f")
        for instr in mf.instructions():
            assert instr.opcode not in ("pargs", "pcall", "pret")

    def test_self_moves_removed(self):
        mf = compile_to_mir("int main() { return 1; }")
        for instr in mf.instructions():
            if instr.opcode in ("mov", "fmov"):
                dst, src = instr.operands
                if isinstance(dst, PReg) and isinstance(src, PReg):
                    assert dst.name != src.name

    def test_mov_zero_becomes_xor(self):
        mf = compile_to_mir(
            "int main() { int s = 0; for (int i = 0; i < 3; i = i + 1) { s = s + i; } return s; }"
        )
        text = format_function(mf)
        assert "xor" in text


class TestRegisterPressure:
    def test_spills_under_pressure(self):
        # 14 simultaneously-live non-constant float values exceed the 8 FP
        # registers (reading from a global defeats constant folding).
        decls = "\n".join(f"double v{i} = src[{i}];" for i in range(14))
        pairs = " + ".join(f"v{i} * v{(i + 1) % 14}" for i in range(14))
        src = f"""
        double src[14];
        int main() {{
          for (int i = 0; i < 14; i = i + 1) {{ src[i] = (double)i + 0.5; }}
          {decls}
          print_double({pairs});
          return 0;
        }}
        """
        binary = compile_minic(src, "pressure", CompileOptions())
        stats = binary.meta["stats"]
        assert stats.spilled_vregs > 0

    def test_spilled_code_still_correct(self):
        decls = "\n".join(f"double v{i} = {i}.5;" for i in range(14))
        uses = " + ".join(f"v{i}" for i in range(14))
        src = f"""
        int main() {{
          {decls}
          print_double({uses});
          return 0;
        }}
        """
        from tests.conftest import run_minic

        expected = sum(i + 0.5 for i in range(14))
        result = run_minic(src, "O2")
        assert result.output == [f"{expected:.6e}"]


class TestBinary:
    def test_validate_missing_entry(self):
        binary = Binary("x")
        with pytest.raises(LinkError):
            binary.validate()

    def test_validate_undefined_call(self):
        binary = compile_minic("int main() { return 0; }", "t")
        mf = binary.functions["main"]
        mf.blocks[0].instructions.insert(
            0, MachineInstr("call", [FuncRef("ghost")])
        )
        with pytest.raises(LinkError, match="ghost"):
            binary.validate()

    def test_total_instructions(self):
        binary = compile_minic("int main() { return 0; }", "t")
        assert binary.total_instructions() >= 4  # prologue + ret at least

    def test_compile_stats_recorded(self):
        binary = compile_minic("int main() { return 0; }", "t")
        stats = binary.meta["stats"]
        assert stats.machine_instructions == binary.total_instructions()
        assert stats.ir_instructions > 0
