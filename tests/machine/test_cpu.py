"""CPU interpreter tests: arithmetic semantics, FLAGS, traps, memory."""


import pytest

from repro.backend import compile_minic
from repro.backend.compiler import CompileOptions
from repro.machine import CPU, load_binary

from tests.conftest import run_minic


def program_for(source: str, opt: str = "O2"):
    return load_binary(compile_minic(source, "t", CompileOptions(opt_level=opt)))


class TestArithmeticSemantics:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("9223372036854775807 + 1", "-9223372036854775808"),
            ("-9223372036854775807 - 2", "9223372036854775807"),
            ("3037000500 * 3037000500", "-9223372036709301616"),
            ("1 << 63", "-9223372036854775808"),
            ("(-1) >> 1", "-1"),
        ],
    )
    def test_wrapping(self, expr, expected):
        # Use a global to defeat constant folding: evaluation happens on
        # the simulated CPU, not in the compiler.
        src = f"""
        int one = 1;
        int main() {{ print_int(({expr}) * one); return 0; }}
        """
        assert run_minic(src).output == [expected]

    def test_runtime_wrapping_not_folded(self):
        src = """
        int big = 9223372036854775807;
        int main() { print_int(big + big); return 0; }
        """
        assert run_minic(src).output == ["-2"]

    def test_idiv_semantics_at_runtime(self):
        src = """
        int a = -17;
        int b = 5;
        int main() { print_int(a / b); print_int(a % b); return 0; }
        """
        assert run_minic(src).output == ["-3", "-2"]

    def test_shift_count_masked(self):
        # x86 masks shift counts to 6 bits.
        src = """
        int n = 65;
        int main() { print_int(1 << n); return 0; }
        """
        assert run_minic(src).output == ["2"]


class TestFloatSemantics:
    def test_nan_propagates_through_arithmetic(self):
        src = """
        double z = 0.0;
        int main() {
          double nan = z / z;
          print_double(nan + 1.0);
          return 0;
        }
        """
        assert run_minic(src).output == ["nan"]

    def test_inf_arithmetic(self):
        src = """
        double z = 0.0;
        int main() {
          double inf = 1.0 / z;
          print_double(inf);
          print_double(-1.0 / z);
          print_double(inf - inf);
          return 0;
        }
        """
        assert run_minic(src).output == ["inf", "-inf", "nan"]

    def test_nan_comparison_is_false(self):
        src = """
        double z = 0.0;
        int main() {
          double nan = z / z;
          print_int(nan < 1.0);
          print_int(nan > 1.0);
          print_int(nan == nan);
          return 0;
        }
        """
        assert run_minic(src).output == ["0", "0", "0"]

    def test_cvttsd2si_out_of_range(self):
        src = """
        double huge = 1e300;
        int main() { print_int((int)huge); return 0; }
        """
        assert run_minic(src).output == ["-9223372036854775808"]


class TestTraps:
    def test_divide_by_zero(self):
        src = "int z = 0; int main() { return 5 / z; }"
        assert run_minic(src).trap == "divide-by-zero"

    def test_rem_by_zero(self):
        src = "int z = 0; int main() { return 5 % z; }"
        assert run_minic(src).trap == "divide-by-zero"

    def test_int_min_overflow_division_traps(self):
        # x86 idiv raises #DE on INT64_MIN / -1.
        src = """
        int m = -9223372036854775807;
        int neg = -1;
        int main() { return (m - 1) / neg; }
        """
        assert run_minic(src).trap == "divide-by-zero"

    def test_wild_pointer_segfaults(self):
        src = """
        double g[4];
        int idx = 100000000;
        int main() { g[idx] = 1.0; return 0; }
        """
        assert run_minic(src).trap == "segfault"

    def test_negative_index_segfaults(self):
        src = """
        double g[4];
        int idx = -100000;
        int main() { return (int)g[idx]; }
        """
        assert run_minic(src).trap == "segfault"

    def test_null_page_guarded(self):
        src = """
        double g[4];
        int idx = 0;
        int main() {
          // index chosen to land the access inside the null guard page
          return (int)g[idx - 500];
        }
        """
        assert run_minic(src).trap == "segfault"

    def test_timeout_budget(self):
        result = run_minic("int main() { while (1) {} return 0; }", budget=5000)
        assert result.trap == "timeout"
        assert result.steps == 5000

    def test_stack_overflow(self):
        src = "int f(int n) { return f(n + 1); } int main() { return f(0); }"
        assert run_minic(src, budget=50_000_000).trap == "stack-overflow"


class TestExecutionResult:
    def test_counts_sum_to_steps(self, demo_program, demo_result):
        from repro.testing.oracles import pc_trace

        _, trace = pc_trace(CPU(demo_program), 10_000_000)
        assert len(trace) == demo_result.steps
        assert demo_result.half_cycles == sum(
            demo_program.half_cost[pc] for pc in trace)

    def test_fresh_cpu_per_run_is_deterministic(self, demo_program):
        r1 = CPU(demo_program).run()
        r2 = CPU(demo_program).run()
        assert r1.output == r2.output
        assert r1.steps == r2.steps

    def test_exit_code(self):
        assert run_minic("int main() { return 7; }").exit_code == 7

    def test_crashed_property(self):
        ok = run_minic("int main() { return 0; }")
        assert not ok.crashed
        bad = run_minic("int main() { return 1; }")
        assert bad.crashed


class TestIntrinsics:
    @pytest.mark.parametrize(
        "call,expected",
        [
            ("sqrt(-1.0)", "nan"),
            ("log(0.0)", "-inf"),
            ("log(-1.0)", "nan"),
            ("exp(1000.0)", "inf"),
            ("exp(-1000.0)", "0.000000e+00"),
            ("pow(0.0, 0.0)", "1.000000e+00"),
            ("fmod(1.0, 0.0)", "nan"),
            ("floor(-0.5)", "-1.000000e+00"),
        ],
    )
    def test_domain_edge_cases(self, call, expected):
        # Route through a global so the compiler cannot fold the call.
        src = f"""
        double x = 1.0;
        int main() {{ print_double({call} * x); return 0; }}
        """
        out = run_minic(src).output[0]
        assert out == expected

    def test_print_int_format(self):
        assert run_minic("int main() { print_int(-42); return 0; }").output == ["-42"]

    def test_print_double_fixed_precision(self):
        out = run_minic(
            "int main() { print_double(123.456789); return 0; }"
        ).output
        assert out == ["1.234568e+02"]

    def test_print_precision_masks_tiny_differences(self):
        # Values that differ below the printed precision produce identical
        # output — the benign-masking effect in the SOC classification.
        a = f"{1.00000001:.6e}"
        b = f"{1.00000002:.6e}"
        assert a == b


class TestOpcodeCorruptionTrap:
    def test_corrupt_opcode_plan_raises_illegal_instruction(self, demo_program):
        from repro.fi.models import OpcodeModel
        from repro.machine.cpu import FaultPlan

        cpu = CPU(demo_program)
        cpu.attach_pinfi(FaultPlan(5, 0.0, 0.0, "PINFI", OpcodeModel()))
        result = cpu.run(budget=10_000_000)
        assert result.trap == "illegal-instruction"
        assert result.fault is not None
        assert result.fault.operand_desc == "opcode"


class TestCycleAccounting:
    def test_counts_support_cost_model(self, demo_program):
        result = CPU(demo_program).run()
        assert result.half_cycles / 2 > result.steps  # every op costs >= 1 cycle

    def test_pinfi_attached_counts_split(self, demo_program):
        from repro.fi.models import SingleBitModel
        from repro.machine.cpu import FaultPlan

        from repro.testing.oracles import pc_trace

        def run(run):
            cpu = CPU(demo_program)
            cpu.attach_pinfi(FaultPlan(10, 0.5, 0.5, "PINFI", SingleBitModel()))
            return run(cpu)

        result = run(lambda cpu: cpu.run(budget=10_000_000))
        _, trace = run(lambda cpu: pc_trace(cpu, 10_000_000))
        # attached through the instruction that was the 10th candidate
        attached = candidates = 0
        for pc in trace:
            attached += demo_program.half_cost[pc]
            candidates += demo_program.is_candidate[pc]
            if candidates == 10:
                break
        assert result.attached_candidates == 10
        assert result.half_cycles_attached == attached
        assert result.half_cycles == sum(demo_program.half_cost[pc] for pc in trace)
        assert result.half_cycles > attached


class TestExitStatusMasking:
    def test_return_256_is_clean_exit(self):
        # Raw RAX keeps the full value (ISA-level inspection); the
        # process-level view masks to the low byte, like WEXITSTATUS.
        res = run_minic("int main() { return 256; }")
        assert res.exit_code == 256
        assert res.exit_status == 0
        assert not res.crashed

    def test_return_negative_is_crash(self):
        res = run_minic("int main() { return 0 - 1; }")
        assert res.exit_code == -1
        assert res.exit_status == 255
        assert res.crashed


class TestBudgetOnSnapshotBoundary:
    """When the step budget lands exactly on a snapshot boundary, the
    timeout must win: the budget check runs after counting an instruction
    and *before* the snapshot hook, so the hook never observes a step the
    result does not include."""

    def test_budget_on_boundary_times_out_without_hook(self, demo_program):
        calls = []
        cpu = CPU(demo_program)
        cpu.record_snapshots(500, lambda c, pc: calls.append(c.steps))
        result = cpu.run(budget=500)
        assert result.trap == "timeout"
        assert result.steps == 500
        assert calls == []

    def test_budget_past_boundary_fires_hook_once(self, demo_program):
        calls = []
        cpu = CPU(demo_program)
        cpu.record_snapshots(500, lambda c, pc: calls.append(c.steps))
        result = cpu.run(budget=501)
        assert result.trap == "timeout"
        assert result.steps == 501
        assert calls == [500]
