"""PINFI-specific behaviour: runtime candidate filtering and cycle model."""

import pytest

from repro.fi import INSTR_CLASSES, FIConfig, PinfiTool, RefineTool

from tests.conftest import DEMO_SOURCE


class TestRuntimeFilter:
    def test_function_filter_restricts_candidates(self):
        full = PinfiTool(DEMO_SOURCE, "demo")
        only_dot = PinfiTool(DEMO_SOURCE, "demo", config=FIConfig(funcs="dot"))
        assert only_dot.profile.total_candidates < full.profile.total_candidates
        assert only_dot.profile.total_candidates > 0

    def test_filter_matches_refine_population(self):
        """With the same filter, PINFI's runtime filtering and REFINE's
        compile-time filtering select the same dynamic candidate stream."""
        for config in (
            FIConfig(funcs="dot"),
            FIConfig(instrs="mem"),
            FIConfig(funcs="fact", instrs="arithm"),
        ):
            pin = PinfiTool(DEMO_SOURCE, "demo", config=config)
            ref = RefineTool(DEMO_SOURCE, "demo", config=config)
            assert (
                pin.profile.total_candidates == ref.profile.total_candidates
            ), f"filter {config} diverges"

    @pytest.mark.parametrize("instrs", INSTR_CLASSES)
    def test_class_filter_matches_refine_population(self, instrs):
        """PINFI classifies each pc by its loaded mnemonic at run time, REFINE
        each instruction at compile time: every -fi-instrs class selects the
        same dynamic candidates, alone and with a function filter."""
        for config in (FIConfig(instrs=instrs), FIConfig(funcs="dot", instrs=instrs)):
            pin = PinfiTool(DEMO_SOURCE, "demo", config=config)
            ref = RefineTool(DEMO_SOURCE, "demo", config=config)
            assert pin.profile.total_candidates == ref.profile.total_candidates > 0

    def test_filtered_faults_land_in_selected_function(self):
        tool = PinfiTool(DEMO_SOURCE, "demo", config=FIConfig(funcs="fact"))
        for seed in range(25):
            fault = tool.inject(seed).result.fault
            assert fault.func == "fact"

    def test_stack_filter_hits_prologue_epilogue(self):
        tool = PinfiTool(DEMO_SOURCE, "demo", config=FIConfig(instrs="stack"))
        texts = {tool.inject(s).result.fault.instr_text for s in range(20)}
        assert all(t.startswith(("push", "pop")) for t in texts)


class TestCycleModel:
    def test_profile_cached_once(self):
        tool = PinfiTool(DEMO_SOURCE, "demo")
        assert tool.profile is tool.profile
        assert tool.binary is tool.binary

    def test_detached_runs_cheaper_than_attached(self):
        """A fault injected early (detach early) must cost fewer simulated
        cycles than one injected at the very end (attached throughout),
        for runs of comparable length."""
        tool = PinfiTool(DEMO_SOURCE, "demo")
        total = tool.profile.total_candidates
        from repro.fi.models import SingleBitModel
        from repro.machine.cpu import FaultPlan

        def run_with_target(k):
            plan = FaultPlan(k, 0.0, 0.0, "PINFI", SingleBitModel())  # dst reg, bit 0
            cpu = tool._make_cpu(plan)
            result = cpu.run(budget=tool.profile.steps * 10)
            return result, tool._cycles(cpu, result)

        early_res, early_cycles = run_with_target(1)
        late_res, late_cycles = run_with_target(total)
        if early_res.steps == late_res.steps:
            assert early_cycles < late_cycles
