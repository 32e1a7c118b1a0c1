"""Tests for fault planning, injection mechanics and determinism."""

import pytest

from repro.fi import LLFITool, PinfiTool, RefineTool, TIMEOUT_FACTOR
from repro.machine.cpu import FaultPlan

from tests.conftest import DEMO_SOURCE

TOOLS = [LLFITool, RefineTool, PinfiTool]


@pytest.fixture(scope="module", params=TOOLS, ids=[t.name for t in TOOLS])
def tool(request):
    return request.param(DEMO_SOURCE, "demo")


class TestFaultPlan:
    def test_choose_uniform_operand(self):
        outputs = (("i", 0, 64), ("i", 1, 64), ("flags", 0, 16))
        plan = FaultPlan(1, operand_pick=0.99, bit_pick=0.0, tool="t")
        op_idx, *_ = plan.choose(outputs)
        assert op_idx == 2
        plan = FaultPlan(1, operand_pick=0.0, bit_pick=0.0, tool="t")
        assert plan.choose(outputs)[0] == 0

    def test_bit_respects_width(self):
        outputs = (("flags", 0, 16),)
        plan = FaultPlan(1, operand_pick=0.0, bit_pick=0.999, tool="t")
        *_, bit = plan.choose(outputs)
        assert bit == 15

    def test_plan_from_seed_in_range(self, tool):
        for seed in range(50):
            plan = tool.plan_from_seed(seed)
            assert 1 <= plan.target_index <= tool.profile.total_candidates
            assert 0.0 <= plan.operand_pick < 1.0
            assert 0.0 <= plan.bit_pick < 1.0

    def test_plans_deterministic(self, tool):
        p1 = tool.plan_from_seed(1234)
        p2 = tool.plan_from_seed(1234)
        assert (p1.target_index, p1.operand_pick, p1.bit_pick) == (
            p2.target_index, p2.operand_pick, p2.bit_pick
        )


class TestInjection:
    def test_single_fault_per_run(self, tool):
        for seed in range(30):
            run = tool.inject(seed)
            # Fault either fired (recorded once) or the target was never
            # reached (possible when an earlier flip changes control flow —
            # impossible here since the flip IS the target; so it must fire
            # unless the run itself traps before reaching it, which cannot
            # happen without a prior fault).
            assert run.result.fault is not None
            assert run.result.fault.tool == tool.name

    def test_injection_is_replayable(self, tool):
        a = tool.inject(77)
        b = tool.inject(77)
        assert a.result.output == b.result.output
        assert a.result.trap == b.result.trap
        assert a.result.steps == b.result.steps
        fa, fb = a.result.fault, b.result.fault
        assert (fa.pc, fa.operand_desc, fa.bit) == (fb.pc, fb.operand_desc, fb.bit)

    def test_different_seeds_hit_different_targets(self, tool):
        targets = {tool.inject(s).result.fault.dynamic_index for s in range(20)}
        assert len(targets) > 10

    def test_fault_log_fields(self, tool):
        fault = tool.inject(5).result.fault
        assert fault.func
        assert fault.instr_text
        assert 0 <= fault.bit < 64
        assert fault.dynamic_index >= 1

    def test_timeout_budget_is_10x_profile(self, tool):
        assert tool.timeout_budget == tool.profile.steps * TIMEOUT_FACTOR
        run = tool.inject(3)
        assert run.result.steps <= tool.timeout_budget


class TestToolSpecificBehaviour:
    def test_refine_flips_machine_registers(self):
        tool = RefineTool(DEMO_SOURCE, "demo")
        descs = {tool.inject(s).result.fault.operand_desc for s in range(60)}
        assert any(d.startswith("ireg") for d in descs)
        assert any(d.startswith("freg") for d in descs)

    def test_refine_can_flip_flags(self):
        tool = RefineTool(DEMO_SOURCE, "demo")
        descs = {tool.inject(s).result.fault.operand_desc for s in range(300)}
        assert "flags" in descs

    def test_llfi_flips_ir_values_only(self):
        tool = LLFITool(DEMO_SOURCE, "demo")
        descs = {tool.inject(s).result.fault.operand_desc for s in range(60)}
        assert descs <= {"ir-value:i64", "ir-value:f64"}
        # LLFI structurally cannot corrupt FLAGS.
        assert "flags" not in descs

    def test_pinfi_detaches_after_injection(self):
        tool = PinfiTool(DEMO_SOURCE, "demo")
        run = tool.inject(11)
        res = run.result
        assert res.counts_attached is not None
        if res.counts_attached is not res.counts:
            # Detached: post-detach execution happened at native speed.
            assert sum(res.counts) >= 0
            assert res.attached_candidates == run.result.fault.dynamic_index

    def test_pinfi_cycles_include_dbi_overhead(self):
        from repro.fi import PIN_ATTACH_COST

        tool = PinfiTool(DEMO_SOURCE, "demo")
        assert tool.profile.cycles > PIN_ATTACH_COST

    def test_refine_and_pinfi_same_plan_same_outcome(self):
        """With the same fault coordinates, backend and binary injection are
        observationally equivalent — the strongest accuracy statement."""
        refine = RefineTool(DEMO_SOURCE, "demo")
        pinfi = PinfiTool(DEMO_SOURCE, "demo")
        assert refine.profile.total_candidates == pinfi.profile.total_candidates
        for seed in range(40):
            r = refine.inject(seed)
            p = pinfi.inject(seed)
            assert r.result.output == p.result.output
            assert r.result.trap == p.result.trap


class TestProfileCaching:
    def test_binary_compiled_once(self):
        tool = RefineTool(DEMO_SOURCE, "demo")
        assert tool.binary is tool.binary
        assert tool.program is tool.program
        assert tool.profile is tool.profile

    def test_profile_rejects_crashing_workload(self):
        from repro.errors import CampaignError

        bad = "int z = 0; int main() { return 1 / z; }"
        tool = RefineTool(bad, "crashy")
        with pytest.raises(CampaignError, match="profiling run"):
            _ = tool.profile

    def test_profile_rejects_nonzero_exit(self):
        from repro.errors import CampaignError

        tool = PinfiTool("int main() { return 3; }", "exit3")
        with pytest.raises(CampaignError, match="exit=3"):
            _ = tool.profile
