"""The three fault-injection tools behind one interface.

Each tool owns the full workflow of the paper's Figure 3: compile (with its
kind of instrumentation), **profile** (one run that counts dynamic
candidates and records the golden output), then **inject** (one run per
experiment with a single pre-drawn bit flip and a 10x timeout budget).

* :class:`RefineTool` — backend MIR instrumentation (this paper).
* :class:`LLFITool` — IR-level call instrumentation (state of the art).
* :class:`PinfiTool` — binary-level DBI on the unmodified binary
  (accuracy baseline), including the detach-after-injection optimization
  the authors added to PINFI.

Simulated campaign time (Figure 5) comes from the cycle cost model: REFINE
and LLFI pay their overheads through real instructions in the stream
(``fi_check`` pseudos, ``call __fi_inject*`` sequences and the spill code
they induce); PINFI pays a DBI translation factor while attached plus a
per-candidate callback, then runs at native speed after detaching.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.backend.compiler import CompileOptions, compile_minic
from repro.backend.binary import Binary
from repro.engine import FastEngine
from repro.errors import CampaignError
from repro.fi.config import FIConfig
from repro.fi.llfi import llfi_instrument
from repro.fi.models import FaultModel, resolve_fault_model
from repro.fi.refine import refine_instrument
from repro.machine.cpu import CPU, ExecutionResult, FaultPlan
from repro.machine.loader import LoadedProgram, load_binary

#: PIN-style DBI cost model: translation slowdown while attached, callback
#: cost per candidate instruction, fixed attach/instrumentation cost.
PIN_DBI_FACTOR = 1.45
PIN_CALLBACK_COST = 2.0
PIN_ATTACH_COST = 5_000.0

#: Timeout rule from the paper: 10x the profiled execution length.
TIMEOUT_FACTOR = 10

#: Step budget of a fault-free run (the profile, the golden cursor).
GOLDEN_BUDGET = 200_000_000


@dataclass
class ProfileResult:
    """Outcome of a tool's profiling phase (Figure 3a)."""

    golden_output: tuple[str, ...]
    total_candidates: int
    steps: int
    cycles: float
    exit_code: int


@dataclass
class InjectionRun:
    """One fault-injection experiment's raw observables."""

    result: ExecutionResult
    cycles: float
    target_index: int


class FITool:
    """Base class: compile/profile/inject workflow shared by all tools."""

    name = "base"

    #: whether the tool's observation level can corrupt instruction
    #: encodings (machine/binary level only; IR tools cannot).
    sees_encodings = True

    #: CpuSnapshot counter a fault trigger is compared against (the dynamic
    #: candidate count the tool's ``target_index`` indexes into); the
    #: trigger scheduler forks on it, so every concrete tool names one.
    _SNAPSHOT_COUNTER: str | None = None

    def __init__(
        self,
        source: str,
        workload: str = "program",
        config: FIConfig | None = None,
        opt_level: str = "O2",
        fault_model: FaultModel | str | None = None,
    ) -> None:
        self.source = source
        self.workload = workload
        self.config = config or FIConfig()
        self.opt_level = opt_level
        #: what executes this tool's runs
        self.engine = FastEngine()
        #: pluggable fault model (repro.fi.models); spec string, instance or
        #: None (single-bit default).  Validated against the tool's level.
        self.fault_model = resolve_fault_model(fault_model)
        self.fault_model.check_tool(self)

    # -- compilation (tool-specific) -----------------------------------------

    def _compile(self) -> Binary:
        raise NotImplementedError

    @cached_property
    def binary(self) -> Binary:
        return self._compile()

    @cached_property
    def program(self) -> LoadedProgram:
        return load_binary(self.binary)

    # -- execution ----------------------------------------------------------

    def _make_cpu(self, plan: FaultPlan | None) -> CPU:
        raise NotImplementedError

    def _dynamic_candidates(self, cpu: CPU) -> int:
        raise NotImplementedError

    def _cycles(self, cpu: CPU, result: ExecutionResult) -> float:
        return result.half_cycles / 2

    @cached_property
    def profile(self) -> ProfileResult:
        """Profiling run: no injection, count candidates, capture golden
        output (Figure 3a).  Must terminate cleanly."""
        cpu = self._make_cpu(plan=None)
        result = self.engine.run(cpu, budget=GOLDEN_BUDGET)
        if result.trap is not None or result.exit_status != 0:
            raise CampaignError(
                f"{self.name}: profiling run of {self.workload!r} failed "
                f"(trap={result.trap}, exit={result.exit_code})"
            )
        total = self._dynamic_candidates(cpu)
        if total <= 0:
            raise CampaignError(
                f"{self.name}: no dynamic FI candidates in {self.workload!r}"
            )
        return ProfileResult(
            golden_output=tuple(result.output),
            total_candidates=total,
            steps=result.steps,
            cycles=self._cycles(cpu, result),
            exit_code=result.exit_code,
        )

    @property
    def timeout_budget(self) -> int:
        """Steps a faulty run gets before it is classified a timeout (the
        paper's rule, Section 4.3.2).  One number per tool, so every faulty
        run of a tool — from instruction 0 or forked mid-way — ends under
        the same budget."""
        return self.profile.steps * TIMEOUT_FACTOR

    def plan_from_seed(self, seed: int) -> FaultPlan:
        """Draw the full fault plan from ``seed`` under the tool's fault
        model.  The default single-bit model reproduces the paper's uniform
        (dynamic instruction, operand, bit) draw (Section 3.1) exactly —
        the historical RNG sequence is part of the contract."""
        return self.fault_model.plan_from_seed(self, seed)

    def inject(self, seed: int) -> InjectionRun:
        """Run one experiment, from instruction 0, with the fault drawn from
        ``seed``.  Campaigns do not come through here — they fork their
        tails off one golden run (:mod:`repro.campaign.schedule`) — but a
        single experiment (replay, the scheduler's safety net) has no
        prefix to share."""
        plan = self.plan_from_seed(seed)
        cpu = self._make_cpu(plan)
        result = self.engine.run(cpu, budget=self.timeout_budget)
        return InjectionRun(
            result=result,
            cycles=self._cycles(cpu, result),
            target_index=plan.target_index,
        )


class RefineTool(FITool):
    """REFINE: compile-time backend instrumentation (paper Section 4)."""

    name = "REFINE"
    _SNAPSHOT_COUNTER = "refine_count"

    def _compile(self) -> Binary:
        options = CompileOptions(
            opt_level=self.opt_level,
            mir_pass=lambda binary: refine_instrument(binary, self.config),
            meta={"tool": self.name},
        )
        return compile_minic(self.source, self.workload, options)

    def _make_cpu(self, plan: FaultPlan | None) -> CPU:
        cpu = CPU(self.program)
        if plan is not None:
            cpu.arm_refine(plan)
        return cpu

    def _dynamic_candidates(self, cpu: CPU) -> int:
        return cpu.refine_dynamic_count


class LLFITool(FITool):
    """LLFI: IR-level call instrumentation (paper Sections 2, 3.3)."""

    name = "LLFI"
    _SNAPSHOT_COUNTER = "llfi_count"
    #: IR-level injection never touches instruction encodings.
    sees_encodings = False

    def _compile(self) -> Binary:
        options = CompileOptions(
            opt_level=self.opt_level,
            ir_pass=lambda module: llfi_instrument(module, self.config),
            meta={"tool": self.name},
        )
        return compile_minic(self.source, self.workload, options)

    def _make_cpu(self, plan: FaultPlan | None) -> CPU:
        cpu = CPU(self.program)
        if plan is not None:
            cpu.arm_llfi(plan)
        return cpu

    def _dynamic_candidates(self, cpu: CPU) -> int:
        return cpu.llfi_dynamic_count


class PinfiTool(FITool):
    """PINFI: dynamic binary instrumentation of the clean binary (accuracy
    baseline), with detach-after-injection."""

    name = "PINFI"
    _SNAPSHOT_COUNTER = "pin_count"

    def _compile(self) -> Binary:
        options = CompileOptions(
            opt_level=self.opt_level, meta={"tool": self.name}
        )
        return compile_minic(self.source, self.workload, options)

    def _make_cpu(self, plan: FaultPlan | None) -> CPU:
        cpu = CPU(self.program)
        # Profiling also runs under the DBI tool (candidate counting needs
        # the instrumentation callbacks), exactly like real PIN.
        cpu.attach_pinfi(plan)
        # PINFI honours the candidate filter at callback time.
        self._apply_filter(cpu)
        return cpu

    def _apply_filter(self, cpu: CPU) -> None:
        """Restrict the candidate stream per -fi-funcs/-fi-instrs."""
        if self.config.funcs == "*" and self.config.instrs == "all":
            return
        prog = self.program
        # Rebuild the candidate bitmap under the filter (cached per tool).
        if not hasattr(self, "_filtered_candidates"):
            config = self.config
            self._filtered_candidates = [
                cand and config.match_function(info.func)
                and config.match_machine_opcode(info.mnemonic)
                for cand, info in zip(prog.is_candidate, prog.info)
            ]
        cpu.program = _FilteredProgramView(prog, self._filtered_candidates)

    def _dynamic_candidates(self, cpu: CPU) -> int:
        return cpu.pinfi_dynamic_count

    def _cycles(self, cpu: CPU, result: ExecutionResult) -> float:
        attached = result.half_cycles_attached
        return (
            PIN_ATTACH_COST
            + PIN_DBI_FACTOR * (attached / 2)
            + PIN_CALLBACK_COST * result.attached_candidates
            + (result.half_cycles - attached) / 2
        )


class _FilteredProgramView:
    """LoadedProgram proxy with a replaced candidate bitmap (PINFI filter)."""

    def __init__(self, prog: LoadedProgram, is_candidate: list[bool]) -> None:
        self._prog = prog
        self.is_candidate = is_candidate

    def __getattr__(self, name):
        return getattr(self._prog, name)


#: Registry used by campaigns and the CLI.
TOOL_CLASSES: dict[str, type[FITool]] = {
    "LLFI": LLFITool,
    "REFINE": RefineTool,
    "PINFI": PinfiTool,
}

TOOL_ORDER = ("LLFI", "REFINE", "PINFI")
