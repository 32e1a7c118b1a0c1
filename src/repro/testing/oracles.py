"""Differential oracles for the fuzzing harness.

Each oracle takes one IR module and answers "do two independent ways of
executing this program agree?":

* :class:`InterpOracle` — the reference interpreter vs the fully compiled
  binary.  Catches bugs anywhere in the pipeline (passes, isel, regalloc,
  frame lowering, peephole, CPU).
* :class:`PipelineOracle` — the O0 binary vs the full O2 pass pipeline.
  Catches miscompiles introduced by the optimizer specifically.
* :class:`ZeroInterferenceOracle` — REFINE's core instrumentation claim
  (paper Section 3): a binary instrumented with ``fi_check`` hooks but with
  *no fault armed* must produce output **and** a dynamic-instruction trace
  identical to the uninstrumented golden run, modulo the hooks themselves.

Modules are cloned before every compile because :func:`compile_ir` mutates
its input (pass pipeline + pre-isel lowering).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend.compiler import CompileOptions, compile_ir
from repro.fi.config import FIConfig
from repro.fi.refine import refine_instrument
from repro.ir import Module, clone_module
from repro.machine.cpu import CPU, ExecutionResult
from repro.machine.loader import LoadedProgram, load_binary
from repro.testing.interp import interpret
from repro.workloads import get_workload

#: Step budgets for fuzzed programs.  Generated programs terminate in a few
#: thousand steps; these limits only trip on reducer-created infinite loops.
#: The machine budget is much larger than the interpreter budget (one IR
#: instruction lowers to several machine instructions) so that any program
#: finite under the interpreter budget also finishes on the machine — the
#: two engines may then only ever time out *together*.
INTERP_BUDGET = 200_000
MACHINE_BUDGET = 20_000_000


@dataclass(frozen=True)
class RunOutcome:
    """The externally observable behaviour of one execution."""

    engine: str
    exit_code: int
    trap: str | None
    output: tuple[str, ...]
    #: per-instruction execution counts with FI hook sites filtered out
    #: (only populated by the zero-interference oracle)
    trace: tuple[int, ...] | None = None

    def behaviour(self) -> tuple:
        return (self.exit_code, self.trap, self.output)

    def summary(self) -> str:
        out = f"{len(self.output)} lines"
        tail = f", trap={self.trap}" if self.trap else ""
        return f"{self.engine}: exit={self.exit_code}{tail}, output={out}"


@dataclass
class Divergence:
    """A confirmed disagreement between two execution strategies."""

    oracle: str
    detail: str
    expected: RunOutcome | None = None
    actual: RunOutcome | None = None
    seed: int | None = None

    def describe(self) -> str:
        lines = [f"[{self.oracle}] {self.detail}"]
        for outcome in (self.expected, self.actual):
            if outcome is not None:
                lines.append("  " + outcome.summary())
        if (
            self.expected is not None
            and self.actual is not None
            and self.expected.output != self.actual.output
        ):
            for i, (a, b) in enumerate(
                zip(self.expected.output, self.actual.output)
            ):
                if a != b:
                    lines.append(f"  first differing line {i}: {a!r} vs {b!r}")
                    break
            else:
                lines.append(
                    f"  output lengths differ: {len(self.expected.output)}"
                    f" vs {len(self.actual.output)}"
                )
        return "\n".join(lines)


def interp_outcome(module: Module, budget: int = INTERP_BUDGET) -> RunOutcome:
    """Execute ``module`` on the reference interpreter."""
    result = interpret(clone_module(module), budget=budget)
    return RunOutcome(
        engine="interp",
        exit_code=result.exit_code,
        trap=result.trap,
        output=tuple(result.output),
    )


def _run_binary(
    module: Module, opt_level: str, mir_pass=None, budget: int = MACHINE_BUDGET
) -> tuple[ExecutionResult, LoadedProgram]:
    binary = compile_ir(
        clone_module(module),
        CompileOptions(opt_level=opt_level, mir_pass=mir_pass),
    )
    program = load_binary(binary)
    return CPU(program).run(budget=budget), program


def compiled_outcome(
    module: Module, opt_level: str = "O2", budget: int = MACHINE_BUDGET
) -> RunOutcome:
    """Compile ``module`` at ``opt_level`` and execute it on the machine."""
    result, _ = _run_binary(module, opt_level, budget=budget)
    return RunOutcome(
        engine=f"machine-{opt_level}",
        exit_code=result.exit_code,
        trap=result.trap,
        output=tuple(result.output),
    )


def _agree(a: RunOutcome, b: RunOutcome) -> bool:
    """Outcome equality, with one exception: the budgets of the two engines
    are in different units (IR steps vs machine instructions), so when both
    sides hit their budget the truncation points differ — a mutual timeout
    counts as agreement instead of comparing partial output."""
    if a.trap == "timeout" and b.trap == "timeout":
        return True
    return a.behaviour() == b.behaviour()


class Oracle:
    """Base class: check one module, return a :class:`Divergence` or None."""

    name = "oracle"
    description = ""

    def check(self, module: Module) -> Divergence | None:
        raise NotImplementedError


class InterpOracle(Oracle):
    """Reference interpreter vs the fully optimized compiled binary."""

    name = "interp"
    description = "reference IR interpreter vs compiled binary"

    def __init__(
        self,
        opt_level: str = "O2",
        interp_budget: int = INTERP_BUDGET,
        machine_budget: int = MACHINE_BUDGET,
    ) -> None:
        self.opt_level = opt_level
        self.interp_budget = interp_budget
        self.machine_budget = machine_budget

    def check(self, module: Module) -> Divergence | None:
        expected = interp_outcome(module, budget=self.interp_budget)
        actual = compiled_outcome(
            module, self.opt_level, budget=self.machine_budget
        )
        if not _agree(expected, actual):
            return Divergence(
                oracle=self.name,
                detail=f"interpreter and {self.opt_level} binary disagree",
                expected=expected,
                actual=actual,
            )
        return None


class PipelineOracle(Oracle):
    """Unoptimized vs fully optimized compilation of the same module."""

    name = "pipeline"
    description = "O0 binary vs full O2 pass pipeline"

    def check(self, module: Module) -> Divergence | None:
        expected = compiled_outcome(module, "O0")
        actual = compiled_outcome(module, "O2")
        if not _agree(expected, actual):
            return Divergence(
                oracle=self.name,
                detail="O0 and O2 binaries disagree",
                expected=expected,
                actual=actual,
            )
        return None


class ZeroInterferenceOracle(Oracle):
    """Instrumented-but-idle binary must match the golden run exactly.

    This is the property that justifies trusting REFINE campaign results:
    splicing ``fi_check`` pseudo-instructions after every candidate must not
    change what the program computes, prints, or even *executes* — after
    masking out the hook sites, the per-instruction execution counts of the
    instrumented run must equal the golden run's counts instruction for
    instruction.
    """

    name = "zero"
    description = "REFINE-instrumented (no fault) vs golden run"

    def __init__(self, opt_level: str = "O2", config: FIConfig | None = None) -> None:
        self.opt_level = opt_level
        self.config = config or FIConfig()

    def check(self, module: Module) -> Divergence | None:
        golden_result, golden_prog = _run_binary(module, self.opt_level)

        def instrument(binary) -> None:
            refine_instrument(binary, self.config)

        instr_result, instr_prog = _run_binary(
            module, self.opt_level, mir_pass=instrument
        )
        hook_pcs = set(instr_prog.fi_check_pcs)

        golden = RunOutcome(
            engine="golden",
            exit_code=golden_result.exit_code,
            trap=golden_result.trap,
            output=tuple(golden_result.output),
            trace=tuple(golden_result.counts),
        )
        instrumented = RunOutcome(
            engine="instrumented",
            exit_code=instr_result.exit_code,
            trap=instr_result.trap,
            output=tuple(instr_result.output),
            trace=tuple(
                count
                for pc, count in enumerate(instr_result.counts)
                if pc not in hook_pcs
            ),
        )
        if not _agree(golden, instrumented):
            return Divergence(
                oracle=self.name,
                detail="instrumentation changed program behaviour",
                expected=golden,
                actual=instrumented,
            )
        if golden.trap != "timeout" and golden.trace != instrumented.trace:
            first = next(
                (
                    i
                    for i, (a, b) in enumerate(zip(golden.trace, instrumented.trace))
                    if a != b
                ),
                min(len(golden.trace), len(instrumented.trace)),
            )
            return Divergence(
                oracle=self.name,
                detail=(
                    "instrumentation perturbed the dynamic-instruction trace "
                    f"(first mismatch at filtered pc {first}; "
                    f"{len(golden.trace)} golden vs "
                    f"{len(instrumented.trace)} filtered instrumented pcs)"
                ),
                expected=golden,
                actual=instrumented,
            )
        return None


class EngineOracle(Oracle):
    """Fast block-compiled execution engine vs the reference dispatch loop.

    The free-run engine (:mod:`repro.engine`) must be *bit-identical* to
    ``CPU._loop`` — same output, same exit code, same trap and trap pc,
    same dynamic-instruction counts, same step total.  Both sides run under
    the **same** machine budget, so unlike the cross-representation oracles
    above there is no timeout leniency: a mutual timeout must truncate at
    exactly the same step.
    """

    name = "engine"
    description = "fast block-compiled engine vs reference dispatch loop"

    def __init__(
        self, opt_level: str = "O2", budget: int = MACHINE_BUDGET
    ) -> None:
        self.opt_level = opt_level
        self.budget = budget

    def check(self, module: Module) -> Divergence | None:
        from repro.engine import get_engine

        binary = compile_ir(
            clone_module(module), CompileOptions(opt_level=self.opt_level)
        )
        program = load_binary(binary)
        ref = CPU(program).run(budget=self.budget)
        fast = get_engine("fast").run(CPU(program), budget=self.budget)
        expected = RunOutcome(
            engine="reference",
            exit_code=ref.exit_code,
            trap=ref.trap,
            output=tuple(ref.output),
            trace=tuple(ref.counts),
        )
        actual = RunOutcome(
            engine="fast",
            exit_code=fast.exit_code,
            trap=fast.trap,
            output=tuple(fast.output),
            trace=tuple(fast.counts),
        )
        if (
            expected.behaviour() != actual.behaviour()
            or expected.trace != actual.trace
            or ref.steps != fast.steps
            or ref.trap_pc != fast.trap_pc
        ):
            return Divergence(
                oracle=self.name,
                detail=(
                    "fast engine diverged from the reference loop "
                    f"(steps {ref.steps} vs {fast.steps}, "
                    f"trap_pc {ref.trap_pc} vs {fast.trap_pc})"
                ),
                expected=expected,
                actual=actual,
            )
        return None


class SchedulerOracle(Oracle):
    """Golden-cursor fork/resume machinery vs an uninterrupted fast run.

    The trigger scheduler (:mod:`repro.campaign.schedule`) rests on three
    engine primitives: :meth:`~repro.engine.fast.FastEngine.run_cursor`
    (advance one CPU with fork and sync captures at counter crossings and
    step multiples), :func:`~repro.snapshot.state.capture_snapshot` /
    :func:`~repro.snapshot.state.restore_snapshot` (freeze and revive the
    full architectural state), and
    :meth:`~repro.engine.fast.FastEngine.resume_synced` (run from a fork
    with exact-step pauses).  On an arbitrary program those must be
    behaviour-preserving: the cursor run must equal the plain run bit for
    bit, and a fresh CPU restored from *any* fork must finish with the
    plain run's output, exit code, per-pc counts and step total.  A cursor
    restarted from a retained sync state (``start_pc``, the scheduler's
    window replay) must capture each trigger's fork at the very point the
    full pass did.
    """

    name = "scheduler"
    description = "golden-cursor fork/resume vs uninterrupted fast run"

    def __init__(
        self, opt_level: str = "O2", budget: int = MACHINE_BUDGET
    ) -> None:
        self.opt_level = opt_level
        self.budget = budget

    def check(self, module: Module) -> Divergence | None:
        from repro.engine import get_engine
        from repro.snapshot.state import (
            base_pages,
            capture_snapshot,
            cpu_state_digest,
            restore_snapshot,
        )

        def instrument(binary) -> None:
            refine_instrument(binary, FIConfig())

        binary = compile_ir(
            clone_module(module),
            CompileOptions(opt_level=self.opt_level, mir_pass=instrument),
        )
        program = load_binary(binary)
        engine = get_engine("fast")
        plain_cpu = CPU(program)
        plain = engine.run(plain_cpu, budget=self.budget)
        total = plain_cpu._refine_count
        if plain.trap is not None or total <= 0:
            # Trapping/timeout programs never reach the scheduler (the
            # golden run must be clean); nothing to fork without candidates.
            return None
        expected = RunOutcome(
            engine="fast-plain",
            exit_code=plain.exit_code,
            trap=plain.trap,
            output=tuple(plain.output),
            trace=tuple(plain.counts),
        )

        def state_of(snap) -> tuple:
            revived = CPU(program)
            restore_snapshot(revived, snap)
            return snap.pc, cpu_state_digest(revived)

        def outcome_of(result, label: str) -> RunOutcome:
            return RunOutcome(
                engine=label,
                exit_code=result.exit_code,
                trap=result.trap,
                output=tuple(result.output),
                trace=tuple(result.counts),
            )

        def diverged(result, label: str) -> Divergence | None:
            actual = outcome_of(result, label)
            if (
                expected.behaviour() != actual.behaviour()
                or expected.trace != actual.trace
                or result.steps != plain.steps
            ):
                return Divergence(
                    oracle=self.name,
                    detail=(
                        f"{label} diverged from the uninterrupted run "
                        f"(steps {plain.steps} vs {result.steps})"
                    ),
                    expected=expected,
                    actual=actual,
                )
            return None

        # A handful of trigger counters spread over the run, plus sync
        # captures at an interval that does not align with block boundaries.
        triggers = sorted(
            t for t in {1, total // 3 + 1, 2 * total // 3 + 1, total}
            if 1 <= t <= total
        )
        base = base_pages(program)
        forks: dict[int, object] = {}
        sync_states: dict[int, object] = {}
        pending = list(triggers)
        prev = None

        def fork_hook(c, pc, upto):
            nonlocal prev
            snap = capture_snapshot(c, pc, prev=prev, base=base)
            prev = snap
            while pending and pending[0] <= upto:
                forks[pending.pop(0)] = snap
            return pending[0] if pending else None

        def sync_hook(c, pc, reach) -> None:
            nonlocal prev
            snap = capture_snapshot(c, pc, prev=prev, base=base)
            prev = snap
            sync_states[snap.steps] = (reach, snap)

        interval = max(1, plain.steps // 7)
        sync_steps = list(range(interval, plain.steps, interval))
        cursor = engine.run_cursor(
            CPU(program),
            budget=self.budget,
            counter="refine_count",
            first_stop=triggers[0],
            fork_hook=fork_hook,
            syncs=sync_steps,
            sync_hook=sync_hook,
        )
        problem = diverged(cursor, "fork/sync cursor")
        if problem is not None:
            return problem
        if pending:
            return Divergence(
                oracle=self.name,
                detail=(
                    f"cursor finished without forking for trigger(s) "
                    f"{pending} (of {total} candidates)"
                ),
                expected=expected,
            )
        for trigger, snap in sorted(forks.items()):
            if snap.counter("refine_count") >= trigger:
                return Divergence(
                    oracle=self.name,
                    detail=(
                        f"fork for trigger {trigger} was captured after the "
                        f"trigger ({snap.counter('refine_count')} candidates "
                        "already executed) — resuming would skip the "
                        "injection point"
                    ),
                    expected=expected,
                )
            tail = CPU(program)
            restore_snapshot(tail, snap)
            result = engine.resume_synced(
                tail, snap.pc, self.budget,
                [s for s in sync_steps if s > snap.steps],
                lambda c, pc: False,
            )
            problem = diverged(result, f"tail forked at trigger {trigger}")
            if problem is not None:
                return problem
            # Window replay: from the latest sync state whose block does not
            # reach the trigger (the entry, at worst), the cursor must fork
            # where the full pass did.
            starts = [
                start for reach, start in sync_states.values()
                if reach < trigger
            ]
            window = CPU(program)
            restore_snapshot(window, starts[-1])
            refork: list = []

            def window_hook(c, pc, upto):
                refork.append(capture_snapshot(c, pc, base=base))
                return None

            engine.run_cursor(
                window,
                budget=self.budget,
                counter="refine_count",
                first_stop=trigger,
                fork_hook=window_hook,
                start_pc=starts[-1].pc,
            )
            if not refork or state_of(refork[0]) != state_of(snap):
                return Divergence(
                    oracle=self.name,
                    detail=(
                        f"window replay from step {starts[-1].steps} forked "
                        f"trigger {trigger} at "
                        f"{refork[0].steps if refork else 'no'} steps, the "
                        f"full pass at {snap.steps}"
                    ),
                    expected=expected,
                )
        return None


#: Registry used by ``refine-fuzz --oracle`` and the test-suite.
ORACLES: dict[str, Oracle] = {
    "interp": InterpOracle(),
    "pipeline": PipelineOracle(),
    "zero": ZeroInterferenceOracle(),
    "engine": EngineOracle(),
    "scheduler": SchedulerOracle(),
}


def check_workload_zero_interference(
    name: str, snapshot_interval: int | None = None
) -> Divergence | None:
    """Run the zero-interference oracle on one registered MiniC workload.

    With ``snapshot_interval`` (``0`` = auto), additionally cross-check the
    snapshot fast path: injections served from golden-run snapshots must be
    bit-identical to from-scratch runs — the same claim, one layer up.
    """
    from repro.frontend import compile_source

    spec = get_workload(name)
    module = compile_source(spec.source)
    module.name = spec.name
    divergence = ZeroInterferenceOracle().check(module)
    if divergence is not None or snapshot_interval is None:
        return divergence
    return check_workload_snapshot_equivalence(name, snapshot_interval)


def _tool_supports_model(tool_cls, fault_model: str | None) -> bool:
    """Whether ``tool_cls`` can run ``fault_model`` (e.g. LLFI cannot host
    opcode corruption); ``None`` means the default model, always fine."""
    if fault_model is None:
        return True
    from repro.errors import CampaignError
    from repro.fi.models import resolve_fault_model

    try:
        resolve_fault_model(fault_model).check_tool(tool_cls)
    except CampaignError:
        return False
    return True


def check_workload_snapshot_equivalence(
    name: str,
    snapshot_interval: int = 0,
    seeds: range = range(4),
    fault_model: str | None = None,
) -> Divergence | None:
    """Snapshot fast path vs from-scratch injection on one workload.

    For every tool, runs the same seeds through a snapshot-enabled tool and
    a plain one and demands identical ``ExecutionResult`` observables
    (outcome behaviour, output, dynamic trace, step and cycle counts).
    ``fault_model`` (a :mod:`repro.fi.models` spec) runs the comparison
    under that model; tools that cannot host it are skipped.
    """
    from repro.fi.tools import TOOL_CLASSES, TOOL_ORDER

    spec = get_workload(name)
    for tool_name in TOOL_ORDER:
        if not _tool_supports_model(TOOL_CLASSES[tool_name], fault_model):
            continue
        scratch = TOOL_CLASSES[tool_name](
            spec.source, workload=spec.name, fault_model=fault_model
        )
        snapped = TOOL_CLASSES[tool_name](
            spec.source, workload=spec.name, fault_model=fault_model
        )
        snapped.enable_snapshots(interval=snapshot_interval)
        for seed in seeds:
            a = scratch.inject(seed)
            b = snapped.inject(seed)
            expected = RunOutcome(
                engine=f"{tool_name}-scratch",
                exit_code=a.result.exit_code,
                trap=a.result.trap,
                output=tuple(a.result.output),
                trace=tuple(a.result.counts),
            )
            actual = RunOutcome(
                engine=f"{tool_name}-snapshot",
                exit_code=b.result.exit_code,
                trap=b.result.trap,
                output=tuple(b.result.output),
                trace=tuple(b.result.counts),
            )
            if (
                expected.behaviour() != actual.behaviour()
                or expected.trace != actual.trace
                or a.result.steps != b.result.steps
                or abs(a.cycles - b.cycles) > 1e-9
            ):
                return Divergence(
                    oracle="snapshot",
                    detail=(
                        f"snapshot-served injection diverged from the "
                        f"from-scratch run ({name}/{tool_name}"
                        f"{'/' + fault_model if fault_model else ''}, "
                        f"steps {a.result.steps} vs {b.result.steps}, "
                        f"cycles {a.cycles} vs {b.cycles})"
                    ),
                    expected=expected,
                    actual=actual,
                    seed=seed,
                )
    return None


def check_workload_engine_equivalence(
    name: str,
    snapshot_interval: int | None = None,
    seeds: range = range(4),
    fault_model: str | None = None,
) -> Divergence | None:
    """Fast execution engine vs the reference engine on one workload.

    For every tool, builds one reference-engine tool and one fast-engine
    tool and demands identical golden profiles and identical injection
    results for the same seeds — the fault-campaign-level statement of the
    :class:`EngineOracle` property.  With ``snapshot_interval`` (``0`` =
    auto) the comparison is repeated with the snapshot fast path enabled on
    both sides, so the engine is also exercised through golden-run
    recording and mid-run :meth:`~repro.machine.cpu.CPU.resume`.
    """
    from repro.fi.tools import TOOL_CLASSES, TOOL_ORDER

    spec = get_workload(name)
    intervals: list[int | None] = [None]
    if snapshot_interval is not None:
        intervals.append(snapshot_interval)
    for tool_name in TOOL_ORDER:
        if not _tool_supports_model(TOOL_CLASSES[tool_name], fault_model):
            continue
        for interval in intervals:
            ref = TOOL_CLASSES[tool_name](
                spec.source, workload=spec.name, engine="reference",
                fault_model=fault_model,
            )
            fast = TOOL_CLASSES[tool_name](
                spec.source, workload=spec.name, engine="fast",
                fault_model=fault_model,
            )
            if interval is not None:
                ref.enable_snapshots(interval=interval)
                fast.enable_snapshots(interval=interval)
            mode = "scratch" if interval is None else "snapshot"
            rp, fp = ref.profile, fast.profile
            if (
                rp.golden_output != fp.golden_output
                or rp.steps != fp.steps
                or rp.total_candidates != fp.total_candidates
            ):
                return Divergence(
                    oracle="engine",
                    detail=(
                        f"golden profiles diverge ({name}/{tool_name}, "
                        f"steps {rp.steps} vs {fp.steps}, candidates "
                        f"{rp.total_candidates} vs {fp.total_candidates})"
                    ),
                )
            for seed in seeds:
                a = ref.inject(seed)
                b = fast.inject(seed)
                expected = RunOutcome(
                    engine=f"{tool_name}-reference-{mode}",
                    exit_code=a.result.exit_code,
                    trap=a.result.trap,
                    output=tuple(a.result.output),
                    trace=tuple(a.result.counts),
                )
                actual = RunOutcome(
                    engine=f"{tool_name}-fast-{mode}",
                    exit_code=b.result.exit_code,
                    trap=b.result.trap,
                    output=tuple(b.result.output),
                    trace=tuple(b.result.counts),
                )
                if (
                    expected.behaviour() != actual.behaviour()
                    or expected.trace != actual.trace
                    or a.result.steps != b.result.steps
                    or a.result.trap_pc != b.result.trap_pc
                    or abs(a.cycles - b.cycles) > 1e-9
                ):
                    return Divergence(
                        oracle="engine",
                        detail=(
                            f"fast engine diverged from the reference "
                            f"engine ({name}/{tool_name}/{mode}"
                            f"{'/' + fault_model if fault_model else ''}, "
                            f"steps {a.result.steps} vs {b.result.steps})"
                        ),
                        expected=expected,
                        actual=actual,
                        seed=seed,
                    )
    return None


def check_workload_scheduler_equivalence(
    name: str, n: int = 12, fault_model: str | None = None
) -> Divergence | None:
    """Trigger-ordered campaign vs index-ordered campaign on one workload.

    For every tool, runs the same ``n``-experiment campaign once per
    schedule and demands record-for-record equality on every
    :class:`~repro.campaign.results.ExperimentRecord` field except
    ``snapshot_hit`` (a fast-path provenance flag), with ``cycles`` held to
    float-summation tolerance — the campaign-level statement of the
    :class:`SchedulerOracle` property, fault injection included.
    """
    from repro.campaign.runner import make_tool, run_campaign
    from repro.fi.tools import TOOL_CLASSES

    spec = get_workload(name)
    for tool_name in ("LLFI", "REFINE", "PINFI"):
        if not _tool_supports_model(TOOL_CLASSES[tool_name], fault_model):
            continue
        by_index = run_campaign(
            make_tool(
                tool_name, spec.source, spec.name, snapshot_interval=0,
                fault_model=fault_model,
            ),
            n, keep_records=True,
        )
        by_trigger = run_campaign(
            make_tool(
                tool_name, spec.source, spec.name, snapshot_interval=0,
                schedule="trigger", fault_model=fault_model,
            ),
            n, keep_records=True, schedule="trigger",
        )
        for a, b in zip(by_index.records, by_trigger.records):
            identity = (
                ("seed", a.seed, b.seed),
                ("outcome", a.outcome, b.outcome),
                ("steps", a.steps, b.steps),
                ("trap", a.trap, b.trap),
                ("exit_code", a.exit_code, b.exit_code),
                ("fault", a.fault, b.fault),
                ("index", a.index, b.index),
            )
            mismatch = next(
                (field for field, x, y in identity if x != y), None
            )
            if mismatch is None and abs(a.cycles - b.cycles) > 1e-9 * max(
                1.0, abs(a.cycles)
            ):
                mismatch = "cycles"
            if mismatch is not None:
                return Divergence(
                    oracle="scheduler",
                    detail=(
                        f"trigger-ordered campaign diverged from the "
                        f"index-ordered one ({name}/{tool_name}"
                        f"{'/' + fault_model if fault_model else ''}, "
                        f"experiment {a.index}, field {mismatch!r})"
                    ),
                    seed=a.seed,
                )
        if by_index.counts != by_trigger.counts:
            return Divergence(
                oracle="scheduler",
                detail=(
                    f"trigger-ordered campaign outcome counts diverged "
                    f"({name}/{tool_name}"
                    f"{'/' + fault_model if fault_model else ''})"
                ),
            )
    return None


def check_workload_fault_model_equivalence(
    name: str,
    models: tuple[str, ...] | None = None,
    seeds: range = range(3),
    n: int = 8,
) -> Divergence | None:
    """Same seed + same fault model ⇒ identical outcomes everywhere.

    For each fault model (default: one of each registered kind), demands on
    one workload that (a) the fast and reference engines agree on every
    injection, and (b) a trigger-ordered campaign is record-for-record
    identical to an index-ordered one — i.e. the engine- and
    scheduler-equivalence properties hold under every model, not just the
    paper's single-bit default.  Tools that cannot host a model (LLFI has
    no instruction fetch to corrupt) are skipped for that model only.
    """
    if models is None:
        from repro.fi.models import MODEL_ORDER

        models = MODEL_ORDER
    for model in models:
        divergence = check_workload_engine_equivalence(
            name, seeds=seeds, fault_model=model
        )
        if divergence is None:
            divergence = check_workload_scheduler_equivalence(
                name, n=n, fault_model=model
            )
        if divergence is not None:
            divergence.oracle = "fault-model"
            divergence.detail = f"[{model}] {divergence.detail}"
            return divergence
    return None
