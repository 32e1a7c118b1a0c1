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
* :class:`EngineOracle` / :class:`SchedulerOracle` — the fast engine and
  the cursor/fork/sync primitives of the trigger scheduler vs the
  interpreter loop, with no fault armed: the engine on the clean and the
  LLFI build (and the LLFI build with one fault too), the scheduler on the
  REFINE and the LLFI build, each forked on its tool's counter.

One level up, :func:`check_workload_equivalence` holds a whole production
campaign on a registered workload to the reference campaign
(:mod:`repro.testing.reference`), record for record.

Modules are cloned before every compile because :func:`compile_ir` mutates
its input (pass pipeline + pre-isel lowering).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import astuple, dataclass

from repro.backend.compiler import CompileOptions, compile_ir
from repro.fi.config import FIConfig
from repro.fi.llfi import llfi_instrument
from repro.fi.refine import refine_instrument
from repro.ir import Module, clone_module
from repro.machine.cpu import CPU, ExecutionResult, FaultPlan
from repro.machine.loader import LoadedProgram, load_binary
from repro.testing.interp import interpret
from repro.utils.rng import SplitMix64
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

    Each program runs as its clean build and as its LLFI build, whose
    visits blocks count in bulk: unarmed, where the visit counts must agree
    too, and armed at one visit drawn from the program's code image, where
    the fault record's dynamic index, pc and bit must agree, under the
    paper's timeout (:data:`~repro.fi.tools.TIMEOUT_FACTOR` × the unarmed
    steps).
    """

    name = "engine"
    description = "fast block-compiled engine vs reference dispatch loop"

    def __init__(
        self, opt_level: str = "O2", budget: int = MACHINE_BUDGET
    ) -> None:
        self.opt_level = opt_level
        self.budget = budget

    def check(self, module: Module) -> Divergence | None:
        from repro.fi.tools import TIMEOUT_FACTOR

        clean = self._program(module, None)
        problem, _, _ = self._compare(clean, "clean build", self.budget)
        if problem is not None:
            return problem
        llfi = self._program(module, llfi_instrument)
        problem, golden, visits = self._compare(llfi, "LLFI build", self.budget)
        if problem is not None or not visits:
            return problem
        rng = SplitMix64(zlib.crc32(repr(llfi.code).encode()))
        target = 1 + rng.randrange(visits)
        bit_pick = rng.random()
        problem, _, _ = self._compare(
            llfi, f"LLFI build armed at visit {target}",
            TIMEOUT_FACTOR * golden.steps,
            lambda: FaultPlan(target, 0.0, bit_pick, "LLFI"),
        )
        return problem

    def _program(self, module: Module, ir_pass) -> LoadedProgram:
        return load_binary(compile_ir(
            clone_module(module),
            CompileOptions(opt_level=self.opt_level, ir_pass=ir_pass),
        ))

    def _compare(self, program, build: str, budget: int, plan_of=None):
        """``(divergence or None, the reference result, its LLFI visits)``
        of one build run on both engines, each CPU armed with its own
        ``plan_of()`` if given."""
        from repro.engine import FastEngine

        runs = []
        for engine, run in (
            ("reference", lambda cpu: cpu.run(budget=budget)),
            ("fast", lambda cpu: FastEngine().run(cpu, budget=budget)),
        ):
            cpu = CPU(program)
            if plan_of is not None:
                cpu.arm_llfi(plan_of())
            result = run(cpu)
            fault = result.fault
            runs.append((
                RunOutcome(
                    engine=f"{engine} ({build})",
                    exit_code=result.exit_code,
                    trap=result.trap,
                    output=tuple(result.output),
                    trace=tuple(result.counts),
                ),
                result,
                cpu.llfi_dynamic_count,
                fault and (fault.dynamic_index, fault.pc, fault.bit),
            ))
        (expected, ref, ref_visits, ref_fault), (actual, fast, fast_visits, fast_fault) = runs
        if (
            expected.behaviour() != actual.behaviour()
            or expected.trace != actual.trace
            or ref.steps != fast.steps
            or ref.trap_pc != fast.trap_pc
            or ref_visits != fast_visits
            or ref_fault != fast_fault
        ):
            return Divergence(
                oracle=self.name,
                detail=(
                    f"fast engine diverged from the reference loop ({build}; "
                    f"steps {ref.steps} vs {fast.steps}, trap_pc "
                    f"{ref.trap_pc} vs {fast.trap_pc}, LLFI visits "
                    f"{ref_visits} vs {fast_visits}, fault {ref_fault} vs "
                    f"{fast_fault})"
                ),
                expected=expected,
                actual=actual,
            ), ref, ref_visits
        return None, ref, ref_visits


class SchedulerOracle(Oracle):
    """Golden-cursor fork/resume machinery vs an uninterrupted fast run.

    The trigger scheduler (:mod:`repro.campaign.schedule`) rests on three
    engine primitives: :meth:`~repro.engine.fast.FastEngine.run_cursor`
    (advance one CPU with fork and sync captures at counter crossings and
    at the first block entries past step multiples),
    :func:`~repro.snapshot.state.capture_snapshot` /
    :func:`~repro.snapshot.state.restore_snapshot` (freeze and revive the
    full architectural state), and
    :meth:`~repro.engine.fast.FastEngine.resume` (run from a fork,
    pausing at the first stop at or past each sync point) — the cursor and
    the tails alike run on the engine's one block loop.  On an arbitrary
    program those must be behaviour-preserving: the cursor run must equal
    the plain run bit for bit, and a fresh CPU restored from *any* fork
    must finish with the plain run's output, exit code, per-pc counts and
    step total.  A cursor restarted from a retained sync state
    (``start_pc``, the scheduler's window replay) must capture each
    trigger's fork at the very point the full pass did.

    Each program runs as its REFINE build, forking on ``refine_count``,
    and as its LLFI build, forking on ``llfi_count``: the fork stops and
    each sync state's ``reach`` count on the tool's counter by position.
    """

    name = "scheduler"
    description = "golden-cursor fork/resume vs uninterrupted fast run"

    def __init__(
        self, opt_level: str = "O2", budget: int = MACHINE_BUDGET
    ) -> None:
        self.opt_level = opt_level
        self.budget = budget

    def check(self, module: Module) -> Divergence | None:
        def instrument(binary) -> None:
            refine_instrument(binary, FIConfig())

        for counter, build, options in (
            ("refine_count", "REFINE build", {"mir_pass": instrument}),
            ("llfi_count", "LLFI build", {"ir_pass": llfi_instrument}),
        ):
            program = load_binary(compile_ir(
                clone_module(module),
                CompileOptions(opt_level=self.opt_level, **options),
            ))
            problem = self._check_build(program, counter, build)
            if problem is not None:
                return problem
        return None

    def _check_build(self, program, counter: str, build: str) -> Divergence | None:
        from repro.engine import FastEngine
        from repro.snapshot.state import (
            base_pages,
            capture_snapshot,
            cpu_state_digest,
            restore_snapshot,
        )

        engine = FastEngine()
        plain_cpu = CPU(program)
        plain = engine.run(plain_cpu, budget=self.budget)
        total = getattr(plain_cpu, "_" + counter)
        if plain.trap is not None or total <= 0:
            # Trapping/timeout programs never reach the scheduler (the
            # golden run must be clean); nothing to fork without candidates.
            return None
        expected = RunOutcome(
            engine=f"fast-plain ({build})",
            exit_code=plain.exit_code,
            trap=plain.trap,
            output=tuple(plain.output),
            trace=tuple(plain.counts),
        )

        def state_of(snap) -> tuple:
            revived = CPU(program)
            restore_snapshot(revived, snap)
            return snap.pc, cpu_state_digest(revived)

        def diverged(result, label: str) -> Divergence | None:
            actual = RunOutcome(
                engine=f"{label} ({build})",
                exit_code=result.exit_code,
                trap=result.trap,
                output=tuple(result.output),
                trace=tuple(result.counts),
            )
            if (
                expected.behaviour() != actual.behaviour()
                or expected.trace != actual.trace
                or result.steps != plain.steps
            ):
                return Divergence(
                    oracle=self.name,
                    detail=(
                        f"{label} diverged from the uninterrupted run "
                        f"({build}; steps {plain.steps} vs {result.steps})"
                    ),
                    expected=expected,
                    actual=actual,
                )
            return None

        # A handful of trigger counters spread over the run, plus sync
        # captures at the first block entry at or past each multiple of an
        # interval that does not align with block boundaries.
        triggers = sorted(
            t for t in {1, total // 3 + 1, 2 * total // 3 + 1, total}
            if 1 <= t <= total
        )
        base = base_pages(program)
        interval = max(1, plain.steps // 7)
        sync_steps = list(range(interval, plain.steps, interval))

        def full_pass() -> tuple:
            """The cursor from the entry: its result, its fork per trigger,
            its sync states (step -> ``(reach, state)``) and the triggers
            it never forked for."""
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

            cursor = engine.run_cursor(
                CPU(program),
                budget=self.budget,
                counter=counter,
                first_stop=triggers[0],
                fork_hook=fork_hook,
                syncs=sync_steps,
                sync_hook=sync_hook,
            )
            return cursor, forks, sync_states, pending

        def window_replay(trigger: int, sync_states: dict) -> tuple:
            """Restart the cursor from the latest sync state whose block does
            not reach ``trigger`` (the entry, at worst): that state and the
            fork it captures (``None`` if none)."""
            start = [s for reach, s in sync_states.values() if reach < trigger][-1]
            window = CPU(program)
            restore_snapshot(window, start)
            refork: list = []

            def window_hook(c, pc, upto):
                refork.append(capture_snapshot(c, pc, base=base))
                return None

            engine.run_cursor(
                window,
                budget=self.budget,
                counter=counter,
                first_stop=trigger,
                fork_hook=window_hook,
                start_pc=start.pc,
            )
            return start, refork[0] if refork else None

        cursor, forks, sync_states, pending = full_pass()
        warm = None
        problem = diverged(cursor, "fork/sync cursor")
        if problem is not None:
            return problem
        if pending:
            return Divergence(
                oracle=self.name,
                detail=(
                    f"cursor finished without forking for trigger(s) "
                    f"{pending} (of {total} {counter}, {build})"
                ),
                expected=expected,
            )
        for trigger, snap in sorted(forks.items()):
            if snap.counter(counter) >= trigger:
                return Divergence(
                    oracle=self.name,
                    detail=(
                        f"fork for trigger {trigger} was captured after the "
                        f"trigger ({snap.counter(counter)} {counter} already "
                        f"counted, {build}) — resuming would skip the "
                        "injection point"
                    ),
                    expected=expected,
                )
            tail = CPU(program)
            restore_snapshot(tail, snap)
            result = engine.resume(
                tail, snap.pc, self.budget,
                [s for s in sync_steps if s > snap.steps],
                lambda c, pc, reach: False,
            )
            problem = diverged(result, f"tail forked at trigger {trigger}")
            if problem is not None:
                return problem
            start, refork = window_replay(trigger, sync_states)
            if refork and state_of(refork) != state_of(snap):
                # A float op meeting two NaNs returns one of their payloads,
                # and which one can change once CPython specialises the op's
                # bytecode.  The full pass ran cold; repeat the check on the
                # same pass run again, warm, bit for bit.
                if warm is None:
                    warm = full_pass()
                snap = warm[1][trigger]
                start, refork = window_replay(trigger, warm[2])
            if refork is None or state_of(refork) != state_of(snap):
                return Divergence(
                    oracle=self.name,
                    detail=(
                        f"window replay from step {start.steps} forked "
                        f"trigger {trigger} at "
                        f"{refork.steps if refork else 'no'} steps, the "
                        f"full pass at {snap.steps} ({build})"
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


def check_workload_zero_interference(name: str) -> Divergence | None:
    """Run the zero-interference oracle on one registered MiniC workload."""
    from repro.frontend import compile_source

    spec = get_workload(name)
    module = compile_source(spec.source)
    module.name = spec.name
    return ZeroInterferenceOracle().check(module)


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


#: How many trigger-contiguous shards the sharded production run is cut
#: into; they are served last shard first, so every shard but one replays a
#: window of the retained timeline that lies *below* windows already served.
EQUIVALENCE_SHARDS = 3


def _fault_bits(fault) -> tuple | None:
    """A fault record with its float values as bit patterns: a flip that
    makes a NaN is the same flip on both sides, though ``nan != nan``."""
    return fault and tuple(
        struct.pack("<d", v) if isinstance(v, float) else v for v in astuple(fault)
    )


def _first_mismatch(production, oracle) -> tuple[int, str] | None:
    """``(index, field)`` of the first record of ``production`` (sorted by
    index) that differs from the oracle's, or ``None``.  Every field is
    exact except ``cycles`` (float dot product; summation order) and the
    provenance pair ``engine``/``snapshot_hit``."""
    if len(production.records) != len(oracle.records):
        return -1, "record count"
    for want, got in zip(oracle.records, production.records):
        for field in ("index", "seed", "outcome", "steps", "trap", "exit_code"):
            if getattr(want, field) != getattr(got, field):
                return want.index, field
        if _fault_bits(want.fault) != _fault_bits(got.fault):
            return want.index, "fault"
        if abs(want.cycles - got.cycles) > 1e-9 * max(1.0, abs(want.cycles)):
            return want.index, "cycles"
    return None


def check_workload_equivalence(
    name: str, n: int = 12, fault_model: str | None = None
) -> Divergence | None:
    """Production campaign vs the reference campaign on one workload.

    For every tool that can host ``fault_model`` (a :mod:`repro.fi.models`
    spec; ``None`` = the paper's single-bit), runs the same
    ``n``-experiment campaign through
    :func:`repro.testing.reference.reference_campaign` and through
    production, and demands the same profile and the same records, field
    for field.  Production is driven both ways campaigns reach it: whole,
    by :func:`repro.campaign.run_campaign` (one cursor pass, every tail
    forked off it), and as leases are — trigger-contiguous shards through
    :func:`repro.campaign.parallel.run_slice` on one retained timeline,
    later shards replaying only their window.  The divergence names the
    cell, the experiment index and the field.
    """
    from repro.campaign.cell import CampaignSpec, shard_indices, trigger_order
    from repro.campaign.io import merge_results
    from repro.campaign.parallel import SliceContexts, run_slice
    from repro.campaign.runner import run_campaign
    from repro.fi.tools import TOOL_CLASSES, TOOL_ORDER
    from repro.testing.reference import reference_campaign

    spec = get_workload(name)
    model_tag = f"/{fault_model}" if fault_model else ""
    for tool_name in TOOL_ORDER:
        if not _tool_supports_model(TOOL_CLASSES[tool_name], fault_model):
            continue
        cell = f"{name}/{tool_name}{model_tag}"
        oracle = reference_campaign(
            tool_name, spec.source, spec.name, n, fault_model=fault_model
        )
        lease = CampaignSpec(
            workload=spec.name, source=spec.source, tool_name=tool_name, n=n,
            keep_records=True, fault_model=fault_model,
        )
        tool = lease.make_tool()
        whole = run_campaign(tool, n, keep_records=True)

        shards = shard_indices(
            trigger_order(tool, lease.base_seed, range(n)),
            -(-n // EQUIVALENCE_SHARDS),
        )
        contexts = SliceContexts()
        sharded = merge_results([
            run_slice(lease, shard, contexts) for shard in reversed(shards)
        ])
        sharded.records.sort(key=lambda rec: rec.index)

        for how, production in (("whole", whole), ("sharded", sharded)):
            if (
                production.golden_output != oracle.golden_output
                or production.total_candidates != oracle.total_candidates
            ):
                return Divergence(
                    oracle="campaign",
                    detail=(
                        f"{cell}: golden profile diverged from the reference "
                        f"campaign ({how}; candidates "
                        f"{oracle.total_candidates} vs "
                        f"{production.total_candidates})"
                    ),
                )
            mismatch = _first_mismatch(production, oracle)
            if mismatch is not None:
                index, field = mismatch
                return Divergence(
                    oracle="campaign",
                    detail=(
                        f"{cell}: production campaign ({how}) diverged from "
                        f"the reference campaign at experiment {index}, "
                        f"field {field!r}"
                    ),
                    seed=None if index < 0 else oracle.records[index].seed,
                )
            if production.counts != oracle.counts:
                return Divergence(
                    oracle="campaign",
                    detail=f"{cell}: outcome counts diverged ({how})",
                )
    return None


def check_workload_fault_model_equivalence(
    name: str,
    models: tuple[str, ...] | None = None,
    n: int = 8,
) -> Divergence | None:
    """:func:`check_workload_equivalence` under every fault model (default:
    one of each registered kind), not just the paper's single-bit.  Tools
    that cannot host a model (LLFI has no instruction fetch to corrupt) are
    skipped for that model only."""
    if models is None:
        from repro.fi.models import MODEL_ORDER

        models = MODEL_ORDER
    for model in models:
        divergence = check_workload_equivalence(name, n=n, fault_model=model)
        if divergence is not None:
            divergence.oracle = "fault-model"
            return divergence
    return None
