"""The sx64 CPU interpreter.

Executes a :class:`~repro.machine.loader.LoadedProgram` with full
architectural state: 64-bit two's-complement integer registers, IEEE-754
double float registers, an x86-layout FLAGS register, and a flat byte-
addressed memory with null/stack guard regions.

Fault-injection observation points (one CPU, three tools):

* **PINFI** (binary level) — ``attach_pinfi`` arms a per-candidate dynamic
  counter in the main loop (the DBI view of the unmodified binary); after
  the single injection the tool *detaches*, mirroring the paper's optimized
  PINFI.
* **REFINE** (backend level) — ``fi_check`` pseudo-instructions compiled
  into the binary consult the same kind of counter.
* **LLFI** (IR level) — ``__fi_inject_*`` intrinsic stubs called from the
  instrumented code route through :meth:`CPU.llfi_visit`.

Where a trigger fires, the plan's fault model (:mod:`repro.fi.models`)
corrupts the state and writes the :class:`FaultRecord`; the CPU only
counts, and decides when.

Crashes surface as :class:`~repro.errors.MachineTrap` subclasses recorded in
the :class:`ExecutionResult` (segfault, illegal instruction, divide-by-zero,
stack overflow, timeout, abnormal exit).
"""

from __future__ import annotations

import functools
import linecache
from dataclasses import dataclass, field

from repro.errors import ExecutionTimeout, MachineTrap
from repro.machine import opcodes as O
from repro.machine.intrinsics import INTRINSIC_TABLE
from repro.machine.loader import LoadedProgram
from repro.machine.registers import RAX_IDX, RBP_IDX, RSP_IDX
from repro.machine.semantics import (
    CONDITIONS,
    HALT_PC,
    REGISTER_FIELDS,
    SEMANTICS,
    Context,
    namespace,
)
from repro.utils.bits import MASK64


@dataclass
class FaultRecord:
    """One injected fault, with everything needed for replay (the paper's
    fault log: target instruction, operand, and bit).

    The trailing fields generalize the log beyond the paper's single-bit
    model (:mod:`repro.fi.models`): ``model`` is the canonical fault-model
    spec, ``bits`` the full set of flipped positions for multi-bit upsets,
    ``address`` the corrupted location for memory models, and ``dwell`` the
    width of a stuck-at window in dynamic candidates.  ``bit`` is ``None``
    for faults with no single bit index (e.g. cache-line bursts).
    """

    tool: str
    dynamic_index: int
    pc: int
    func: str
    block: str
    instr_text: str
    operand_index: int
    operand_desc: str
    bit: int | None
    value_before: object = None
    value_after: object = None
    model: str = "single-bit"
    bits: tuple[int, ...] | None = None
    address: int | None = None
    dwell: int = 1


@dataclass
class ExecutionResult:
    """Observable outcome of one program execution."""

    exit_code: int = 0
    output: list[str] = field(default_factory=list)
    steps: int = 0
    trap: str | None = None
    trap_pc: int = -1
    fault: FaultRecord | None = None
    #: simulated cycles executed, doubled (every instruction costs a
    #: multiple of half a cycle: ``LoadedProgram.half_cost``)
    half_cycles: int = 0
    #: the part of ``half_cycles`` executed while a DBI tool was attached
    #: (PINFI only)
    half_cycles_attached: int = 0
    #: number of candidate instructions executed while attached (PINFI)
    attached_candidates: int = 0

    @property
    def exit_status(self) -> int:
        """Process-level exit status: the low 8 bits of RAX, exactly what
        ``waitpid`` would report on the machines the paper measured.  The
        raw signed ``exit_code`` is kept for ISA-level inspection; anything
        reasoning about process success/failure must use this view."""
        return self.exit_code & 0xFF

    @property
    def crashed(self) -> bool:
        return self.trap is not None or self.exit_status != 0


class FaultPlan:
    """Pre-drawn fault coordinates: which dynamic candidate, and how the
    operand/bit are chosen once the candidate's outputs are known.

    ``operand_pick`` and ``bit_pick`` are uniform draws in [0, 1) made
    up-front so an experiment is a pure function of its seed.

    ``model`` is the fault model (:mod:`repro.fi.models`) that draws the
    plan and applies it: every candidate whose dynamic count is in the
    **dwell window** ``[target_index, last_index]`` calls its ``apply``
    (register-level sites) or ``apply_value`` (LLFI's IR values);
    single-shot plans have ``last_index == target_index``.  ``picks``
    carries any extra pre-drawn uniforms the model needs, and ``state`` is
    per-run scratch (e.g. the stuck-at site chosen at first application)
    that tool arming resets.
    """

    __slots__ = (
        "target_index", "operand_pick", "bit_pick", "tool",
        "last_index", "model", "picks", "state",
    )

    def __init__(
        self,
        target_index: int,
        operand_pick: float,
        bit_pick: float,
        tool: str,
        model,
        picks: tuple = (),
        last_index: int | None = None,
    ) -> None:
        self.target_index = target_index
        self.operand_pick = operand_pick
        self.bit_pick = bit_pick
        self.tool = tool
        self.last_index = target_index if last_index is None else last_index
        self.model = model
        self.picks = picks
        self.state = None

    def choose(self, outputs: tuple) -> tuple[int, int, int, int, int]:
        """Select (operand_index, space, reg_index, width, bit)."""
        op_idx = min(int(self.operand_pick * len(outputs)), len(outputs) - 1)
        space, reg_idx, width = outputs[op_idx]
        bit = min(int(self.bit_pick * width), width - 1)
        return op_idx, space, reg_idx, width, bit


class CPU:
    """One execution context over a loaded program."""

    def __init__(self, program: LoadedProgram) -> None:
        self.program = program
        self.mem = program.fresh_memory()
        self.iregs: list[int] = [0] * 14
        self.fregs: list[float] = [0.0] * 16
        self.flags = 0
        self.output: list[str] = []
        self.half_cycles = 0
        self.steps = 0
        self.budget = 1 << 62

        # PINFI state
        self._attached = False
        self._pin_count = 0
        self._pin_plan: FaultPlan | None = None
        #: candidates and half-cycles executed while attached, frozen at
        #: detach
        self.attached_candidates = 0
        self.half_cycles_attached = 0

        # REFINE state
        self._refine_count = 0
        self._refine_plan: FaultPlan | None = None

        # LLFI state
        self._llfi_count = 0
        self._llfi_plan: FaultPlan | None = None

        self.fault: FaultRecord | None = None
        #: pc of the instruction currently executing an intrinsic
        self._cur_pc = 0

        #: when set to a list, the loop appends the pc of every dynamic
        #: candidate it observes (residency recording, repro.fi.models);
        #: only ``CPU.run`` records it, the fast engine refuses such a CPU
        self._site_trace: list[int] | None = None

        # Snapshot recording (armed by repro.snapshot): every
        # ``_snap_every`` dynamic instructions the main loop syncs its
        # local state back into the CPU and calls ``_snap_hook(cpu, pc)``
        # with the pc of the *next* instruction — a valid resume point.
        self._snap_every = 0
        self._snap_hook = None

        # Fast-engine per-CPU context: (translation, FL, block table).  Owned by
        # repro.engine.fast; lives here so one CPU reused across many runs
        # keeps its instantiated block closures.
        self._fast_ctx = None

    # -- tool arming ---------------------------------------------------------

    def attach_pinfi(self, plan: FaultPlan | None) -> None:
        """Attach the DBI tool (candidate counting + optional injection)."""
        self._attached = True
        self._pin_plan = plan
        if plan is not None:
            plan.state = None

    def arm_refine(self, plan: FaultPlan) -> None:
        plan.state = None
        self._refine_plan = plan

    def arm_llfi(self, plan: FaultPlan) -> None:
        plan.state = None
        self._llfi_plan = plan

    def record_snapshots(self, every: int, hook) -> None:
        """Invoke ``hook(cpu, next_pc)`` every ``every`` dynamic instructions.

        The hook fires at an instruction boundary with all interpreter
        state (registers, flags, memory, counters, ``steps``) synced onto
        the CPU object, so :mod:`repro.snapshot` can capture a consistent,
        resumable snapshot.  Recording is meant for fault-free golden runs;
        it costs one extra integer comparison per instruction.
        """
        if every <= 0:
            raise ValueError("snapshot interval must be >= 1")
        self._snap_every = every
        self._snap_hook = hook

    # -- LLFI stub hook (invoked from intrinsics) ----------------------------

    def llfi_visit(self, value, width: int, is_float: bool):
        """One visit of an LLFI stub: count it and return ``value``, which
        the plan's model corrupts if the count is in the dwell window."""
        self._llfi_count += 1
        if self._site_trace is not None:
            self._site_trace.append(self._cur_pc)
        plan = self._llfi_plan
        if plan is None or not (
            plan.target_index <= self._llfi_count <= plan.last_index
        ):
            return value
        return plan.model.apply_value(
            self, plan, value, width, is_float, self._llfi_count
        )

    @property
    def llfi_dynamic_count(self) -> int:
        return self._llfi_count

    @property
    def refine_dynamic_count(self) -> int:
        return self._refine_count

    @property
    def pinfi_dynamic_count(self) -> int:
        return self._pin_count

    # -- main loop ----------------------------------------------------------

    def prepare_entry(self) -> int:
        """Set up the initial stack and return the entry pc.

        Factored out of :meth:`run` so alternative execution engines can
        reuse the exact same process-start semantics (sentinel return
        address at the top of the stack) without going through ``_loop``.
        """
        prog = self.program
        # Initial stack: sentinel return address at the top.
        top = prog.stack_top
        self.iregs[RSP_IDX] = top
        self.iregs[RBP_IDX] = top
        self.mem[top:top + 8] = (HALT_PC & MASK64).to_bytes(8, "little")
        return prog.func_entry[prog.binary.entry]

    def run(self, budget: int | None = None) -> ExecutionResult:
        """Execute from the entry point until halt, trap, or budget."""
        return self._execute(self.prepare_entry(), budget)

    def resume(self, pc: int, budget: int | None = None) -> ExecutionResult:
        """Continue executing already-restored architectural state at ``pc``.

        Used by :mod:`repro.snapshot` after
        :func:`repro.snapshot.restore_snapshot` re-established the register
        file, flags, memory, output and dynamic counters: execution picks up
        mid-program exactly where the snapshot was taken, and the returned
        :class:`ExecutionResult` is bit-identical to a from-scratch run's
        (``steps`` and ``half_cycles`` include the restored prefix).
        """
        return self._execute(pc, budget)

    def _execute(self, pc: int, budget: int | None) -> ExecutionResult:
        if budget is not None:
            self.budget = budget
        try:
            self._loop(pc)
        except MachineTrap as trap:
            return self.build_result(trap=trap.kind, trap_pc=trap.pc)
        return self.build_result()

    def build_result(
        self, trap: str | None = None, trap_pc: int = -1
    ) -> ExecutionResult:
        """Package the current architectural state as an ExecutionResult."""
        result = ExecutionResult()
        result.trap = trap
        result.trap_pc = trap_pc
        result.exit_code = self.iregs[RAX_IDX] if trap is None else 0
        result.output = self.output
        result.steps = self.steps
        result.fault = self.fault
        result.half_cycles = self.half_cycles
        result.half_cycles_attached = self.half_cycles_attached
        result.attached_candidates = self.attached_candidates
        return result

    # ``_loop(entry_pc)``, the dispatch loop every engine's exact steps run
    # on, is generated from the semantics table at import: see
    # :func:`interpreter_loop`.


#: The dispatch chain's order after ``FI_CHECK`` (44-47 % of a REFINE run):
#: the dynamic opcode mix of six workloads' golden runs, most frequent first.
#: Opcodes not listed follow in table order.
_DISPATCH_ORDER = (
    O.MOV_RR, O.FMOV, O.FLOAD_RD, O.SHL_RI, O.ADD_RR, O.LOAD_RD, O.FSTORE_RD,
    O.FMUL, O.ADD_RI, O.JCC, O.FCONST, O.JMP, O.FADD, O.CMP_RR, O.FSUB,
    O.LOAD_ABS, O.FDIV, O.STORE_RD, O.FCMP, O.INTR, O.CVTSI2SD, O.CMP_RI,
    O.SUB_RI, O.IREM_RI, O.IMUL_RI, O.IMUL_RR, O.XOR_RR, O.FLOAD_ABS,
)

#: What an interpreter operand reads, by kind (``%d``: its tuple slot).
_OPERANDS = {"r": "I[t[%d]]", "f": "F[t[%d]]", "d": " + t[%d]"}


class _Interpreter(Context):
    """The loop's rendering: one arm per opcode, reading the decoded tuple
    ``t`` of the instruction at ``cur``; a condition code is decided by a
    chain over ``cc`` into ``c``."""

    JUMP = "pc = {}"
    HALT = ("half += half_cost[cur]", "steps += 1", "break")
    NEXT = ("pc = cur + 1",)

    def operand(self, kind, slot, t):
        return "c" if kind == "k" else _OPERANDS.get(kind, "t[%d]") % slot

    def fields(self, i):
        return {"pc": "cur", "next": "cur + 1", "ncode": "n_code", "top": "top",
                "stack_limit": "stack_limit", "cpu": "self", "flags": "flags",
                **REGISTER_FIELDS}

    def set_flags(self, text, f, out):
        f["fl"] = "flags"
        out.append(text.format_map(f))

    def conditions(self, sem):
        """The chain that decides the entry's condition code, if it has one."""
        if "k" not in sem.operands:
            return []
        lines = [f"cc = t[{sem.operands.index('k') + 1}]"]
        last = len(CONDITIONS) - 1
        for n, (cc, cond) in enumerate(CONDITIONS.items()):
            lines.append("else:" if n == last else f"{'elif' if n else 'if'} cc == {cc}:")
            lines.append("    c = " + cond.format(flags="flags"))
        return lines


#: The loop around the arms: REFINE's ``fi_check`` first, then the generated
#: arms, then the post-step accounting (cycles, budget, PINFI attach/detach,
#: the snapshot hook).
_LOOP = '''\
def _loop(self, entry_pc):
    prog = self.program
    code = prog.code
    is_cand = prog.is_candidate
    outputs = prog.outputs
    I = self.iregs
    F = self.fregs
    M = self.mem
    top = prog.mem_size - 8
    stack_limit = prog.stack_limit
    half_cost = prog.half_cost
    n_code = len(code)
    IN = INTRINSIC_TABLE.impls

    pc = entry_pc
    steps = self.steps
    half = self.half_cycles
    budget = self.budget
    flags = self.flags
    attached = self._attached
    pin_count = self._pin_count
    pin_plan = self._pin_plan
    refine_count = self._refine_count
    refine_plan = self._refine_plan
    snap_every = self._snap_every
    snap_hook = self._snap_hook
    snap_at = steps + snap_every if snap_every else 1 << 62
    site_trace = self._site_trace

    try:
        while True:
            cur = pc
            t = code[cur]
            op = t[0]

            if op == $FI_CHECK:
                refine_count += 1
                if site_trace is not None:
                    site_trace.append(cur)
                if (
                    refine_plan is not None
                    and refine_plan.target_index <= refine_count <= refine_plan.last_index
                ):
                    # Inject into the guarded instruction's outputs (flags
                    # are live here; sync before flipping).  A dwell window
                    # re-applies at every in-window site.
                    self.flags = flags
                    refine_plan.model.apply(self, refine_plan, cur, t[1], refine_count)
                    flags = self.flags
                pc = cur + 1
$ARMS
            else:
                raise IllegalInstruction(f"opcode {op}", cur)

            half += half_cost[cur]
            steps += 1
            if steps >= budget:
                raise ExecutionTimeout(f"budget {budget} exhausted", cur)
            if attached and is_cand[cur]:
                pin_count += 1
                if site_trace is not None:
                    site_trace.append(cur)
                if (
                    pin_plan is not None
                    and pin_plan.target_index <= pin_count <= pin_plan.last_index
                ):
                    self.flags = flags
                    pin_plan.model.apply(self, pin_plan, cur, outputs[cur], pin_count)
                    flags = self.flags
                    if pin_count >= pin_plan.last_index:
                        # Detach: instrumentation overhead ends once the
                        # fault's dwell window closes.
                        attached = False
                        self.attached_candidates = pin_count
                        self.half_cycles_attached = half
            if steps >= snap_at:
                # Snapshot boundary: sync loop-local state onto the CPU (after
                # candidate accounting, so pin_count matches the executed
                # prefix) and hand a resumable view to the hook.
                self.steps = steps
                self.half_cycles = half
                self.flags = flags
                self._pin_count = pin_count
                self._refine_count = refine_count
                self._attached = attached
                if attached:
                    self.attached_candidates = pin_count
                    self.half_cycles_attached = half
                snap_hook(self, pc)
                snap_at = steps + snap_every
    finally:
        self.steps = steps
        self.half_cycles = half
        self.flags = flags
        self._pin_count = pin_count
        self._refine_count = refine_count
        self._attached = attached
        if attached:
            self.attached_candidates = pin_count
            self.half_cycles_attached = half
'''

#: Where tracebacks and profiles find the generated loop's lines.
LOOP_FILENAME = "<generated CPU._loop>"


def _loop_source(ctx: _Interpreter) -> str:
    """:data:`_LOOP` with its arms: a chain of literal-opcode tests in
    dispatch order, each an entry of
    :data:`~repro.machine.semantics.SEMANTICS` rendered by ``ctx``."""
    order = [op for op in _DISPATCH_ORDER if op in SEMANTICS]
    order += [op for op in SEMANTICS if op not in order and op != O.FI_CHECK]
    arms = []
    for op in order:
        arms.append(f"            elif op == {op}:")
        lines = ctx.conditions(SEMANTICS[op])
        ctx.emit(op, None, lines)
        arms.append("                " + "\n".join(lines).replace("\n", "\n                "))
    return _LOOP.replace("$FI_CHECK", str(O.FI_CHECK)).replace("$ARMS", "\n".join(arms))


def _defined(source: str, filename: str, name: str):
    """Run generated ``source`` and return what it defines as ``name``; the
    source is registered with :mod:`linecache` under ``filename``."""
    ns = namespace()
    ns.update(INTRINSIC_TABLE=INTRINSIC_TABLE, ExecutionTimeout=ExecutionTimeout)
    exec(compile(source, filename, "exec"), ns)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return ns[name]


def interpreter_loop():
    """``CPU._loop``, generated from the semantics table as it is now (see
    :func:`_loop_source`), under :data:`LOOP_FILENAME`."""
    loop = _defined(_loop_source(_Interpreter()), LOOP_FILENAME, "_loop")
    loop.__qualname__ = "CPU._loop"
    return loop

CPU._loop = interpreter_loop()


class _Logging(_Interpreter):
    """The access-logging rendering: the interpreter's, with every load
    handing its address to ``NOTE`` first and every store the complement of
    its address."""

    def access(self, store, addr, out):
        out.append(f"NOTE(~({addr}))" if store else f"NOTE({addr})")


@functools.cache
def _logging_factory():
    """``make(NOTE)``, which binds the access-logging loop to its note
    (compiled once, on first use: a campaign that records no access set
    never pays for it)."""
    loop = _loop_source(_Logging()).replace("\n", "\n    ")
    return _defined(f"def make(NOTE):\n    {loop}\n    return _loop\n",
                    "<generated access-logging loop>", "make")


def access_logging_loop(note):
    """``CPU._loop`` (call it as ``loop(cpu, pc)``) rendered to call
    ``note(address)`` before every memory load and ``note(~address)``
    before every store, in execution order — ``note`` is typically a list's
    ``append``.  Each access is one 8-byte word at ``address``, aligned or
    not; nothing else touches memory."""
    return _logging_factory()(note)


def execute(
    program: LoadedProgram,
    budget: int | None = None,
) -> ExecutionResult:
    """Convenience: run a program with no fault injection."""
    return CPU(program).run(budget)
