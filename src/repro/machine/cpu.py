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
  instrumented code route through :meth:`llfi_visit_int`/``_float``.

Crashes surface as :class:`~repro.errors.MachineTrap` subclasses recorded in
the :class:`ExecutionResult` (segfault, illegal instruction, divide-by-zero,
stack overflow, timeout, abnormal exit).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from repro.errors import (
    DivideByZero,
    ExecutionTimeout,
    IllegalInstruction,
    MachineTrap,
    SegmentationFault,
    StackOverflow,
)
from repro.machine import opcodes as O
from repro.machine.intrinsics import INTRINSIC_TABLE
from repro.machine.loader import NULL_GUARD, LoadedProgram
from repro.machine.registers import (
    RAX_IDX,
    RBP_IDX,
    RSP_IDX,
    SPACE_FLOAT,
    SPACE_INT,
)
from repro.utils.bits import MASK64, to_signed64
from repro.utils.ieee754 import flip_double_bit

_PACK_D = struct.Struct("<d")

#: x86 status-flag bit positions.
_CF = 1
_PF = 1 << 2
_ZF = 1 << 6
_SF = 1 << 7
_OF = 1 << 11

#: Sentinel return address that terminates the program.
HALT_PC = -1

_INT64_MIN = -(1 << 63)

#: PF lookup: x86 parity is set when the low result byte has an even
#: number of set bits.  Indexed by ``result & 255``; yields ``_PF`` or 0.
PARITY_TABLE = tuple(
    _PF if bin(i).count("1") % 2 == 0 else 0 for i in range(256)
)


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
    #: dynamic execution count per static instruction
    counts: list[int] = field(default_factory=list)
    #: counts while a DBI tool was attached (PINFI only)
    counts_attached: list[int] | None = None
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

    ``corrupt_opcode`` models the paper's Section 4.5 extension: a flip in
    the instruction's OP-code field rather than an output register.  The
    assembly-emitting stage of the real REFINE rejects invalid OP codes, so
    like the paper this is off by default; when enabled the corrupted
    instruction raises an illegal-instruction trap.

    ``model`` selects a pluggable fault model (:mod:`repro.fi.models`).
    ``None`` is the legacy single-bit path — the hot loop's fast case.  A
    model plan may span a **dwell window**: every candidate with dynamic
    count in ``[target_index, last_index]`` applies the fault (single-shot
    plans have ``last_index == target_index``).  ``picks`` carries any
    extra pre-drawn uniforms the model needs, and ``state`` is per-run
    scratch (e.g. the stuck-at site chosen at first application) that tool
    arming resets.
    """

    __slots__ = (
        "target_index", "operand_pick", "bit_pick", "tool", "corrupt_opcode",
        "last_index", "model", "picks", "state",
    )

    def __init__(
        self,
        target_index: int,
        operand_pick: float,
        bit_pick: float,
        tool: str,
        corrupt_opcode: bool = False,
        model=None,
        picks: tuple = (),
        last_index: int | None = None,
    ) -> None:
        self.target_index = target_index
        self.operand_pick = operand_pick
        self.bit_pick = bit_pick
        self.tool = tool
        self.corrupt_opcode = corrupt_opcode
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
        self.counts = [0] * len(program.code)
        self.steps = 0
        self.budget = 1 << 62

        # PINFI state
        self._attached = False
        self._pin_count = 0
        self._pin_plan: FaultPlan | None = None
        self.counts_attached: list[int] | None = None
        self.attached_candidates = 0

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
        #: candidate it observes (residency recording, repro.fi.models)
        self._site_trace: list[int] | None = None

        # Snapshot recording (armed by repro.snapshot): every
        # ``_snap_every`` dynamic instructions the main loop syncs its
        # local state back into the CPU and calls ``_snap_hook(cpu, pc)``
        # with the pc of the *next* instruction — a valid resume point.
        self._snap_every = 0
        self._snap_hook = None

        # Fast-engine per-CPU context: (translation, FL, blocks).  Owned by
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
        self.counts_attached = self.counts
        # Execution counts accumulate into the attached array until detach.

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

    # -- fault application ----------------------------------------------------

    def _apply_fault(
        self, plan: FaultPlan, pc: int, outputs: tuple, dynamic_index: int
    ) -> None:
        """Apply one fault observation at a register-level candidate site.

        Plans without a model object take the legacy single-bit path
        (:meth:`_apply_flip`); model plans delegate so multi-bit, memory,
        and stuck-at semantics live in :mod:`repro.fi.models`.
        """
        model = plan.model
        if model is None:
            self._apply_flip(plan, pc, outputs, dynamic_index)
        else:
            model.apply(self, plan, pc, outputs, dynamic_index)

    def _apply_flip(
        self, plan: FaultPlan, pc: int, outputs: tuple, dynamic_index: int
    ) -> None:
        info = self.program.info[pc]
        model_spec = "single-bit" if plan.model is None else plan.model.spec
        if plan.corrupt_opcode:
            # Section 4.5 extension: the bit lands in the OP-code encoding,
            # yielding an undecodable instruction.
            self.fault = FaultRecord(
                tool=plan.tool,
                dynamic_index=dynamic_index,
                pc=pc,
                func=info.func,
                block=info.block,
                instr_text=info.text,
                operand_index=-1,
                operand_desc="opcode",
                bit=min(int(plan.bit_pick * 8), 7),
                value_before=info.text,
                value_after="<invalid opcode>",
                model=model_spec,
            )
            raise IllegalInstruction("corrupted opcode", pc)
        op_idx, space, reg_idx, width, bit = plan.choose(outputs)
        if space == SPACE_INT:
            before = self.iregs[reg_idx]
            after = to_signed64((before & MASK64) ^ (1 << bit))
            self.iregs[reg_idx] = after
            desc = f"ireg:{reg_idx}"
        elif space == SPACE_FLOAT:
            before = self.fregs[reg_idx]
            after = flip_double_bit(before, bit)
            self.fregs[reg_idx] = after
            desc = f"freg:{reg_idx}"
        else:
            before = self.flags
            after = self.flags ^ (1 << bit)
            self.flags = after
            desc = "flags"
        self.fault = FaultRecord(
            tool=plan.tool,
            dynamic_index=dynamic_index,
            pc=pc,
            func=info.func,
            block=info.block,
            instr_text=info.text,
            operand_index=op_idx,
            operand_desc=desc,
            bit=bit,
            value_before=before,
            value_after=after,
            model=model_spec,
        )

    # -- LLFI stub hooks (invoked from intrinsics) ---------------------------

    def llfi_visit_int(self, value: int, width: int = 64) -> int:
        self._llfi_count += 1
        if self._site_trace is not None:
            self._site_trace.append(self._cur_pc)
        plan = self._llfi_plan
        if plan is None or not (
            plan.target_index <= self._llfi_count <= plan.last_index
        ):
            return value
        if plan.model is not None:
            return plan.model.apply_value(
                self, plan, value, width, False, self._llfi_count
            )
        # LLFI flips a bit of the IR value, uniform over its bit width.
        bit = min(int(plan.bit_pick * width), width - 1)
        after = to_signed64((value & MASK64) ^ (1 << bit))
        pc = self._cur_pc
        info = self.program.info[pc]
        self.fault = FaultRecord(
            tool=plan.tool,
            dynamic_index=self._llfi_count,
            pc=pc,
            func=info.func,
            block=info.block,
            instr_text=info.text,
            operand_index=0,
            operand_desc="ir-value:i64",
            bit=bit,
            value_before=value,
            value_after=after,
        )
        return after

    def llfi_visit_float(self, value: float) -> float:
        self._llfi_count += 1
        if self._site_trace is not None:
            self._site_trace.append(self._cur_pc)
        plan = self._llfi_plan
        if plan is None or not (
            plan.target_index <= self._llfi_count <= plan.last_index
        ):
            return value
        if plan.model is not None:
            return plan.model.apply_value(
                self, plan, value, 64, True, self._llfi_count
            )
        bit = min(int(plan.bit_pick * 64), 63)
        after = flip_double_bit(value, bit)
        pc = self._cur_pc
        info = self.program.info[pc]
        self.fault = FaultRecord(
            tool=plan.tool,
            dynamic_index=self._llfi_count,
            pc=pc,
            func=info.func,
            block=info.block,
            instr_text=info.text,
            operand_index=0,
            operand_desc="ir-value:f64",
            bit=bit,
            value_before=value,
            value_after=after,
        )
        return after

    @property
    def llfi_dynamic_count(self) -> int:
        return self._llfi_count

    @property
    def refine_dynamic_count(self) -> int:
        return self._refine_count

    @property
    def pinfi_dynamic_count(self) -> int:
        return self._pin_count

    # -- memory ---------------------------------------------------------------

    def _read_i64(self, addr: int, pc: int) -> int:
        if addr < NULL_GUARD or addr + 8 > self.program.mem_size:
            raise SegmentationFault(f"load from {addr:#x}", pc)
        return int.from_bytes(self.mem[addr : addr + 8], "little", signed=True)

    def _write_i64(self, addr: int, value: int, pc: int) -> None:
        if addr < NULL_GUARD or addr + 8 > self.program.mem_size:
            raise SegmentationFault(f"store to {addr:#x}", pc)
        self.mem[addr : addr + 8] = (value & MASK64).to_bytes(8, "little")

    def _read_f64(self, addr: int, pc: int) -> float:
        if addr < NULL_GUARD or addr + 8 > self.program.mem_size:
            raise SegmentationFault(f"fload from {addr:#x}", pc)
        return _PACK_D.unpack_from(self.mem, addr)[0]

    def _write_f64(self, addr: int, value: float, pc: int) -> None:
        if addr < NULL_GUARD or addr + 8 > self.program.mem_size:
            raise SegmentationFault(f"fstore to {addr:#x}", pc)
        _PACK_D.pack_into(self.mem, addr, value)

    # -- main loop ----------------------------------------------------------

    def prepare_entry(self) -> int:
        """Set up the initial stack and return the entry pc.

        Factored out of :meth:`run` so alternative execution engines can
        reuse the exact same process-start semantics (sentinel return
        address at the top of the stack) without going through ``_loop``.
        """
        prog = self.program
        # Initial stack: sentinel return address at the top.
        self.iregs[RSP_IDX] = prog.stack_top
        self.iregs[RBP_IDX] = prog.stack_top
        self._write_i64(prog.stack_top, HALT_PC & MASK64, -1)
        # (stored as unsigned; read back signed gives -1)
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
        (``steps`` and ``counts`` include the restored prefix).
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
        result.counts = self.counts
        result.counts_attached = self.counts_attached
        result.attached_candidates = self.attached_candidates
        return result

    def _loop(self, entry_pc: int) -> None:  # noqa: C901 - dispatch loop
        prog = self.program
        code = prog.code
        costs = prog.cost
        is_cand = prog.is_candidate
        outputs = prog.outputs
        iregs = self.iregs
        fregs = self.fregs
        mem = self.mem
        mem_size = prog.mem_size
        stack_limit = prog.stack_limit
        counts = self.counts
        n_code = len(code)
        intr_impls = INTRINSIC_TABLE.impls

        # Dispatch compares against locals (no global + attribute load per
        # arm), in the order of the workloads' dynamic opcode mix: fi_check
        # (44-47 % of a REFINE run) first, then mov, fmov, loads, add, ...
        FI_CHECK, MOV_RR, MOV_RI, LOAD_RD, FLOAD_RD, ADD_RR = (
            O.FI_CHECK, O.MOV_RR, O.MOV_RI, O.LOAD_RD, O.FLOAD_RD, O.ADD_RR)
        ADD_RI, SUB_RR, SUB_RI, CMP_RR, CMP_RI, JCC = (
            O.ADD_RI, O.SUB_RR, O.SUB_RI, O.CMP_RR, O.CMP_RI, O.JCC)
        JMP, FADD, FMUL, FSUB, FDIV, STORE_RD = (
            O.JMP, O.FADD, O.FMUL, O.FSUB, O.FDIV, O.STORE_RD)
        FSTORE_RD, FMOV, FCONST, SHL_RI, SHL_RR, SAR_RI = (
            O.FSTORE_RD, O.FMOV, O.FCONST, O.SHL_RI, O.SHL_RR, O.SAR_RI)
        SAR_RR, IMUL_RR, IMUL_RI, AND_RR, AND_RI, OR_RR = (
            O.SAR_RR, O.IMUL_RR, O.IMUL_RI, O.AND_RR, O.AND_RI, O.OR_RR)
        OR_RI, XOR_RR, XOR_RI, NEG, IDIV_RR, IDIV_RI = (
            O.OR_RI, O.XOR_RR, O.XOR_RI, O.NEG, O.IDIV_RR, O.IDIV_RI)
        IREM_RR, IREM_RI, FCMP, SETCC, CMOV, LEA_RD = (
            O.IREM_RR, O.IREM_RI, O.FCMP, O.SETCC, O.CMOV, O.LEA_RD)
        LEA_ABS, LOAD_ABS, FLOAD_ABS, STORE_ABS, STORE_ABS_I, FSTORE_ABS = (
            O.LEA_ABS, O.LOAD_ABS, O.FLOAD_ABS, O.STORE_ABS, O.STORE_ABS_I, O.FSTORE_ABS)
        STORE_RD_I, PUSH, POP, CALL, INTR, RET = (
            O.STORE_RD_I, O.PUSH, O.POP, O.CALL, O.INTR, O.RET)
        CVTSI2SD, CVTTSD2SI = O.CVTSI2SD, O.CVTTSD2SI

        pc = entry_pc
        steps = self.steps
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

                if op == FI_CHECK:
                    refine_count += 1
                    if site_trace is not None:
                        site_trace.append(cur)
                    if (
                        refine_plan is not None
                        and refine_plan.target_index
                        <= refine_count
                        <= refine_plan.last_index
                    ):
                        # Inject into the guarded instruction's outputs
                        # (flags are live here; sync before flipping).  A
                        # dwell window re-applies at every in-window site.
                        self.flags = flags
                        self._apply_fault(
                            refine_plan, cur, t[1], refine_count
                        )
                        flags = self.flags
                    pc = cur + 1
                elif op == MOV_RR:
                    iregs[t[1]] = iregs[t[2]]
                    pc = cur + 1
                elif op == FMOV:
                    fregs[t[1]] = fregs[t[2]]
                    pc = cur + 1
                elif op == FLOAD_RD:
                    addr = iregs[t[2]] + t[3]
                    if addr < NULL_GUARD or addr + 8 > mem_size:
                        raise SegmentationFault(f"fload from {addr:#x}", cur)
                    fregs[t[1]] = _PACK_D.unpack_from(mem, addr)[0]
                    pc = cur + 1
                elif op == ADD_RR or op == ADD_RI:
                    a = iregs[t[1]]
                    b = iregs[t[2]] if op == ADD_RR else t[2]
                    r = a + b
                    wrapped = r if _INT64_MIN <= r < -_INT64_MIN else to_signed64(r)
                    iregs[t[1]] = wrapped
                    flags = PARITY_TABLE[wrapped & 255]
                    if wrapped == 0:
                        flags |= _ZF
                    elif wrapped < 0:
                        flags |= _SF
                    if r != wrapped:
                        flags |= _OF
                    if (a & MASK64) + (b & MASK64) > MASK64:
                        flags |= _CF
                    pc = cur + 1
                elif op == LOAD_RD:
                    addr = iregs[t[2]] + t[3]
                    if addr < NULL_GUARD or addr + 8 > mem_size:
                        raise SegmentationFault(f"load from {addr:#x}", cur)
                    iregs[t[1]] = int.from_bytes(
                        mem[addr : addr + 8], "little", signed=True
                    )
                    pc = cur + 1
                elif op == SHL_RI or op == SHL_RR:
                    count = (t[2] if op == SHL_RI else iregs[t[2]]) & 63
                    r = to_signed64(iregs[t[1]] << count)
                    iregs[t[1]] = r
                    flags = (
                        _ZF if r == 0 else (_SF if r < 0 else 0)
                    ) | PARITY_TABLE[r & 255]
                    pc = cur + 1
                elif op == INTR:
                    self._cur_pc = cur
                    self.flags = flags
                    intr_impls[t[1]](self)
                    flags = self.flags
                    pc = cur + 1
                elif op == MOV_RI:
                    iregs[t[1]] = t[2]
                    pc = cur + 1
                elif op == FSTORE_RD:
                    addr = iregs[t[1]] + t[2]
                    if addr < NULL_GUARD or addr + 8 > mem_size:
                        raise SegmentationFault(f"fstore to {addr:#x}", cur)
                    _PACK_D.pack_into(mem, addr, fregs[t[3]])
                    pc = cur + 1
                elif op == FMUL:
                    fregs[t[1]] = fregs[t[1]] * fregs[t[2]]
                    pc = cur + 1
                elif op == JCC:
                    cc = t[1]
                    if cc == 1:  # ne
                        taken = not flags & _ZF
                    elif cc == 0:  # e
                        taken = bool(flags & _ZF)
                    elif cc == 2:  # l
                        taken = bool(flags & _SF) != bool(flags & _OF)
                    elif cc == 3:  # le
                        taken = bool(flags & _ZF) or (
                            bool(flags & _SF) != bool(flags & _OF)
                        )
                    elif cc == 4:  # g
                        taken = not flags & _ZF and (
                            bool(flags & _SF) == bool(flags & _OF)
                        )
                    elif cc == 5:  # ge
                        taken = bool(flags & _SF) == bool(flags & _OF)
                    elif cc == 6:  # b
                        taken = bool(flags & _CF)
                    elif cc == 7:  # be
                        taken = bool(flags & (_CF | _ZF))
                    elif cc == 8:  # a
                        taken = not flags & (_CF | _ZF)
                    elif cc == 9:  # ae
                        taken = not flags & _CF
                    elif cc == 10:  # s
                        taken = bool(flags & _SF)
                    elif cc == 11:  # ns
                        taken = not flags & _SF
                    elif cc == 12:  # p
                        taken = bool(flags & _PF)
                    else:  # np
                        taken = not flags & _PF
                    pc = t[2] if taken else cur + 1
                elif op == CMP_RR or op == CMP_RI:
                    a = iregs[t[1]]
                    b = iregs[t[2]] if op == CMP_RR else t[2]
                    r = a - b
                    wrapped = r if _INT64_MIN <= r < -_INT64_MIN else to_signed64(r)
                    flags = PARITY_TABLE[wrapped & 255]
                    if wrapped == 0:
                        flags |= _ZF
                    elif wrapped < 0:
                        flags |= _SF
                    if r != wrapped:
                        flags |= _OF
                    if (a & MASK64) < (b & MASK64):
                        flags |= _CF
                    pc = cur + 1
                elif op == JMP:
                    pc = t[1]
                elif op == FADD:
                    fregs[t[1]] = fregs[t[1]] + fregs[t[2]]
                    pc = cur + 1
                elif op == FCONST:
                    fregs[t[1]] = t[2]
                    pc = cur + 1
                elif op == STORE_RD:
                    addr = iregs[t[1]] + t[2]
                    if addr < NULL_GUARD or addr + 8 > mem_size:
                        raise SegmentationFault(f"store to {addr:#x}", cur)
                    mem[addr : addr + 8] = (iregs[t[3]] & MASK64).to_bytes(
                        8, "little"
                    )
                    pc = cur + 1
                elif op == FSUB:
                    fregs[t[1]] = fregs[t[1]] - fregs[t[2]]
                    pc = cur + 1
                elif op == LOAD_ABS:
                    addr = t[2]
                    iregs[t[1]] = int.from_bytes(
                        mem[addr : addr + 8], "little", signed=True
                    )
                    pc = cur + 1
                elif op == IREM_RR or op == IREM_RI:
                    a = iregs[t[1]]
                    b = iregs[t[2]] if op == IREM_RR else t[2]
                    if b == 0 or (a == _INT64_MIN and b == -1):
                        raise DivideByZero(f"{a} irem {b}", cur)
                    r = abs(a) % abs(b)
                    if a < 0:
                        r = -r
                    iregs[t[1]] = r
                    flags = (
                        _ZF if r == 0 else (_SF if r < 0 else 0)
                    ) | PARITY_TABLE[r & 255]
                    pc = cur + 1
                elif op == SUB_RR or op == SUB_RI:
                    a = iregs[t[1]]
                    b = iregs[t[2]] if op == SUB_RR else t[2]
                    r = a - b
                    wrapped = r if _INT64_MIN <= r < -_INT64_MIN else to_signed64(r)
                    iregs[t[1]] = wrapped
                    flags = PARITY_TABLE[wrapped & 255]
                    if wrapped == 0:
                        flags |= _ZF
                    elif wrapped < 0:
                        flags |= _SF
                    if r != wrapped:
                        flags |= _OF
                    if (a & MASK64) < (b & MASK64):
                        flags |= _CF
                    pc = cur + 1
                elif op == SETCC:
                    cc = t[2]
                    if cc == 0:
                        v = bool(flags & _ZF)
                    elif cc == 1:
                        v = not flags & _ZF
                    elif cc == 2:
                        v = bool(flags & _SF) != bool(flags & _OF)
                    elif cc == 3:
                        v = bool(flags & _ZF) or (
                            bool(flags & _SF) != bool(flags & _OF)
                        )
                    elif cc == 4:
                        v = not flags & _ZF and (
                            bool(flags & _SF) == bool(flags & _OF)
                        )
                    elif cc == 5:
                        v = bool(flags & _SF) == bool(flags & _OF)
                    elif cc == 6:
                        v = bool(flags & _CF)
                    elif cc == 7:
                        v = bool(flags & (_CF | _ZF))
                    elif cc == 8:
                        v = not flags & (_CF | _ZF)
                    elif cc == 9:
                        v = not flags & _CF
                    elif cc == 10:
                        v = bool(flags & _SF)
                    elif cc == 11:
                        v = not flags & _SF
                    elif cc == 12:
                        v = bool(flags & _PF)
                    else:
                        v = not flags & _PF
                    iregs[t[1]] = 1 if v else 0
                    pc = cur + 1
                elif op == FDIV:
                    a = fregs[t[1]]
                    b = fregs[t[2]]
                    if b == 0.0:
                        if a == 0.0 or a != a:
                            fregs[t[1]] = math.nan
                        else:
                            fregs[t[1]] = math.copysign(
                                math.inf, a
                            ) * math.copysign(1.0, b)
                    else:
                        fregs[t[1]] = a / b
                    pc = cur + 1
                elif op == FCMP:
                    a = fregs[t[1]]
                    b = fregs[t[2]]
                    # ucomisd semantics
                    if a != a or b != b:  # unordered (NaN)
                        flags = _ZF | _PF | _CF
                    elif a == b:
                        flags = _ZF
                    elif a < b:
                        flags = _CF
                    else:
                        flags = 0
                    pc = cur + 1
                elif op == IMUL_RR or op == IMUL_RI:
                    a = iregs[t[1]]
                    b = iregs[t[2]] if op == IMUL_RR else t[2]
                    r = a * b
                    wrapped = r if _INT64_MIN <= r < -_INT64_MIN else to_signed64(r)
                    iregs[t[1]] = wrapped
                    flags = (
                        _ZF if wrapped == 0 else (_SF if wrapped < 0 else 0)
                    ) | PARITY_TABLE[wrapped & 255]
                    if r != wrapped:
                        flags |= _OF | _CF
                    pc = cur + 1
                elif op == CVTSI2SD:
                    fregs[t[1]] = float(iregs[t[2]])
                    pc = cur + 1
                elif op == FLOAD_ABS:
                    fregs[t[1]] = _PACK_D.unpack_from(mem, t[2])[0]
                    pc = cur + 1
                elif op == XOR_RR or op == XOR_RI:
                    b = iregs[t[2]] if op == XOR_RR else t[2]
                    r = iregs[t[1]] ^ b
                    iregs[t[1]] = r
                    flags = (
                        _ZF if r == 0 else (_SF if r < 0 else 0)
                    ) | PARITY_TABLE[r & 255]
                    pc = cur + 1
                elif op == PUSH:
                    sp = iregs[RSP_IDX] - 8
                    if sp < stack_limit:
                        raise StackOverflow(f"rsp={sp:#x}", cur)
                    if sp + 8 > mem_size:
                        raise SegmentationFault(f"push to {sp:#x}", cur)
                    iregs[RSP_IDX] = sp
                    mem[sp : sp + 8] = (iregs[t[1]] & MASK64).to_bytes(8, "little")
                    pc = cur + 1
                elif op == POP:
                    sp = iregs[RSP_IDX]
                    if sp < NULL_GUARD or sp + 8 > mem_size:
                        raise SegmentationFault(f"pop from {sp:#x}", cur)
                    iregs[t[1]] = int.from_bytes(
                        mem[sp : sp + 8], "little", signed=True
                    )
                    iregs[RSP_IDX] = sp + 8
                    pc = cur + 1
                elif op == RET:
                    sp = iregs[RSP_IDX]
                    if sp < NULL_GUARD or sp + 8 > mem_size:
                        raise SegmentationFault(f"ret pop from {sp:#x}", cur)
                    ret_pc = int.from_bytes(
                        mem[sp : sp + 8], "little", signed=True
                    )
                    iregs[RSP_IDX] = sp + 8
                    if ret_pc == HALT_PC:
                        counts[cur] += 1
                        steps += 1
                        break
                    if not 0 <= ret_pc < n_code:
                        raise IllegalInstruction(
                            f"ret to {ret_pc:#x}", cur
                        )
                    pc = ret_pc
                elif op == CALL:
                    sp = iregs[RSP_IDX] - 8
                    if sp < stack_limit:
                        raise StackOverflow(f"rsp={sp:#x}", cur)
                    if sp + 8 > mem_size:
                        raise SegmentationFault(f"call push to {sp:#x}", cur)
                    iregs[RSP_IDX] = sp
                    mem[sp : sp + 8] = ((cur + 1) & MASK64).to_bytes(8, "little")
                    pc = t[1]
                elif op == IDIV_RR or op == IDIV_RI:
                    a = iregs[t[1]]
                    b = iregs[t[2]] if op == IDIV_RR else t[2]
                    if b == 0 or (a == _INT64_MIN and b == -1):
                        raise DivideByZero(f"{a} idiv {b}", cur)
                    q = abs(a) // abs(b)
                    if (a < 0) != (b < 0):
                        q = -q
                    iregs[t[1]] = q
                    flags = (
                        _ZF if q == 0 else (_SF if q < 0 else 0)
                    ) | PARITY_TABLE[q & 255]
                    pc = cur + 1
                elif op == AND_RR or op == AND_RI:
                    b = iregs[t[2]] if op == AND_RR else t[2]
                    r = iregs[t[1]] & b
                    iregs[t[1]] = r
                    flags = (
                        _ZF if r == 0 else (_SF if r < 0 else 0)
                    ) | PARITY_TABLE[r & 255]
                    pc = cur + 1
                elif op == OR_RR or op == OR_RI:
                    b = iregs[t[2]] if op == OR_RR else t[2]
                    r = iregs[t[1]] | b
                    iregs[t[1]] = r
                    flags = (
                        _ZF if r == 0 else (_SF if r < 0 else 0)
                    ) | PARITY_TABLE[r & 255]
                    pc = cur + 1
                elif op == SAR_RI or op == SAR_RR:
                    count = (t[2] if op == SAR_RI else iregs[t[2]]) & 63
                    r = iregs[t[1]] >> count
                    iregs[t[1]] = r
                    flags = (
                        _ZF if r == 0 else (_SF if r < 0 else 0)
                    ) | PARITY_TABLE[r & 255]
                    pc = cur + 1
                elif op == LEA_ABS:
                    iregs[t[1]] = t[2]
                    pc = cur + 1
                elif op == CVTTSD2SI:
                    v = fregs[t[2]]
                    if v != v or v in (math.inf, -math.inf):
                        iregs[t[1]] = _INT64_MIN
                    else:
                        truncated = math.trunc(v)
                        if not _INT64_MIN <= truncated < -_INT64_MIN:
                            iregs[t[1]] = _INT64_MIN
                        else:
                            iregs[t[1]] = truncated
                    pc = cur + 1
                elif op == STORE_RD_I:
                    addr = iregs[t[1]] + t[2]
                    if addr < NULL_GUARD or addr + 8 > mem_size:
                        raise SegmentationFault(f"store to {addr:#x}", cur)
                    mem[addr : addr + 8] = (t[3] & MASK64).to_bytes(8, "little")
                    pc = cur + 1
                elif op == LEA_RD:
                    iregs[t[1]] = iregs[t[2]] + t[3]
                    pc = cur + 1
                elif op == STORE_ABS:
                    addr = t[1]
                    mem[addr : addr + 8] = (iregs[t[2]] & MASK64).to_bytes(
                        8, "little"
                    )
                    pc = cur + 1
                elif op == STORE_ABS_I:
                    addr = t[1]
                    mem[addr : addr + 8] = (t[2] & MASK64).to_bytes(8, "little")
                    pc = cur + 1
                elif op == FSTORE_ABS:
                    _PACK_D.pack_into(mem, t[1], fregs[t[2]])
                    pc = cur + 1
                elif op == NEG:
                    r = to_signed64(-iregs[t[1]])
                    iregs[t[1]] = r
                    flags = (
                        _ZF if r == 0 else (_SF if r < 0 else 0)
                    ) | PARITY_TABLE[r & 255]
                    pc = cur + 1
                elif op == CMOV:
                    cc = t[3]
                    if _cc_holds(cc, flags):
                        iregs[t[1]] = iregs[t[2]]
                    pc = cur + 1
                else:
                    raise IllegalInstruction(f"opcode {op}", cur)

                counts[cur] += 1
                steps += 1
                if steps >= budget:
                    raise ExecutionTimeout(f"budget {budget} exhausted", cur)
                if attached and is_cand[cur]:
                    pin_count += 1
                    if site_trace is not None:
                        site_trace.append(cur)
                    if (
                        pin_plan is not None
                        and pin_plan.target_index
                        <= pin_count
                        <= pin_plan.last_index
                    ):
                        self.flags = flags
                        self._apply_fault(
                            pin_plan, cur, outputs[cur], pin_count
                        )
                        flags = self.flags
                        if pin_count >= pin_plan.last_index:
                            # Detach: instrumentation overhead ends once the
                            # fault's dwell window closes.
                            attached = False
                            self.attached_candidates = pin_count
                            counts = [0] * n_code
                            self.counts = counts
                if steps >= snap_at:
                    # Snapshot boundary: sync loop-local state onto the CPU
                    # (after candidate accounting, so pin_count matches the
                    # executed prefix) and hand a resumable view to the hook.
                    self.steps = steps
                    self.flags = flags
                    self._pin_count = pin_count
                    self._refine_count = refine_count
                    self._attached = attached
                    snap_hook(self, pc)
                    snap_at = steps + snap_every
        finally:
            self.steps = steps
            self.flags = flags
            self._pin_count = pin_count
            self._refine_count = refine_count
            self._attached = attached
            if attached:
                self.attached_candidates = pin_count
                # Never detached: all counts are attached counts.
                if self.counts_attached is not self.counts:
                    self.counts_attached = self.counts


def _cc_holds(cc: int, flags: int) -> bool:
    """Out-of-line condition evaluation for rare opcodes (cmov)."""
    zf = bool(flags & _ZF)
    sf = bool(flags & _SF)
    of = bool(flags & _OF)
    cf = bool(flags & _CF)
    return (
        (cc == 0 and zf)
        or (cc == 1 and not zf)
        or (cc == 2 and sf != of)
        or (cc == 3 and (zf or sf != of))
        or (cc == 4 and not zf and sf == of)
        or (cc == 5 and sf == of)
        or (cc == 6 and cf)
        or (cc == 7 and (cf or zf))
        or (cc == 8 and not cf and not zf)
        or (cc == 9 and not cf)
        or (cc == 10 and sf)
        or (cc == 11 and not sf)
        or (cc == 12 and bool(flags & _PF))
        or (cc == 13 and not flags & _PF)
    )


def execute(
    program: LoadedProgram,
    budget: int | None = None,
) -> ExecutionResult:
    """Convenience: run a program with no fault injection."""
    return CPU(program).run(budget)
