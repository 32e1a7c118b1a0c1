"""The free-run fast engine (ZOFI-style execution core).

Executes translated basic-block superinstructions at full speed and only
pays for instrumentation where an event can actually occur.  Every such
event is served by the reference ``CPU._loop`` itself, so its semantics are
reference-exact by construction:

* **budget tails** — when the next block could cross the step budget, the
  remainder of the run is delegated to the reference loop (the
  timeout-vs-snapshot-vs-halt ordering lives there);
* **exact strides** — a sync point inside the next block, an armed
  REFINE/PINFI plan whose counter would cross its target inside it, or a pc
  that is not a translated block entry (a sync state, the instruction after
  a fire point, a corrupted return address) all take the one slow path:
  flush the batch, run the reference loop for exactly k instructions — to
  the sync step, through the fire point, to the end of the enclosing block —
  and free-run again from wherever that stops (the ZOFI insight: the binary
  runs uninstrumented outside a bounded window around the injection point).
  While a dwell window is open every site is a fire point, and the
  reference loop runs in :data:`CAREFUL_WINDOW`-instruction windows;
* **armed snapshot hooks** — a CPU carrying a
  :meth:`~repro.machine.cpu.CPU.record_snapshots` hook is executed entirely
  by the reference loop, so the hook fires at exactly the reference steps.

**Translation is the only code generation.**  A mid-block entry is
interpreted to the end of its block, never compiled: every sync point and
every fire point lands mid-block and is usually entered there once.  A
Python function generated per entry cost ≈ 1.1 ms per distinct pc (lulesh /
REFINE: 144 of them at n = 24, 490 at n = 1068, 932 interior pcs in all);
interpreting instead costs ≈ 0.13 ms per experiment (≈ 2.7 more ≈ 50 µs
strides per tail), which compiling wins back only past ≈ 4–8 k experiments
per cell — 4–8 × the paper's n = 1068, and then by a percent or two.

Everything observable — steps, per-pc counts, trigger counters, traps,
flags, output — is bit-identical to the reference interpreter: free-run
accounting is batched per block (a block is a contiguous pc range, so its
contribution is a static constant) and trap unwinding rewinds the batch to
the executed prefix.  LLFI needs no arming at all: its injection fires
inside intrinsic calls, which free-run blocks execute natively.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.engine.cache import GLOBAL_CACHE
from repro.errors import MachineTrap
from repro.machine.cpu import CPU, ExecutionResult
from repro.machine import opcodes as O

#: Careful-window granularity: while an armed plan's next fire point is not
#: one static instruction (its dwell window is open), the reference loop
#: runs with a watcher every this many instructions; the engine returns to
#: the trampoline at the first watcher tick that finds a fault applied.
CAREFUL_WINDOW = 256

#: Sentinel step count larger than any budget ("no sync point pending").
_NO_SYNC = 1 << 62

#: Trigger-counter name -> per-block static increment table on the
#: translation (see :class:`repro.engine.blocks.BlockMeta`).
CURSOR_TABLES = {
    "refine_count": "sites",
    "pin_count": "cands",
    "llfi_count": "llfis",
}


class _ExitFast(Exception):
    """Internal: leave the reference loop and return to free-run at ``pc``."""

    def __init__(self, pc: int) -> None:
        self.pc = pc


def _fault_watcher(cpu: CPU, pc: int) -> None:
    if cpu.fault is not None:
        raise _ExitFast(pc)


def _step_stop(cpu: CPU, pc: int) -> None:
    raise _ExitFast(pc)


class FastEngine:
    """Block-translated free-run execution; see module docstring."""

    name = "fast"

    #: translations are shared process-wide, once per binary
    cache = GLOBAL_CACHE

    # -- whole runs ---------------------------------------------------------

    def run(self, cpu: CPU, budget: int | None = None) -> ExecutionResult:
        return self._drive(cpu, cpu.prepare_entry(), budget)

    def resume(self, cpu: CPU, pc: int, budget: int | None = None) -> ExecutionResult:
        return self._drive(cpu, pc, budget)

    def resume_synced(
        self,
        cpu: CPU,
        pc: int,
        budget: int | None,
        syncs,
        on_sync,
    ) -> ExecutionResult | None:
        """Resume with exact-step observation points.

        ``syncs`` is a sorted sequence of absolute dynamic-instruction
        counts; at each one the engine pauses with the CPU state fully
        synced (steps, counters, counts, flags) and calls
        ``on_sync(cpu, pc)``.  A truthy return stops execution and makes
        this method return ``None`` — the caller owns the rest of the run
        (the scheduler uses this to splice a golden tail once a faulty run
        has provably re-converged).  Sync points already behind ``cpu.steps``
        are skipped; points the run never reaches (halt, trap, timeout,
        or a careful-window overshoot) are silently dropped.
        """
        return self._drive(cpu, pc, budget, syncs=syncs, on_sync=on_sync)

    # -- trampoline ---------------------------------------------------------

    @staticmethod
    def _block_ctx(cpu: CPU, trans):
        """Per-CPU instantiated-blocks cache.

        Instantiating a translation builds one closure per block, which
        costs more than a short fault tail executes.  The generated
        closures capture ``cpu.iregs``/``cpu.fregs``/``cpu.mem`` by
        identity, and every state mutation (including snapshot restore)
        is in-place, so one instantiation per (CPU, translation) pair is
        enough — campaign schedulers reuse a single CPU across tails.
        """
        ctx = cpu._fast_ctx
        if ctx is None or ctx[0] is not trans:
            FL = [cpu.flags]
            ctx = cpu._fast_ctx = (trans, FL, trans.instantiate(cpu, FL))
        return ctx[1], ctx[2]

    @staticmethod
    def _fire_offset(
        program, pc, end, r_armed, need_r, p_armed, need_p
    ) -> int | None:
        """Slow-loop steps from entry ``pc`` through the instruction where
        an armed trigger reaches its target.

        A basic block is straight-line, so the ``need``-th FI_CHECK (or
        PINFI candidate) after ``pc`` is statically determined.  ``None``
        when neither armed counter's crossing is locatable in the block —
        the counter is already at or past its target, i.e. a dwell window
        is open (the caller falls back to the watcher window).
        """
        k = None
        if r_armed:
            code = program.code
            need = need_r
            for p in range(pc, end):
                if code[p][0] == O.FI_CHECK:
                    need -= 1
                    if not need:
                        k = p - pc + 1
                        break
        if p_armed:
            is_cand = program.is_candidate
            need = need_p
            for p in range(pc, end):
                if is_cand[p]:
                    need -= 1
                    if not need:
                        off = p - pc + 1
                        if k is None or off < k:
                            k = off
                        break
        return k

    @staticmethod
    def _reload(cpu: CPU, FL, syncs):
        """The trampoline's locals, read off a synced CPU: ``(steps, rc,
        pin, attached, r_plan, p_plan, sync_v)``.

        A plan stays armed only until its fault has fired and its dwell
        window has closed (single-shot plans: ``last_index ==
        target_index``); ``sync_v`` is the first sync point still ahead —
        any the reference loop overshot are dropped (sync observation is
        opportunistic).
        """
        steps = cpu.steps
        FL[0] = cpu.flags
        rc = cpu._refine_count
        pin = cpu._pin_count
        r_plan = cpu._refine_plan
        p_plan = cpu._pin_plan
        if cpu.fault is not None:
            if r_plan is not None and rc >= r_plan.last_index:
                r_plan = None
            if p_plan is not None and pin >= p_plan.last_index:
                p_plan = None
        sync_v = _NO_SYNC
        if syncs:
            sync_i = bisect_right(syncs, steps)
            if sync_i < len(syncs):
                sync_v = syncs[sync_i]
        return steps, rc, pin, cpu._attached, r_plan, p_plan, sync_v

    def _interpret(self, cpu, FL, execs, trans, steps, rc, pin, pc, k, syncs):
        """The one slow path: flush the batch, run the reference loop from
        ``pc`` for exactly ``k`` instructions (``None``: the watcher
        window), and reload the trampoline's locals.

        Returns ``(pc, *_reload())`` with ``pc`` the instruction to
        free-run from, ``None`` if the program halted first.  Machine traps
        propagate.  Armed plans, dwell windows, LLFI intrinsics and the
        PINFI detach inside the stride are the reference loop's business.
        """
        self._flush(cpu, FL, execs, trans, steps, rc, pin)
        if k is None:
            cpu._snap_every, cpu._snap_hook = CAREFUL_WINDOW, _fault_watcher
        else:
            cpu._snap_every, cpu._snap_hook = k, _step_stop
        try:
            cpu._loop(pc)
            pc = None  # a halt on the k-th instruction never reaches the hook
        except _ExitFast as exc:
            pc = exc.pc
        finally:
            cpu._snap_every = 0
            cpu._snap_hook = None
        return (pc, *self._reload(cpu, FL, syncs))

    def _drive(
        self,
        cpu: CPU,
        pc: int,
        budget: int | None,
        syncs=None,
        on_sync=None,
    ) -> ExecutionResult | None:
        if budget is not None:
            cpu.budget = budget
        if cpu._snap_every:
            # An armed snapshot hook: full instrumentation, reference loop.
            return cpu._execute(pc, None)

        trans = self.cache.translation_for(cpu.program)
        FL, blocks = self._block_ctx(cpu, trans)
        lens = trans.lens
        sites = trans.sites
        cands = trans.cands
        execs: dict[int, int] = {}

        budget_v = cpu.budget
        # (a fault that fired before the resume point may already have
        # closed a plan's window: _reload disarms it)
        steps, rc, pin, attached, r_plan, p_plan, sync_v = self._reload(
            cpu, FL, syncs
        )
        r_target = r_plan.target_index if r_plan is not None else 0
        p_target = p_plan.target_index if p_plan is not None else 0

        blocks_get = blocks.get

        try:
            while True:
                fn = blocks_get(pc)
                if fn is None:
                    trans.cover(pc)  # not a block entry: static facts only
                n = lens[pc]

                if steps + n >= budget_v and budget_v <= sync_v:
                    # The budget could expire inside this block: hand the
                    # whole tail to the reference loop (plans included),
                    # preserving the exact timeout/halt ordering at the
                    # boundary.  (On a budget/sync tie the timeout wins,
                    # matching the reference loop's check order, so the
                    # sync point is moot.)
                    self._flush(cpu, FL, execs, trans, steps, rc, pin)
                    cpu._loop(pc)
                    return cpu.build_result()

                at_sync = steps + n >= sync_v
                r_armed = r_plan is not None and rc + sites[pc] >= r_target
                p_armed = (
                    p_plan is not None and attached and pin + cands[pc] >= p_target
                )
                if at_sync or r_armed or p_armed or fn is None:
                    if at_sync:
                        # A sync point lands inside this block: stop at
                        # exactly that step, then observe.
                        k = sync_v - steps
                    elif r_armed or p_armed:
                        # The armed trigger fires inside this block, at a
                        # statically known instruction: slow-step exactly
                        # through it.  (Not locatable: watcher window.)
                        k = self._fire_offset(
                            cpu.program, pc, trans.ends[pc],
                            r_armed, r_target - rc, p_armed, p_target - pin,
                        )
                    else:
                        # Entered mid-block: finish the block.
                        k = n
                    (pc, steps, rc, pin, attached, r_plan, p_plan,
                     sync_v) = self._interpret(
                        cpu, FL, execs, trans, steps, rc, pin, pc, k, syncs
                    )
                    if pc is None:
                        return cpu.build_result()  # halted inside the stride
                    if at_sync and on_sync is not None and on_sync(cpu, pc):
                        return None
                    continue

                try:
                    next_pc = fn()
                except MachineTrap as trap:
                    self._unwind_trap(cpu, FL, execs, trans, steps, rc, pin,
                                      attached, pc, trap.pc)
                    raise

                if pc in execs:
                    execs[pc] += 1
                else:
                    execs[pc] = 1
                steps += n
                rc += sites[pc]
                if attached:
                    pin += cands[pc]
                if next_pc < 0:
                    self._flush(cpu, FL, execs, trans, steps, rc, pin)
                    return cpu.build_result()
                pc = next_pc
        except MachineTrap as trap:
            return cpu.build_result(trap=trap.kind, trap_pc=trap.pc)

    # -- golden cursor ------------------------------------------------------

    def run_cursor(
        self,
        cpu: CPU,
        *,
        budget: int | None = None,
        counter: str = "refine_count",
        first_stop: int | None = None,
        fork_hook=None,
        syncs=None,
        sync_hook=None,
        start_pc: int | None = None,
    ) -> ExecutionResult | None:
        """Free-run a golden (plan-free) CPU with counter-based fork stops.

        The trigger-ordered scheduler advances one cursor monotonically
        along the golden run.  ``counter`` names the tool's trigger counter
        (``refine_count`` / ``pin_count`` / ``llfi_count``); whenever the
        next block would carry that counter to ``first_stop`` or beyond,
        the engine syncs the CPU at the block entry — counter still
        strictly below every pending trigger — and calls
        ``fork_hook(cpu, pc, upto)`` with ``upto`` the counter value after
        the block.  The hook captures one snapshot covering every pending
        trigger ``<= upto`` and returns the next stop (or ``None``).

        ``syncs``/``sync_hook`` additionally pause at exact absolute step
        counts (reference states for golden-rejoin detection); the fork
        check deliberately precedes the sync check so a partial-block
        stride can never cross a pending trigger unforked.  The hook is
        called as ``sync_hook(cpu, pc, reach)`` with ``reach`` the counter
        value once the block ``pc`` sits in has run (a static count of the
        trigger sites in ``[pc, block end)``): a trigger ``<= reach`` forks
        before the block containing the sync point is left, so only
        triggers beyond ``reach`` see the same fork points from this state
        as from the program entry.  The entry itself is reported first, as
        the sync state at step 0 (``reach`` 0: every trigger lies beyond
        it).

        ``start_pc`` replays a *window* of a golden run whose timeline is
        already known: the CPU has been restored to a sync state recorded
        by an earlier full pass and execution continues at that state's
        pc.  Nothing past the last pending trigger is of interest then, so
        the cursor returns ``None`` as soon as ``fork_hook`` reports no
        further stop instead of running to the halt.
        """
        if budget is not None:
            cpu.budget = budget
        cnt_attr = "_" + counter

        trans = self.cache.translation_for(cpu.program)
        FL, blocks = self._block_ctx(cpu, trans)
        lens = trans.lens
        sites = trans.sites
        cands = trans.cands
        table = getattr(trans, CURSOR_TABLES[counter])
        execs: dict[int, int] = {}

        pc = cpu.prepare_entry() if start_pc is None else start_pc
        budget_v = cpu.budget
        steps, rc, pin, attached, _, _, sync_v = self._reload(cpu, FL, syncs)
        live = counter == "llfi_count"  # intrinsics maintain it natively
        cnt = getattr(cpu, cnt_attr)
        stop = first_stop
        if sync_hook is not None and start_pc is None:
            sync_hook(cpu, pc, cnt)

        blocks_get = blocks.get

        try:
            while True:
                fn = blocks_get(pc)
                if fn is None:
                    trans.cover(pc)  # not a block entry: static facts only
                n = lens[pc]

                if steps + n >= budget_v and budget_v <= sync_v:
                    self._flush(cpu, FL, execs, trans, steps, rc, pin)
                    cpu._loop(pc)
                    return cpu.build_result()

                if stop is not None:
                    if live:
                        cnt = cpu._llfi_count
                    upto = cnt + table[pc]
                    if upto >= stop:
                        # A pending trigger fires inside this block: fork at
                        # the block entry, before any stride can cross it.
                        self._flush(cpu, FL, execs, trans, steps, rc, pin)
                        stop = fork_hook(cpu, pc, upto)
                        if stop is None and start_pc is not None:
                            return None

                at_sync = steps + n >= sync_v
                if at_sync or fn is None:
                    # Stop at exactly the sync step and report the state
                    # there, or (entered mid-block) finish the block.
                    pc, steps, rc, pin, attached, _, _, sync_v = self._interpret(
                        cpu, FL, execs, trans, steps, rc, pin, pc,
                        sync_v - steps if at_sync else n, syncs,
                    )
                    if pc is None:
                        return cpu.build_result()
                    cnt = getattr(cpu, cnt_attr)
                    if at_sync and sync_hook is not None:
                        trans.cover(pc)
                        sync_hook(cpu, pc, cnt + table[pc])
                    continue

                try:
                    next_pc = fn()
                except MachineTrap as trap:
                    self._unwind_trap(cpu, FL, execs, trans, steps, rc, pin,
                                      attached, pc, trap.pc)
                    raise

                if pc in execs:
                    execs[pc] += 1
                else:
                    execs[pc] = 1
                steps += n
                rc += sites[pc]
                if attached:
                    pin += cands[pc]
                if not live:
                    cnt = rc if counter == "refine_count" else pin
                if next_pc < 0:
                    self._flush(cpu, FL, execs, trans, steps, rc, pin)
                    return cpu.build_result()
                pc = next_pc
        except MachineTrap as trap:
            return cpu.build_result(trap=trap.kind, trap_pc=trap.pc)

    # -- batched accounting -------------------------------------------------

    @staticmethod
    def _flush(cpu, FL, execs, trans, steps, rc, pin) -> None:
        """Expand batched block accounting onto the CPU object."""
        counts = cpu.counts
        ends = trans.ends
        for entry, k in execs.items():
            for p in range(entry, ends[entry]):
                counts[p] += k
        execs.clear()
        cpu.steps = steps
        cpu.flags = FL[0]
        cpu._refine_count = rc
        cpu._pin_count = pin
        if cpu._attached:
            cpu.attached_candidates = pin

    def _unwind_trap(self, cpu, FL, execs, trans, steps, rc, pin,
                     attached, entry, trap_pc) -> None:
        """Account the executed prefix of a block that trapped mid-way.

        Reference semantics: instructions before the trapping one are
        counted; the trapping instruction itself is not.
        """
        self._flush(cpu, FL, execs, trans, steps, rc, pin)
        counts = cpu.counts
        code = cpu.program.code
        is_cand = cpu.program.is_candidate
        extra_rc = 0
        extra_pin = 0
        for p in range(entry, trap_pc):
            counts[p] += 1
            if code[p][0] == O.FI_CHECK:
                extra_rc += 1
            if is_cand[p]:
                extra_pin += 1
        cpu.steps = steps + (trap_pc - entry)
        cpu._refine_count = rc + extra_rc
        if attached:
            cpu._pin_count = pin + extra_pin
            cpu.attached_candidates = cpu._pin_count
