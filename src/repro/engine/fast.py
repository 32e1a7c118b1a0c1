"""The free-run fast engine (ZOFI-style execution core).

Executes translated basic-block superinstructions at full speed and only
pays for instrumentation where an event can actually occur:

* **budget tails** — when the next block could cross the step budget, the
  remainder of the run is delegated to the reference ``CPU._loop``, so the
  timeout-vs-snapshot-vs-halt ordering is reference-exact by construction;
* **trigger windows** — when an armed REFINE/PINFI plan's counter would
  cross its target inside the next block, the engine drops into the
  reference loop with a small watcher window and exits back to free-run as
  soon as the fault has been applied (the ZOFI insight: the binary runs
  uninstrumented outside a bounded window around the injection point);
* **armed snapshot hooks** — a CPU carrying a
  :meth:`~repro.machine.cpu.CPU.record_snapshots` hook is executed entirely
  by the reference loop, so the hook fires at exactly the reference steps.

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

#: Careful-window granularity: once an armed plan is about to fire, the
#: reference loop runs with a watcher every this many instructions; the
#: engine returns to free-run at the first watcher tick after injection.
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
        if ctx is not None and ctx[0] is trans:
            FL = ctx[1]
            FL[0] = cpu.flags
            return FL, ctx[2]
        FL = [cpu.flags]
        blocks = trans.instantiate(cpu, FL)
        cpu._fast_ctx = (trans, FL, blocks)
        return FL, blocks

    @staticmethod
    def _fire_offset(
        program, pc, end, r_armed, need_r, p_armed, need_p
    ) -> int | None:
        """Slow-loop steps from block entry ``pc`` through the instruction
        where an armed trigger reaches its target.

        A basic block is straight-line, so the ``need``-th FI_CHECK (or
        PINFI candidate) after ``pc`` is statically determined.  ``None``
        when neither armed counter's crossing is locatable in the block
        (the caller falls back to the watcher window).
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

        steps = cpu.steps
        rc = cpu._refine_count
        pin = cpu._pin_count
        attached = cpu._attached
        budget_v = cpu.budget
        r_plan = cpu._refine_plan
        r_target = r_plan.target_index if r_plan is not None else 0
        p_plan = cpu._pin_plan
        p_target = p_plan.target_index if p_plan is not None else 0
        if cpu.fault is not None:
            # A fault already fired (e.g. before the resume point).  A plan
            # stays armed only while its dwell window is still open —
            # single-shot plans (last_index == target_index) disarm here
            # exactly as before.
            if r_plan is not None and rc >= r_plan.last_index:
                r_plan = None
            if p_plan is not None and pin >= p_plan.last_index:
                p_plan = None

        if syncs:
            sync_i = bisect_right(syncs, steps)
            sync_v = syncs[sync_i] if sync_i < len(syncs) else _NO_SYNC
        else:
            sync_v = _NO_SYNC

        blocks_get = blocks.get

        while True:
            fn = blocks_get(pc)
            if fn is None:
                fn = trans.add_suffix(pc, cpu, FL, blocks)
            n = lens[pc]

            if steps + n >= budget_v and budget_v <= sync_v:
                # The budget could expire inside this block: hand the whole
                # tail to the reference loop (plans included), preserving
                # the exact timeout/halt ordering at the boundary.  (On a
                # budget/sync tie the timeout wins, matching the reference
                # loop's check order, so the sync point is moot.)
                self._flush(cpu, FL, execs, trans, steps, rc, pin)
                try:
                    cpu._loop(pc)
                except MachineTrap as trap:
                    return cpu.build_result(trap=trap.kind, trap_pc=trap.pc)
                return cpu.build_result()

            if steps + n >= sync_v:
                # A sync point lands inside this block: run the reference
                # loop for exactly the remaining stride, then observe.
                self._flush(cpu, FL, execs, trans, steps, rc, pin)
                try:
                    stop_pc = self._step_to(cpu, pc, sync_v - steps)
                except MachineTrap as trap:
                    return cpu.build_result(trap=trap.kind, trap_pc=trap.pc)
                if stop_pc is None:
                    return cpu.build_result()  # halted at/inside the stride
                pc = stop_pc
                steps = cpu.steps
                FL[0] = cpu.flags
                rc = cpu._refine_count
                pin = cpu._pin_count
                attached = cpu._attached
                if cpu.fault is not None:
                    if r_plan is not None and rc >= r_plan.last_index:
                        r_plan = None
                    if p_plan is not None and pin >= p_plan.last_index:
                        p_plan = None
                if on_sync is not None and on_sync(cpu, pc):
                    return None
                sync_i = bisect_right(syncs, steps)
                sync_v = syncs[sync_i] if sync_i < len(syncs) else _NO_SYNC
                continue

            r_armed = r_plan is not None and rc + sites[pc] >= r_target
            p_armed = (
                p_plan is not None and attached and pin + cands[pc] >= p_target
            )
            if r_armed or p_armed:
                # The armed trigger fires inside this block: run the
                # reference loop until just after injection, then resume
                # free-run.  The fire point is static within the block, so
                # slow-step exactly through it instead of waiting for the
                # next watcher tick; the watcher window remains as the
                # fallback if the prediction somehow missed.
                self._flush(cpu, FL, execs, trans, steps, rc, pin)
                k = self._fire_offset(
                    cpu.program, pc, trans.ends[pc],
                    r_armed, r_target - rc, p_armed, p_target - pin,
                )
                try:
                    if k is not None:
                        exit_pc = self._step_to(cpu, pc, k)
                    else:
                        exit_pc = self._careful(cpu, pc)
                    if exit_pc is not None and cpu.fault is None:
                        exit_pc = self._careful(cpu, exit_pc)
                except MachineTrap as trap:
                    return cpu.build_result(trap=trap.kind, trap_pc=trap.pc)
                if exit_pc is None:
                    return cpu.build_result()  # halted inside the window
                pc = exit_pc
                steps = cpu.steps
                FL[0] = cpu.flags
                rc = cpu._refine_count
                pin = cpu._pin_count
                attached = cpu._attached
                if cpu.fault is not None:
                    if r_plan is not None and rc >= r_plan.last_index:
                        r_plan = None
                    if p_plan is not None and pin >= p_plan.last_index:
                        p_plan = None
                if steps >= sync_v:
                    # The careful window overshot one or more sync points;
                    # drop them (sync observation is opportunistic).
                    sync_i = bisect_right(syncs, steps)
                    sync_v = syncs[sync_i] if sync_i < len(syncs) else _NO_SYNC
                continue

            try:
                next_pc = fn()
            except MachineTrap as trap:
                self._unwind_trap(cpu, FL, execs, trans, steps, rc, pin,
                                  attached, pc, trap.pc)
                return cpu.build_result(trap=trap.kind, trap_pc=trap.pc)

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
        value once the block starting at ``pc`` has run: a trigger
        ``<= reach`` forks before the block containing the sync point is
        left, so only triggers beyond ``reach`` see the same fork points
        from this state as from the program entry.  The entry itself is
        reported first, as the sync state at step 0 (``reach`` 0: every
        trigger lies beyond it).

        ``start_pc`` replays a *window* of a golden run whose timeline is
        already known: the CPU has been restored to a sync state recorded
        by an earlier full pass and execution continues at that state's
        pc.  Nothing past the last pending trigger is of interest then, so
        the cursor returns ``None`` as soon as ``fork_hook`` reports no
        further stop instead of running to the halt.
        """
        if budget is not None:
            cpu.budget = budget
        table_name = CURSOR_TABLES[counter]

        trans = self.cache.translation_for(cpu.program)
        FL, blocks = self._block_ctx(cpu, trans)
        lens = trans.lens
        sites = trans.sites
        cands = trans.cands
        table = getattr(trans, table_name)
        execs: dict[int, int] = {}

        pc = cpu.prepare_entry() if start_pc is None else start_pc
        steps = cpu.steps
        rc = cpu._refine_count
        pin = cpu._pin_count
        attached = cpu._attached
        budget_v = cpu.budget
        live = counter == "llfi_count"  # intrinsics maintain it natively
        if counter == "refine_count":
            cnt = rc
        elif counter == "pin_count":
            cnt = pin
        else:
            cnt = cpu._llfi_count
        stop = first_stop
        if sync_hook is not None and start_pc is None:
            sync_hook(cpu, pc, cnt)

        if syncs:
            sync_i = bisect_right(syncs, steps)
            sync_v = syncs[sync_i] if sync_i < len(syncs) else _NO_SYNC
        else:
            sync_v = _NO_SYNC

        blocks_get = blocks.get

        while True:
            fn = blocks_get(pc)
            if fn is None:
                fn = trans.add_suffix(pc, cpu, FL, blocks)
            n = lens[pc]

            if steps + n >= budget_v and budget_v <= sync_v:
                self._flush(cpu, FL, execs, trans, steps, rc, pin)
                try:
                    cpu._loop(pc)
                except MachineTrap as trap:
                    return cpu.build_result(trap=trap.kind, trap_pc=trap.pc)
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

            if steps + n >= sync_v:
                self._flush(cpu, FL, execs, trans, steps, rc, pin)
                try:
                    stop_pc = self._step_to(cpu, pc, sync_v - steps)
                except MachineTrap as trap:
                    return cpu.build_result(trap=trap.kind, trap_pc=trap.pc)
                if stop_pc is None:
                    return cpu.build_result()
                pc = stop_pc
                steps = cpu.steps
                FL[0] = cpu.flags
                rc = cpu._refine_count
                pin = cpu._pin_count
                attached = cpu._attached
                if live:
                    cnt = cpu._llfi_count
                else:
                    cnt = rc if counter == "refine_count" else pin
                if sync_hook is not None:
                    if blocks_get(pc) is None:
                        trans.add_suffix(pc, cpu, FL, blocks)
                    sync_hook(cpu, pc, cnt + table[pc])
                sync_i = bisect_right(syncs, steps)
                sync_v = syncs[sync_i] if sync_i < len(syncs) else _NO_SYNC
                continue

            try:
                next_pc = fn()
            except MachineTrap as trap:
                self._unwind_trap(cpu, FL, execs, trans, steps, rc, pin,
                                  attached, pc, trap.pc)
                return cpu.build_result(trap=trap.kind, trap_pc=trap.pc)

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

    # -- careful paths ------------------------------------------------------

    def _step_to(self, cpu: CPU, pc: int, k: int) -> int | None:
        """Run the reference loop for exactly ``k`` instructions.

        Returns the pc of the first instruction *after* the stride, or
        ``None`` if the program halted first (a halt on the k-th
        instruction breaks out of the loop before the pause hook runs,
        exactly as a snapshot hook would behave).  Machine traps propagate.
        """
        cpu._snap_every = k
        cpu._snap_hook = _step_stop
        try:
            cpu._loop(pc)
        except _ExitFast as exc:
            return exc.pc
        finally:
            cpu._snap_every = 0
            cpu._snap_hook = None
        return None

    def _careful(self, cpu: CPU, pc: int) -> int | None:
        """Reference-loop window around an armed trigger.

        Returns the pc to continue free-running from, or ``None`` if the
        program halted inside the window.  Machine traps propagate.
        """
        cpu._snap_every = CAREFUL_WINDOW
        cpu._snap_hook = _fault_watcher
        try:
            cpu._loop(pc)
        except _ExitFast as exc:
            return exc.pc
        finally:
            cpu._snap_every = 0
            cpu._snap_hook = None
        return None

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
