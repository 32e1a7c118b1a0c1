"""The free-run fast engine (ZOFI-style execution core).

Executes translated basic-block superinstructions at full speed and only
pays for instrumentation where an event can actually occur.  Every run —
a golden or profile run, a faulty tail, the scheduler's golden cursor —
goes through one block loop (the trampoline, :meth:`FastEngine._drive`),
whose slow path serves these events, tested in this order at the entry of
a block that meets the horizon:

* **sync points** — observation points cost no stride: each is observed at
  the first *stop* at or past it, a block entry or the end of a stride.
  The golden cursor records its reference states that way, so each one
  sits on a block leader, and a tail in that state at that step is on that
  leader too — a leader is never strictly inside a block, a fire stride or
  a completion stride, so the tail stops there and is compared;
* **budget tails** — when the next block could cross the step budget, the
  remainder of the run is delegated to the reference loop (the
  timeout-vs-snapshot-vs-halt ordering lives there);
* **fork stops** — the golden cursor's: when the next block would carry
  the tool's trigger counter to a pending stop, the hook is served at that
  block entry, with no stride (a golden CPU has no armed plan);
* **exact strides** — an armed plan whose trigger counter would cross its
  target inside the next block, or a pc that is not a translated block
  entry (the instruction after a fire point, a corrupted return address),
  take the one slow path: flush the batch, run the reference loop for
  exactly k instructions — through the fire point, to the end of the
  enclosing block — and free-run again from wherever that stops (the ZOFI
  insight: the binary runs uninstrumented outside a bounded window around
  the injection point).  While a dwell window is open every site is a fire
  point, and the reference loop runs in :data:`CAREFUL_WINDOW`-instruction
  windows.

The strides use the CPU's snapshot-hook slot to stop; recording snapshots
every k steps (:meth:`~repro.machine.cpu.CPU.record_snapshots`) is
``CPU.run``'s business, not this engine's.

**Translation is the only code generation.**  A mid-block entry is
interpreted to the end of its block, never compiled: every fire point
lands mid-block and is usually entered there once.  A
Python function generated per entry cost ≈ 1.1 ms per distinct pc (lulesh /
REFINE: 144 of them at n = 24, 490 at n = 1068, 932 interior pcs in all);
interpreting instead costs ≈ 0.13 ms per experiment (≈ 2.7 more ≈ 50 µs
strides per tail), which compiling wins back only past ≈ 4–8 k experiments
per cell — 4–8 × the paper's n = 1068, and then by a percent or two.

Everything observable — steps, per-pc counts, trigger counters, traps,
output, and the full state wherever execution pauses — is bit-identical to
the reference interpreter: free-run accounting is batched per block (a block
is a contiguous pc range, so its contribution is a static constant), trap
unwinding rewinds the batch to the executed prefix, and a block owes exact
flags only where they are observed (:mod:`repro.engine.blocks`).

**Three tools, one trigger mechanism.**  REFINE's ``fi_check``s, PINFI's
candidates and LLFI's visits (calls to an ``__fi_inject_*`` stub) are all
static per block, so the trampoline batches all three counters, and a block
renders an LLFI visit as the stub's unfired effect, the value passing
through.  The visit where an armed LLFI plan fires is interpreted like any
other fire point; the stub itself then runs, on the reference loop.

**One horizon test per block.**  Each counter advances by at most a
block's length per block (its sites are the block's instructions), so a
counter read at ``x`` at step ``steps`` cannot reach its target ``t`` inside
any later block that ends before step ``steps + t - x``, whatever runs in
between.  The trampoline keeps ``H``, the least of those (fire targets and
a pending fork stop alike), of the budget and of the next sync point, and
a block whose end ``steps + n`` is below ``H`` runs with no other test.
One that is not takes the slow path: each event is tested exactly there
and, when none is due, ``H`` is taken afresh and the block runs.  A sync
point is never due inside a block: the block that reaches it runs whole,
and the stop after it (at or past the point) is where it is observed.
Each time the horizon is met short of a target, the distance left has
shrunk by the share of the steps run that the counter took, so a far
target costs a few dozen slow tests, not one per block.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.engine.blocks import block_meta, is_llfi_visit
from repro.engine.cache import GLOBAL_CACHE
from repro.errors import MachineTrap
from repro.machine.cpu import CPU, ExecutionResult
from repro.machine import opcodes as O

#: Careful-window granularity: while an armed plan's next fire point is not
#: one static instruction (its dwell window is open), the reference loop
#: runs with a watcher every this many instructions; the engine returns to
#: the trampoline at the first watcher tick that finds a fault applied.
CAREFUL_WINDOW = 256

#: A step count or a counter value no budget reaches: the target of a
#: counter nothing waits for, and the sync point when none is pending.
_NEVER = 1 << 62

#: The trigger counters, in the order of the block table's increments.
COUNTERS = ("refine_count", "pin_count", "llfi_count")

#: What the block table answers for a pc that is not a block entry: its
#: length puts ``steps + n`` past any horizon, so the slow path sees it.
_MISS = (None, _NEVER, 0, 0, 0)


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

    def resume(self, cpu: CPU, pc: int, budget: int | None = None, syncs=(),
               on_sync=None) -> ExecutionResult | None:
        """Resume at ``pc``, optionally with observation points.

        ``syncs`` is a sorted sequence of absolute dynamic-instruction
        counts.  At the first *stop* at or past each one — a block entry,
        or the end of an interpreted stride — the engine pauses with the
        CPU state fully synced (steps, counters, counts, flags) and calls
        ``on_sync(cpu, pc, reach)`` — the protocol :meth:`run_cursor`'s
        ``sync_hook`` shares; here ``reach`` counts ``refine_count``, and a
        tail has no use for it — no instruction is interpreted to reach a
        point.  Several points one block crosses are observed once, at its
        end.  A truthy return stops execution and makes this method return
        ``None`` — the caller owns the rest of the run (the scheduler uses
        this to splice a golden tail once a faulty run has provably
        re-converged).  Points already behind ``cpu.steps`` are skipped;
        points the run never stops at or past (halt, trap, timeout) or
        crosses inside an interpreted stride (the fire stride, a careful
        window) are silently dropped.
        """
        return self._drive(cpu, pc, budget, syncs, on_sync)

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
        (one of :data:`COUNTERS`); whenever the next block would carry that
        counter to ``first_stop`` or beyond, the engine syncs the CPU at the
        block entry — counter still strictly below every pending trigger —
        and calls ``fork_hook(cpu, pc, upto)`` with ``upto`` the counter
        value after the block.  The hook captures one snapshot covering
        every pending trigger ``<= upto`` and returns the next stop (or
        ``None``): the stop is one more horizon term, like a fire target.

        ``syncs``/``sync_hook`` are :meth:`resume`'s ``syncs``/``on_sync``
        (reference states for golden-rejoin detection; each sits on a
        block leader).  ``reach`` is the counter value once the block at
        ``pc`` has run (a static count of its trigger sites): a trigger
        ``<= reach`` may fork in that block, so only triggers beyond
        ``reach`` see the same fork points from this state as from the
        program entry.  The entry itself is reported first, as the sync
        state at step 0 (``reach`` 0: every trigger lies beyond it).

        ``start_pc`` replays a *window* of a golden run whose timeline is
        already known: the CPU has been restored to a sync state recorded
        by an earlier full pass and execution continues at that state's
        pc.  Nothing past the last pending trigger is of interest then, so
        the cursor returns ``None`` as soon as ``fork_hook`` reports no
        further stop instead of running to the halt.
        """
        which = COUNTERS.index(counter)
        if budget is not None:
            cpu.budget = budget
        if start_pc is None:
            pc = cpu.prepare_entry()
            if sync_hook is not None:
                sync_hook(cpu, pc, 0)
        else:
            pc = start_pc
        return self._drive(cpu, pc, None, syncs, sync_hook, which, first_stop,
                           fork_hook, start_pc is not None)

    # -- trampoline ---------------------------------------------------------

    def _block_ctx(self, cpu: CPU):
        """``(translation, FL, table)`` for ``cpu``: the block table maps
        each block entry to ``(fn, n, sites, cands, llfis)``, the block's
        function bound to this CPU and its
        :class:`~repro.engine.blocks.BlockMeta`.

        Instantiating a translation builds one closure per block, which
        costs more than a short fault tail executes.  The generated
        closures capture ``cpu.iregs``/``cpu.fregs``/``cpu.mem`` by
        identity, and every state mutation (including snapshot restore)
        is in-place, so one instantiation per (CPU, translation) pair is
        enough — campaign schedulers reuse a single CPU across tails.

        A CPU recording residency (``_site_trace``) is refused: blocks
        count trigger sites in bulk and cannot list them one by one
        (``CPU.run`` can).
        """
        if cpu._site_trace is not None:
            raise ValueError("a CPU recording its site trace runs on CPU.run")
        trans = self.cache.translation_for(cpu.program)
        ctx = cpu._fast_ctx
        if ctx is None or ctx[0] is not trans:
            FL = [cpu.flags]
            meta = trans.meta
            table = {pc: (fn, *meta[pc]) for pc, fn in trans.instantiate(cpu, FL).items()}
            ctx = cpu._fast_ctx = (trans, FL, table)
        return ctx

    @staticmethod
    def _fire_offset(program, pc, end, need_r, need_p, need_l) -> int | None:
        """Slow-loop steps from entry ``pc`` through the instruction where
        an armed trigger reaches its target, ``need_*`` more of its sites
        (REFINE ``fi_check``s, PINFI candidates, LLFI visits) on.

        A basic block is straight-line, so that instruction is statically
        determined.  ``None`` when no counter's crossing is locatable in
        the block — a counter is already at or past its target, i.e. a
        dwell window is open (the caller falls back to the watcher window).
        """
        code = program.code
        is_cand = program.is_candidate
        for p in range(pc, end):
            t = code[p]
            if t[0] == O.FI_CHECK:
                need_r -= 1
                if not need_r:
                    return p - pc + 1
            elif is_llfi_visit(t):
                need_l -= 1
                if not need_l:
                    return p - pc + 1
            if is_cand[p]:
                need_p -= 1
                if not need_p:
                    return p - pc + 1
        return None

    @staticmethod
    def _reload(cpu: CPU, FL, syncs):
        """The trampoline's locals, read off a synced CPU: ``(steps, rc,
        pin, lc, attached, r_target, p_target, l_target, sync_v)``.

        A plan's target stays armed only until its fault has fired and its
        dwell window has closed (single-shot plans: ``last_index ==
        target_index``), and PINFI's only while attached; a disarmed target
        is :data:`_NEVER`.  ``sync_v`` is the first sync point at or past
        ``steps`` — any an interpreted stride crossed are dropped (sync
        observation is opportunistic).
        """
        steps = cpu.steps
        FL[0] = cpu.flags
        rc = cpu._refine_count
        pin = cpu._pin_count
        lc = cpu._llfi_count
        attached = cpu._attached
        fired = cpu.fault is not None
        targets = []
        for plan, count, armed in (
            (cpu._refine_plan, rc, True),
            (cpu._pin_plan, pin, attached),
            (cpu._llfi_plan, lc, True),
        ):
            if plan is None or not armed or fired and count >= plan.last_index:
                targets.append(_NEVER)
            else:
                targets.append(plan.target_index)
        return (steps, rc, pin, lc, attached, *targets,
                FastEngine._sync_from(syncs, steps))

    @staticmethod
    def _sync_from(syncs, steps: int) -> int:
        """The first sync point at or past ``steps`` (:data:`_NEVER`: none)."""
        if syncs:
            i = bisect_left(syncs, steps)
            if i < len(syncs):
                return syncs[i]
        return _NEVER

    def _interpret(self, cpu, FL, execs, table, steps, rc, pin, lc, pc, k, syncs):
        """The one slow path: flush the batch, run the reference loop from
        ``pc`` for exactly ``k`` instructions (``None``: the watcher
        window), and reload the trampoline's locals.

        Returns ``(pc, *_reload())`` with ``pc`` the instruction to
        free-run from, ``None`` if the program halted first.  Machine traps
        propagate.  Armed plans, dwell windows, LLFI stubs and the PINFI
        detach inside the stride are the reference loop's business.
        """
        self._flush(cpu, FL, execs, table, steps, rc, pin, lc)
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

    def _drive(self, cpu: CPU, pc: int, budget: int | None, syncs=(),
               on_sync=None, which: int = 0, stop: int | None = None,
               fork_hook=None, window: bool = False) -> ExecutionResult | None:
        """The one block loop (module docstring).  ``which`` indexes
        :data:`COUNTERS`: the counter ``reach`` and the cursor's fork
        ``stop`` (``None``: none pending) count on; a ``window`` ends, with
        ``None``, once ``fork_hook`` reports no further stop."""
        if budget is not None:
            cpu.budget = budget
        trans, FL, table = self._block_ctx(cpu)
        execs: dict[int, int] = {}

        budget_v = cpu.budget
        # (a fault that fired before the resume point may already have
        # closed a plan's window: _reload disarms it)
        steps, rc, pin, lc, attached, r_target, p_target, l_target, sync_v = (
            self._reload(cpu, FL, syncs)
        )
        horizon = 0  # the first block takes the slow path, which sets it

        get = table.get

        try:
            while True:
                fn, n, s, c, l = get(pc, _MISS)

                if steps + n >= horizon:
                    if fn is None:
                        n, s, c, l = trans.cover(pc)  # static facts only
                    if steps >= sync_v:
                        # The first stop at or past a sync point (every point
                        # the last block crossed): observe the state here.
                        self._flush(cpu, FL, execs, table, steps, rc, pin, lc)
                        if on_sync(cpu, pc, (rc, pin, lc)[which] + (s, c, l)[which]):
                            return None
                        sync_v = self._sync_from(syncs, steps + 1)
                    if steps + n >= budget_v:
                        # The budget could expire inside this block: hand the
                        # whole tail to the reference loop (plans included),
                        # preserving the exact timeout/halt ordering at the
                        # boundary.  (A stop is always short of the budget, so
                        # a sync point at or past it is never observed.)
                        self._flush(cpu, FL, execs, table, steps, rc, pin, lc)
                        cpu._loop(pc)
                        return cpu.build_result()
                    if stop is not None:
                        upto = (rc, pin, lc)[which] + (s, c, l)[which]
                        if upto >= stop:
                            # A pending trigger fires inside this block: fork
                            # at the block entry.
                            self._flush(cpu, FL, execs, table, steps, rc, pin, lc)
                            stop = fork_hook(cpu, pc, upto)
                            if stop is None and window:
                                return None

                    armed = (
                        rc + s >= r_target or pin + c >= p_target
                        or lc + l >= l_target
                    )
                    event = armed or fn is None
                    if event:
                        if armed:
                            # The armed trigger fires inside this block, at
                            # a statically known instruction: slow-step
                            # exactly through it.  (Not locatable: watcher
                            # window.)
                            k = self._fire_offset(
                                cpu.program, pc, pc + n,
                                r_target - rc, p_target - pin, l_target - lc,
                            )
                        else:
                            # Entered mid-block: finish the block.
                            k = n
                        (pc, steps, rc, pin, lc, attached, r_target, p_target,
                         l_target, sync_v) = self._interpret(
                            cpu, FL, execs, table, steps, rc, pin, lc, pc, k,
                            syncs,
                        )
                        if pc is None:
                            return cpu.build_result()  # halted inside the stride
                    horizon = min(
                        budget_v, sync_v, steps + r_target - rc,
                        steps + p_target - pin, steps + l_target - lc,
                    )
                    if stop is not None:
                        horizon = min(horizon, steps + stop - (rc, pin, lc)[which])
                    if event:
                        continue

                try:
                    next_pc = fn()
                except MachineTrap as trap:
                    self._unwind_trap(cpu, FL, execs, table, steps, rc, pin,
                                      lc, attached, pc, trap.pc)
                    raise

                if pc in execs:
                    execs[pc] += 1
                else:
                    execs[pc] = 1
                steps += n
                rc += s
                if attached:
                    pin += c
                lc += l
                if next_pc < 0:
                    self._flush(cpu, FL, execs, table, steps, rc, pin, lc)
                    return cpu.build_result()
                pc = next_pc
        except MachineTrap as trap:
            return cpu.build_result(trap=trap.kind, trap_pc=trap.pc)

    # -- batched accounting -------------------------------------------------

    @staticmethod
    def _flush(cpu, FL, execs, table, steps, rc, pin, lc) -> None:
        """Expand batched block accounting onto the CPU object."""
        counts = cpu.counts
        for entry, k in execs.items():
            for p in range(entry, entry + table[entry][1]):
                counts[p] += k
        execs.clear()
        cpu.steps = steps
        cpu.flags = FL[0]
        cpu._refine_count = rc
        cpu._pin_count = pin
        cpu._llfi_count = lc
        if cpu._attached:
            cpu.attached_candidates = pin

    def _unwind_trap(self, cpu, FL, execs, table, steps, rc, pin, lc,
                     attached, entry, trap_pc) -> None:
        """Account the executed prefix of a block that trapped mid-way.

        Reference semantics: instructions before the trapping one are
        counted; the trapping instruction itself is not.
        """
        self._flush(cpu, FL, execs, table, steps, rc, pin, lc)
        counts = cpu.counts
        for p in range(entry, trap_pc):
            counts[p] += 1
        prefix = block_meta(cpu.program, entry, trap_pc)
        cpu.steps = steps + prefix.length
        cpu._refine_count = rc + prefix.sites
        cpu._llfi_count = lc + prefix.llfis
        if attached:
            cpu._pin_count = pin + prefix.cands
            cpu.attached_candidates = cpu._pin_count
