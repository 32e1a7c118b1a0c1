"""Campaign coordinator: lease-based task dispatch with at-least-once
delivery, heartbeats and fault-tolerant retry.

The coordinator owns one or more campaign cells (a whole ``run_matrix``
worth, or a single campaign), shards each cell's outstanding experiment
indices into fixed index-range **tasks**, and serves them to workers over
the :mod:`repro.dist.protocol` wire format.  The delivery model:

* **Leases.** A granted task is leased, not given away: it carries a
  deadline, and the worker must heartbeat to keep it.  A worker that dies,
  hangs or partitions simply stops heartbeating; after ``lease_timeout``
  the sweep requeues its tasks for someone else.
* **Held requests.** A worker asking for work when none is leasable is
  not told to poll: its request stays open until a task becomes leasable
  (or the run ends), bounded by :data:`IDLE_HOLD_S`, so idle workers start
  new or requeued work the moment it exists.
* **Exponential backoff.** Every requeue (timeout, disconnect or an
  explicit ``task_failed``) re-schedules the task ``backoff_base * 2**k``
  seconds out, so a poison task cannot busy-spin the cluster; after
  ``max_attempts`` requeues the campaign fails loudly instead of looping.
* **At-least-once + exact dedup = exactly-once results.**  A slow worker
  whose lease expired may still finish and submit; because every
  experiment's seed is a pure function of its global index, that duplicate
  part is provably bit-identical to the accepted one and is dropped.  The
  campaign therefore equals a sequential run exactly, regardless of how
  chaotically tasks were re-leased.
* **The books are the cell's.**  Everything per-cell that is not delivery
  — resume, part validation, the running result, ``experiment`` events,
  checkpoints, the finish event — is one
  :class:`~repro.campaign.cell.CampaignCell` per cell, the ledger the
  inline and pool runners keep too; this module is the lease table and
  the transport around it.
* **Durability.** Each accepted part is folded into its cell's running
  result, which the cell checkpoints every ``checkpoint_every``
  experiments, once more when it finishes if anything is unsaved, and on
  ``stop``: a killed coordinator restarted with the same
  ``checkpoint_dir`` re-shards only the indices that never completed.
* **Observability.** Worker joins, leases, requeues and completions are
  emitted through :mod:`repro.campaign.events`, so the JSONL log (and the
  CLI's live progress line) shows per-worker throughput.
"""

from __future__ import annotations

import heapq
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.campaign.cell import CampaignCell, CampaignSpec
from repro.campaign.checkpoint import DEFAULT_CHECKPOINT_EVERY
from repro.campaign.classify import Outcome
from repro.campaign.events import EventLog
from repro.campaign.io import encode_indices, result_from_dict
from repro.campaign.results import CampaignResult
from repro.campaign.runner import matrix_checkpoint_path
from repro.dist.protocol import PROTOCOL_VERSION, recv_message, send_message
from repro.errors import CampaignError, DistConnectionError, DistError

#: Lease lifetime without a heartbeat before a task is requeued.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Requeues per task before the campaign fails instead of retrying.
DEFAULT_MAX_ATTEMPTS = 5

#: Longest an idle worker's ``request`` is held open waiting for a task to
#: become leasable before it is answered ``wait``: bounds how long a
#: handler thread can sit on a peer that silently went away.
IDLE_HOLD_S = 1.0

#: Default sharding granularity: aim for this many tasks per cell so a
#: handful of workers still get several tasks each (stragglers re-lease
#: cheaply) without per-task compile/profile overhead dominating.
DEFAULT_TASKS_PER_CAMPAIGN = 32


def backoff_delay(attempt: int, base: float = 0.5, cap: float = 30.0) -> float:
    """Delay before a task's ``attempt``-th requeue becomes leasable."""
    if attempt < 1:
        return 0.0
    return min(cap, base * (2.0 ** (attempt - 1)))


@dataclass
class _Task:
    """One leasable unit of work: an index range of one campaign cell."""

    task_id: int
    key: tuple[str, str]
    indices: tuple[int, ...]
    attempt: int = 0
    not_before: float = 0.0
    state: str = "pending"  # pending | leased | done
    worker: str | None = None
    deadline: float = 0.0


class Coordinator:
    """Serve one or more campaign cells to ``refine-worker`` processes.

    Typical use::

        coord = Coordinator(specs, port=9100, checkpoint_dir="ckpt/")
        host, port = coord.start()      # background accept thread
        results = coord.wait()          # {(workload, tool): CampaignResult}
        coord.stop()

    or, equivalently, ``coord.run()``.  Results are bit-identical to
    running each cell through the sequential :func:`repro.campaign.run_campaign`
    with the same parameters, whatever the worker count or failure history.
    """

    def __init__(
        self,
        specs: CampaignSpec | list[CampaignSpec],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        chunk_size: int | None = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        heartbeat_interval: float | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        events: EventLog | None = None,
        allow_empty: bool = False,
    ) -> None:
        if not specs and not allow_empty:
            raise DistError("coordinator needs at least one campaign spec")
        if lease_timeout <= 0:
            raise DistError("lease_timeout must be positive")
        if checkpoint_every <= 0:
            raise DistError("checkpoint_every must be positive")
        if max_attempts < 1:
            raise DistError("max_attempts must be >= 1")
        self._host = host
        self._port = port
        self._chunk_size = chunk_size
        self._lease_timeout = lease_timeout
        self._heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else max(0.05, lease_timeout / 4.0)
        )
        self._max_attempts = max_attempts
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._checkpoint_every = checkpoint_every
        self._events = events
        #: what must be durable before any cell's checkpoint is published
        #: (the cell's ``before_save`` seam; the service fills it)
        self._before_save = None

        self._lock = threading.Lock()
        #: notified whenever what a blocked thread waits for may have
        #: changed: work became leasable (held ``request``s), the run
        #: finished, failed or is shutting down (``wait``, held requests)
        self._changed = threading.Condition(self._lock)
        self._cells: dict[tuple[str, str], CampaignCell] = {}
        self._tasks: dict[int, _Task] = {}
        self._pending: list[tuple[float, int]] = []  # (not_before, task_id)
        self._workers: dict[str, dict] = {}
        self._worker_seq = 0
        self._next_task = 0
        self._results: dict[tuple[str, str], CampaignResult] = {}
        #: task ids of retired (cancelled/collected) cells — a straggler's
        #: late submit against one of these gets a benign duplicate ack
        #: instead of a fatal "unknown task" error.
        self._retired: set[int] = set()
        self._error: Exception | None = None
        self._stopped = False
        self._draining = False
        self._drained = False
        self._drain_thread: threading.Thread | None = None
        self._started = time.monotonic()
        self._total = 0

        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conns: set[socket.socket] = set()

        self.add_cells(specs, checkpoint_dir)

    # ------------------------------------------------------------------ API

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the coordinator is listening on."""
        if self._sock is None:
            raise DistError("coordinator is not started")
        return self._sock.getsockname()[:2]

    def start(self) -> tuple[str, int]:
        """Bind, listen and start serving in the background; returns the
        bound (host, port) — pass ``port=0`` to pick a free port."""
        self._sock = socket.create_server(
            (self._host, self._port), reuse_port=False
        )
        self._sock.settimeout(0.2)
        self._started = time.monotonic()
        with self._lock:
            self._emit(
                "dist_start", cells=len(self._cells), total=self._total,
                resumed=sum(len(c.completed) for c in self._cells.values()),
                lease_timeout_s=self._lease_timeout,
            )
            for cell in self._cells.values():
                self._announce(cell)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="refine-coordinator", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def wait(
        self, timeout: float | None = None
    ) -> dict[tuple[str, str], CampaignResult]:
        """Block until every cell completes; returns the result matrix.

        Raises the campaign's fatal error if one occurred, or
        :class:`DistError` on timeout / external :meth:`stop`.
        """
        with self._changed:
            finished = self._changed.wait_for(
                lambda: self._error is not None or self._stopped
                or len(self._results) == len(self._cells),
                timeout=timeout,
            )
            if self._error is not None:
                raise self._error
            if not finished:
                raise DistError(f"campaign did not finish within {timeout}s")
            if len(self._results) != len(self._cells):
                if self._drained:
                    raise DistError(
                        "campaign drained before completion "
                        "(checkpoints saved)"
                    )
                raise DistError("coordinator stopped before completion")
            return dict(self._results)

    def run(
        self, timeout: float | None = None
    ) -> dict[tuple[str, str], CampaignResult]:
        """``start()`` + ``wait()`` + ``stop()`` in one call."""
        self.start()
        try:
            return self.wait(timeout)
        finally:
            self.stop()

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Shut the server down, persisting every unfinished cell's
        checkpoint so a restarted coordinator resumes where this one died."""
        # After a clean finish, or a drain that left nothing leased, every
        # peer has its answer coming — workers their final ``done``, the
        # client that asked for the drain its ``ok`` — so give them a moment
        # to collect it and hang up before the sockets vanish; an abort
        # (error, unfinished campaign, leases still out) cuts them off
        # immediately instead.
        with self._lock:
            idle = (
                self._error is None
                and not self._stopped
                and (self._drained or len(self._results) == len(self._cells))
                and not any(t.state == "leased" for t in self._tasks.values())
            )
            if idle:
                # Nothing is in flight: from here on idle workers (held or
                # polling) are answered ``done``, whether or not this
                # coordinator ever considers its campaign finished.
                self._draining = True
                self._changed.notify_all()
        if idle:
            deadline = time.monotonic() + drain_timeout
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._conns:
                        break
                time.sleep(0.02)
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            for cell in self._cells.values():
                cell.save()
            self._changed.notify_all()
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        if self._sock is not None:
            self._sock.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self._drain_thread is not None:
            if self._drain_thread is not threading.current_thread():
                self._drain_thread.join(timeout=5.0)
            self._drain_thread = None

    @property
    def draining(self) -> bool:
        """True once a graceful shutdown has been requested."""
        return self._draining

    @property
    def drained(self) -> bool:
        """True once a graceful shutdown ran to completion (in-flight
        leases finished or the grace deadline passed; checkpoints saved)."""
        return self._drained

    def request_drain(self, grace_s: float = 30.0) -> None:
        """Begin a graceful shutdown (SIGTERM/SIGINT path).

        From this point work requests are answered with ``done`` (no new
        leases); workers holding leases keep heartbeating and submitting
        until they finish or ``grace_s`` elapses, then every unfinished
        cell is checkpointed and the server stops.  Idempotent.
        """
        with self._lock:
            if self._draining or self._stopped:
                return
            self._draining = True
            self._changed.notify_all()
            self._emit("dist_drain", grace_s=grace_s)
        self._drain_thread = threading.Thread(
            target=self._drain_loop, args=(grace_s,),
            name="refine-drain", daemon=True,
        )
        self._drain_thread.start()

    def add_cells(
        self,
        specs: CampaignSpec | list[CampaignSpec],
        checkpoint_dir: str | Path | None = None,
    ) -> list[tuple[str, str]]:
        """Admit campaign cells — at construction, or into a live
        coordinator (service mode).

        Each cell is opened from its checkpoint in ``checkpoint_dir`` (a
        checkpoint of another campaign or another program raises
        :class:`CampaignError` here, before anything is leased) and what is
        left of it is cut into trigger-ordered tasks.  Opening and ordering
        compile the cell's tool, so both happen *before* the coordinator
        lock is taken: admission never stalls the worker data plane.
        Raises :class:`DistError` if any key is already being served.
        """
        if isinstance(specs, CampaignSpec):
            specs = [specs]
        keys = [spec.key for spec in specs]
        if len(set(keys)) != len(keys):
            raise DistError("duplicate (workload, tool) campaign specs")
        opened = []
        for spec in specs:
            cell = CampaignCell(
                spec,
                checkpoint_path=None if checkpoint_dir is None
                else matrix_checkpoint_path(
                    checkpoint_dir, spec.workload, spec.tool_name
                ),
                checkpoint_every=self._checkpoint_every,
                emit=self._emit, event_names=("cell_start", "cell_finish"),
                before_save=self._before_save,
            )
            size = self._chunk_size or max(
                1, -(-spec.n // DEFAULT_TASKS_PER_CAMPAIGN)
            )
            opened.append((cell, cell.shards(size)))
        with self._lock:
            if self._stopped or self._draining:
                raise DistError("coordinator is shutting down")
            taken = [k for k in keys if k in self._cells]
            if taken:
                raise DistError(f"cells already being served: {taken}")
            for cell, shards in opened:
                self._cells[cell.spec.key] = cell
                self._total += cell.spec.n
                for indices in shards:
                    self._tasks[self._next_task] = _Task(
                        task_id=self._next_task, key=cell.spec.key,
                        indices=indices,
                    )
                    heapq.heappush(self._pending, (0.0, self._next_task))
                    self._next_task += 1
                if self._sock is not None:
                    # Serving already; ``start`` announces the cells it
                    # finds, after its own ``dist_start``.
                    self._announce(cell)
            self._changed.notify_all()
        return keys

    def retire_cells(
        self, keys: list[tuple[str, str]]
    ) -> dict[tuple[str, str], CampaignResult | None]:
        """Remove cells from service (a finished or cancelled campaign).

        Unfinished cells are checkpointed first (a cancelled campaign
        resubmitted later resumes instead of restarting).  Outstanding task
        ids are remembered in the retired set so a slow worker's late
        submit is acknowledged as a duplicate rather than treated as fatal.
        Returns each cell's merged result so far (``None`` if nothing has
        completed).  Unknown keys are ignored.
        """
        out: dict[tuple[str, str], CampaignResult | None] = {}
        with self._lock:
            for key in map(tuple, keys):
                cell = self._cells.pop(key, None)
                if cell is None:
                    continue
                cell.save()
                out[key] = cell.result if cell.completed else None
                self._results.pop(key, None)
                self._total -= cell.spec.n
                for task_id, task in list(self._tasks.items()):
                    if task.key == key:
                        self._release(task)
                        del self._tasks[task_id]
                        self._retired.add(task_id)
        return out

    def worker_health(self) -> dict[str, dict]:
        """Live per-worker health/throughput snapshot.

        The service's admission control and ``status``/``list`` replies are
        built from this: connected workers, their lease load, lifetime
        experiment throughput and failure counts, and how long since each
        was last heard from.
        """
        now = time.monotonic()
        with self._lock:
            return {
                name: {
                    "procs": info["procs"],
                    "leased": len(info["tasks"]),
                    "experiments": info["experiments"],
                    "tasks_done": info["tasks_done"],
                    "failures": info["failures"],
                    "uptime_s": now - info["joined"],
                    "idle_s": now - info["last_seen"],
                }
                for name, info in self._workers.items()
            }

    def cell_progress(self) -> dict[tuple[str, str], tuple[int, int]]:
        """Per-cell ``(completed, n)`` experiment counts, live."""
        with self._lock:
            return {
                key: (len(cell.completed), cell.spec.n)
                for key, cell in self._cells.items()
            }

    # ----------------------------------------------------------- internals

    def _announce(self, cell: CampaignCell) -> None:
        """Emit a cell's start event (lock held); one resumed already
        complete finishes on the spot, with nothing to serve."""
        cell.start()
        if cell.done:
            self._finish(cell)

    def _finish(self, cell: CampaignCell) -> None:
        """A cell's last part is in (lock held): close its books."""
        self._results[cell.spec.key] = cell.finish()
        self._on_cell_complete(cell)
        self._maybe_finish_all()

    def _drain_loop(self, grace_s: float) -> None:
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            with self._lock:
                if self._error is not None or self._stopped:
                    return
                if not any(
                    t.state == "leased" for t in self._tasks.values()
                ):
                    break
            time.sleep(0.05)
        with self._lock:
            self._drained = True
            self._emit(
                "dist_drained",
                leased=sum(
                    1 for t in self._tasks.values() if t.state == "leased"
                ),
            )
        self.stop()

    def _emit(self, event: str, **fields) -> None:
        if self._events is not None:
            self._events.emit(event, **fields)

    def _fatal(self, exc: Exception) -> None:
        if self._error is None:
            self._error = exc
        self._changed.notify_all()

    def _accept_loop(self) -> None:
        while not self._stopped:
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._lock:
                if self._stopped:
                    conn.close()
                    break
                self._conns.add(conn)
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        worker: str | None = None
        try:
            while True:
                message = recv_message(conn)
                if message is None:
                    break
                mtype = message["type"]
                with self._lock:
                    try:
                        worker, reply = self._dispatch(
                            worker, mtype, message
                        )
                    except (KeyError, TypeError, ValueError) as exc:
                        # A structurally valid frame with garbage fields
                        # (procs: {}, task_id: [1], missing keys...) is the
                        # *peer's* bug: reply with a bounded protocol error
                        # and drop the connection instead of letting the
                        # handler thread die silently.
                        reply = {
                            "type": "error",
                            "message": (
                                f"malformed {mtype!r} message: "
                                f"{type(exc).__name__}: {exc}"
                            ),
                        }
                send_message(conn, reply)
                if reply["type"] == "error":
                    break
        except DistError:
            pass  # torn connection: treated as a worker death below
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                self._conns.discard(conn)
                if worker is not None:
                    self._on_disconnect(worker)

    def _dispatch(
        self, worker: str | None, mtype: str, message: dict
    ) -> tuple[str | None, dict]:
        """Route one data-plane message (lock held).  Subclasses extend
        this with control-plane verbs; returns ``(worker, reply)``."""
        if mtype == "hello":
            return self._handle_hello(message)
        if worker is None:
            return None, {"type": "error", "message": "expected hello first"}
        info = self._workers.get(worker)
        if info is not None:
            info["last_seen"] = time.monotonic()
        if mtype == "request":
            return worker, self._handle_request(worker)
        if mtype == "heartbeat":
            return worker, self._handle_heartbeat(worker)
        if mtype == "result":
            return worker, self._handle_result(worker, message)
        if mtype == "task_failed":
            return worker, self._handle_failed(worker, message)
        return worker, {
            "type": "error",
            "message": f"unknown message type {mtype!r}",
        }

    def _handle_hello(self, message: dict) -> tuple[str, dict]:
        requested = message.get("name")
        if requested is not None and not isinstance(requested, str):
            raise TypeError("worker name must be a string")
        procs = int(message.get("procs", 1))
        self._worker_seq += 1
        name = requested or f"worker-{self._worker_seq}"
        if name in self._workers:
            name = f"{name}-{self._worker_seq}"
        now = time.monotonic()
        self._workers[name] = {
            "procs": procs, "tasks": set(), "joined": now, "last_seen": now,
            "experiments": 0, "tasks_done": 0, "failures": 0,
        }
        self._emit(
            "worker_join", worker=name, procs=self._workers[name]["procs"],
        )
        return name, {
            "type": "welcome",
            "version": PROTOCOL_VERSION,
            "worker": name,
            "heartbeat_s": self._heartbeat_interval,
            "lease_timeout_s": self._lease_timeout,
        }

    def _handle_request(self, worker: str) -> dict:
        """Lease the next task to ``worker``.  With nothing leasable the
        request is held (the lock released) until something changes or
        :data:`IDLE_HOLD_S` passes, so an idle worker picks up new or
        requeued work — and its final ``done`` — the moment it exists
        instead of at its next poll."""
        give_up = time.monotonic() + IDLE_HOLD_S
        while True:
            if self._error is not None:
                return {"type": "error", "message": str(self._error)}
            if self._draining:
                # Graceful shutdown: refuse new leases; the worker treats
                # ``done`` as "campaign over" and exits (or, with a
                # reconnect window, comes back once the service restarts).
                return {"type": "done"}
            if self._stopped:
                # Abort (or ``kill``): the connection is going away
                # unanswered, exactly as a polling worker would find it —
                # a ``done`` here would send a reconnecting worker home.
                raise DistConnectionError("coordinator stopped")
            now = time.monotonic()
            self._sweep(now)
            lease = self._lease_next(worker, now)
            if lease is not None:
                return lease
            if self._campaign_done():
                return {"type": "done"}
            if now >= give_up:
                # The next request is held again; no need to stay away.
                return {"type": "wait", "delay_s": 0.05}
            # Work can also appear by time alone: the earliest backoff
            # expiry or lease deadline.
            horizons = [nb for nb, tid in self._pending
                        if tid in self._tasks
                        and self._tasks[tid].state == "pending"]
            horizons.extend(
                t.deadline for t in self._tasks.values()
                if t.state == "leased"
            )
            self._changed.wait(max(0.0, min([give_up, *horizons]) - now))

    def _lease_next(self, worker: str, now: float) -> dict | None:
        """Grant the earliest leasable pending task, if there is one."""
        while self._pending:
            not_before, task_id = self._pending[0]
            task = self._tasks.get(task_id)
            if task is None or task.state != "pending":
                heapq.heappop(self._pending)  # stale entry (done/retired)
                continue
            if not_before > now:
                return None  # earliest backoff not yet elapsed
            heapq.heappop(self._pending)
            task.state = "leased"
            task.worker = worker
            task.deadline = now + self._lease_timeout
            self._workers[worker]["tasks"].add(task_id)
            spec = self._cells[task.key].spec
            self._emit(
                "lease", task=task_id, worker=worker, workload=spec.workload,
                tool=spec.tool_name, size=len(task.indices),
                attempt=task.attempt,
            )
            return {
                "type": "lease",
                "task_id": task_id,
                "spec": spec.to_dict(),
                "indices": encode_indices(task.indices),
                "attempt": task.attempt,
            }
        return None

    def _handle_heartbeat(self, worker: str) -> dict:
        now = time.monotonic()
        info = self._workers.get(worker)
        if info is not None:
            for task_id in info["tasks"]:
                task = self._tasks.get(task_id)
                if task is not None:
                    task.deadline = now + self._lease_timeout
        self._sweep(now)
        return {"type": "ok"}

    def _campaign_done(self) -> bool:
        """Should an idle work request be answered with ``done``?  The
        one-shot coordinator finishes with its fixed cell set; a
        persistent service overrides this (workers wait for the queue)."""
        return len(self._results) == len(self._cells)

    def _handle_result(self, worker: str, message: dict) -> dict:
        task = self._tasks.get(message.get("task_id"))
        if task is None:
            if message.get("task_id") in self._retired:
                # The cell was cancelled or collected while this worker was
                # finishing; its (bit-identical, unwanted) part is dropped.
                return {"type": "ok", "duplicate": True}
            return {"type": "error", "message": "result for unknown task"}
        cell = self._cells[task.key]
        spec = cell.spec
        fresh = False
        if task.state != "done":
            try:
                part = result_from_dict(message["part"])
            except (CampaignError, KeyError, TypeError, ValueError) as exc:
                problem = f"malformed part: {exc}"
                if task.worker == worker:
                    # The error reply drops this connection; hand the task
                    # on now rather than when the lease times out.
                    self._workers[worker]["failures"] += 1
                    self._requeue(task, reason="failed", detail=problem[:500])
                return {"type": "error", "message": problem}
            try:
                fresh = cell.fold(
                    task.indices, part, task=task.task_id, worker=worker
                )
            except CampaignError as exc:
                self._fatal(exc)
                return {"type": "error", "message": str(exc)}
            self._release(task)
            task.state = "done"
        if not fresh:
            # A slow worker finished a task someone else already completed.
            # The duplicate is bit-identical by construction (seeds are pure
            # functions of the global index) — acknowledge and drop it.
            self._emit(
                "task_done", task=task.task_id, worker=worker,
                workload=spec.workload, tool=spec.tool_name,
                size=len(task.indices), duplicate=True,
                completed=len(cell.completed), n=spec.n,
            )
            return {"type": "ok", "duplicate": True}
        sched_stats = getattr(part, "scheduler_stats", None)
        if sched_stats is not None:
            self._emit(
                "scheduler_stats", workload=spec.workload,
                tool=spec.tool_name, task=task.task_id, worker=worker,
                **sched_stats,
            )
        info = self._workers.get(worker)
        if info is not None:
            info["experiments"] += len(task.indices)
            info["tasks_done"] += 1
        self._emit(
            "task_done", task=task.task_id, worker=worker,
            workload=spec.workload, tool=spec.tool_name,
            size=len(task.indices), duplicate=False, attempt=task.attempt,
            completed=len(cell.completed), n=spec.n,
            completed_total=sum(
                len(c.completed) for c in self._cells.values()
            ),
            total=self._total,
            counts={o.value: part.frequency(o) for o in Outcome},
        )
        cell.save_if_due()
        if cell.done:
            self._finish(cell)
        return {"type": "ok", "duplicate": False}

    def _handle_failed(self, worker: str, message: dict) -> dict:
        task = self._tasks.get(message.get("task_id"))
        if task is None:
            if message.get("task_id") in self._retired:
                return {"type": "ok"}
            return {"type": "error", "message": "failure for unknown task"}
        info = self._workers.get(worker)
        if info is not None:
            info["failures"] += 1
        self._release(task)
        if task.state != "done":
            self._requeue(
                task, reason="failed",
                detail=str(message.get("error", ""))[:500],
            )
        return {"type": "ok"}

    def _release(self, task: _Task) -> None:
        """Drop a task's lease bookkeeping (if any)."""
        if task.worker is not None:
            info = self._workers.get(task.worker)
            if info is not None:
                info["tasks"].discard(task.task_id)
            task.worker = None

    def _requeue(self, task: _Task, reason: str, detail: str = "") -> None:
        task.attempt += 1
        if task.attempt > self._max_attempts:
            self._fatal(CampaignError(
                f"task {task.task_id} ({task.key[0]}/{task.key[1]}, "
                f"{len(task.indices)} experiments) failed {task.attempt} "
                f"times (last: {reason}{': ' + detail if detail else ''})"
            ))
            return
        worker = task.worker
        self._release(task)
        delay = backoff_delay(
            task.attempt, self._backoff_base, self._backoff_cap
        )
        task.state = "pending"
        task.not_before = time.monotonic() + delay
        heapq.heappush(self._pending, (task.not_before, task.task_id))
        self._changed.notify_all()
        self._emit(
            "task_requeue", task=task.task_id, worker=worker, reason=reason,
            attempt=task.attempt, delay_s=delay,
        )

    def _sweep(self, now: float) -> None:
        """Requeue every leased task whose heartbeat deadline passed."""
        for task in list(self._tasks.values()):
            if task.state == "leased" and task.deadline < now:
                self._requeue(task, reason="timeout")

    def _on_disconnect(self, worker: str) -> None:
        info = self._workers.pop(worker, None)
        if info is None:
            return
        self._emit("worker_leave", worker=worker)
        # A closed connection is a dead worker: requeue immediately rather
        # than waiting out the heartbeat timeout.
        for task_id in list(info["tasks"]):
            task = self._tasks.get(task_id)
            if task is not None and task.state == "leased":
                self._requeue(task, reason="disconnect")

    def _on_cell_complete(self, cell: CampaignCell) -> None:
        """Hook: one cell just produced its final merged result (lock
        held).  The service coordinator uses this to advance its queue."""

    def _maybe_finish_all(self) -> None:
        """Declare the whole run finished once every cell has a result
        (lock held).  The persistent service never finishes this way —
        it overrides this with a no-op and lives until drained."""
        if len(self._results) == len(self._cells):
            wall = time.monotonic() - self._started
            self._emit(
                "dist_finish", cells=len(self._cells), total=self._total,
                wall_s=wall,
                experiments_per_sec=self._total / wall if wall > 0 else 0.0,
            )
            self._changed.notify_all()
