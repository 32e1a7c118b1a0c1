"""The campaign coordinator: a persistent, multi-tenant service that leases
campaign cells to workers with at-least-once delivery, heartbeats and
fault-tolerant retry.

:class:`ServiceCoordinator` owns a durable
:class:`~repro.service.queue.CampaignQueue`, admits the next eligible
campaign's cells and serves them to ``refine-worker`` processes over the
:mod:`repro.dist.protocol` wire format.  The coordinator builds nothing: a
cell's first task is its **plan**, which a worker answers by building the
cell and ordering what is left of it along the golden run; the coordinator
binds the cell's ledger to the plan's program and cuts that order into
fixed-size **slices**, the tasks that run experiments.  It has no notion of "the
run is over": a campaign ends in the queue's state machine, the service
lives until it is drained.  The delivery model:

* **Plans.** While a cell has no slices, a worker with nothing else to
  lease is handed its plan even if another worker is planning it (never
  twice to one worker): the first plan to arrive cuts the slices, later
  ones are acknowledged as duplicates, and every planner keeps the cell it
  built.  A worker is leased, in this order, a slice of a cell it has
  built, a plan of a cell nobody is planning, any slice, then such a
  duplicate plan.  A plan whose build raised fails its campaign at once; a
  plan of another program than a resumed checkpoint's is refused.
* **Leases.** A granted task is leased, not given away: it carries a
  deadline, and the worker must heartbeat to keep it.  A worker that dies,
  hangs or partitions simply stops heartbeating; after ``lease_timeout``
  the sweep requeues its tasks for someone else.
* **Held requests.** A worker asking for work when none is leasable is
  not told to poll: its request stays open until a task becomes leasable
  (or the service drains), bounded by :data:`IDLE_HOLD_S`, so idle workers
  start new or requeued work the moment it exists.
* **Exponential backoff.** Every requeue (timeout, disconnect or an
  explicit ``task_failed``) re-schedules the task ``backoff_base * 2**k``
  seconds out, so a poison task cannot busy-spin the cluster; after
  ``max_attempts`` requeues **the campaign that owns the cell fails** —
  queue row ``failed`` with the message, its cells checkpointed and
  retired, ``campaign_failed`` logged — and nothing else does: the other
  campaigns, the pump and the workers carry on.  A part or a plan the
  cell's ledger rejects (another build, another program) fails its
  campaign the same way.
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
  inline runner keeps too; this module is the lease table, the
  transport and the queue's pump around it.
* **Observability.** Worker joins, leases, requeues and completions are
  emitted through :mod:`repro.campaign.events`, so the JSONL log shows
  per-worker throughput.

A background *pump* thread advances the queue state machine:

1. **cancel** — tear down flagged campaigns (retiring their cells and
   checkpointing partial progress);
2. **finalize** — campaigns whose cells all completed are validated
   (lifecycle ``validate``: chi-squared vs pinned baselines) and marked
   ``done``, their verdicts written to the results database;
3. **admit** — while there is an open slot, the highest-priority queued
   campaign is populated through its lifecycle and its cells opened from
   their checkpoints and added live, each as one plan task — nothing is
   compiled here, so admission takes no time from the fleet
   (``campaign_admitted`` is logged once it has the slot, ahead of its
   cells' events; if adding them fails, ``campaign_failed`` follows);
4. **soak** — in soak mode, the queue is topped up with deterministic
   fuzz campaigns mining for divergence.

Durability: the queue file records intent, per-campaign checkpoint
directories record progress, and the results database records outcomes —
all keyed by the experiment's global index.  Each accepted part is folded
into its cell's running result, which the cell checkpoints every
``checkpoint_every`` experiments, once more when it finishes if anything is
unsaved, and on ``stop``.  A service killed with ``kill -9`` and restarted
recovers the queue (live states fall back to ``queued``), re-admits, and
resumes each campaign from its checkpoints; because the sink is flushed
*before* every checkpoint write (the cells' ``before_save`` seam), the
database is always at least as current as the checkpoint and re-run indices
deduplicate to exactly-once rows.

Control plane: ``submit`` / ``status`` / ``list`` / ``cancel`` /
``drain`` / ``fetch`` messages (no hello handshake needed) ride the same
port and wire format as the worker protocol — see
:mod:`repro.dist.protocol` and :mod:`repro.service.client`.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.campaign.cell import CampaignCell, CampaignSpec, shard_indices
from repro.campaign.checkpoint import DEFAULT_CHECKPOINT_EVERY
from repro.campaign.classify import Outcome
from repro.campaign.events import EventLog
from repro.campaign.io import encode_indices, result_from_dict, result_to_dict
from repro.campaign.results import CampaignResult
from repro.campaign.runner import matrix_checkpoint_path
from repro.dist.protocol import (
    CONTROL_TYPES,
    PROTOCOL_VERSION,
    decode_plan,
    recv_message,
    send_message,
)
from repro.errors import (
    CampaignError,
    DistConnectionError,
    DistError,
    ReproError,
    ResultsDBError,
    ServiceError,
    WorkloadError,
)
from repro.resultsdb.db import ResultsDB
from repro.resultsdb.ingest import DatabaseSink
from repro.service.queue import CampaignQueue
from repro.service.soak import SOAK_PRIORITY, SOAK_TENANT, soak_request
from repro.workloads import get_lifecycle

#: Lease lifetime without a heartbeat before a task is requeued.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Requeues per task before its campaign fails instead of retrying.
DEFAULT_MAX_ATTEMPTS = 5

#: Longest an idle worker's ``request`` is held open waiting for a task to
#: become leasable before it is answered ``wait``: bounds how long a
#: handler thread can sit on a peer that silently went away.
IDLE_HOLD_S = 1.0

#: Default sharding granularity: aim for this many slices per cell so a
#: handful of workers still get several each (stragglers re-lease cheaply)
#: without the per-slice cost — a lease round trip and the slice's own
#: trigger window of the golden run — dominating.
DEFAULT_TASKS_PER_CAMPAIGN = 32

#: Finished campaigns whose full results stay fetchable over the wire.
#: Older results live on in the results database and checkpoints; the
#: in-memory cache only serves ``fetch`` (fresh ``--watch`` pulls and the
#: equivalence tests).
RESULT_CACHE = 8


def backoff_delay(attempt: int, base: float = 0.5, cap: float = 30.0) -> float:
    """Delay before a task's ``attempt``-th requeue becomes leasable."""
    if attempt < 1:
        return 0.0
    return min(cap, base * (2.0 ** (attempt - 1)))


@dataclass
class _Task:
    """One leasable unit of work of one campaign cell: a slice of its
    trigger order, or its plan (``kind``), over ``indices``."""

    task_id: int
    key: tuple[str, str]
    indices: tuple[int, ...]
    kind: str = "slice"  # slice | plan
    attempt: int = 0
    not_before: float = 0.0
    state: str = "pending"  # pending | leased | done
    worker: str | None = None
    deadline: float = 0.0


class ServiceCoordinator:
    """Long-lived campaign service over the dist worker protocol.

    Typical use::

        svc = ServiceCoordinator(
            queue_path="service/queue.sqlite",
            db_path="service/results.sqlite",
            checkpoint_root="service/ckpt",
            port=9100,
        )
        svc.start()                  # accept thread + pump thread
        svc.serve_until_stopped()    # until drained
        svc.stop()

    Workers are plain ``refine-worker`` processes pointed at the same
    port; campaign CRUD happens through :class:`repro.service.client.
    ServiceClient`.  Results are bit-identical to running each cell through
    the sequential :func:`repro.campaign.run_campaign` with the same
    parameters, whatever the worker count or failure history.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        queue_path: str | Path = ":memory:",
        db_path: str | Path | None = None,
        checkpoint_root: str | Path | None = None,
        tenant_quota: int | None = None,
        max_active: int = 1,
        chunk_size: int | None = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        heartbeat_interval: float | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        events: EventLog | None = None,
        soak: bool = False,
        soak_seed: int = 0,
        soak_n: int | None = None,
        soak_backlog: int = 2,
        artifacts_dir: str | Path | None = None,
        poll_interval: float = 0.2,
    ) -> None:
        if max_active < 1:
            raise ServiceError("max_active must be >= 1")
        if lease_timeout <= 0:
            raise DistError("lease_timeout must be positive")
        if checkpoint_every <= 0:
            raise DistError("checkpoint_every must be positive")
        if max_attempts < 1:
            raise DistError("max_attempts must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise DistError("chunk_size must be >= 1")
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

        self._lock = threading.Lock()
        #: notified whenever what a blocked thread waits for may have
        #: changed: work became leasable (held ``request``s), the service
        #: is draining or stopped (``serve_until_stopped``, held requests)
        self._changed = threading.Condition(self._lock)
        self._cells: dict[tuple[str, str], CampaignCell] = {}
        self._tasks: dict[int, _Task] = {}
        #: the tasks waiting to be leased, by id
        self._pending: dict[int, _Task] = {}
        #: cells whose slices are not cut yet -> their plan tasks (more than
        #: one while duplicate plans are out)
        self._plans: dict[tuple[str, str], list[_Task]] = {}
        self._workers: dict[str, dict] = {}
        self._worker_seq = 0
        self._next_task = 0
        #: task ids of retired (finished/cancelled/failed) cells — a
        #: straggler's late submit against one of these gets a benign
        #: duplicate ack instead of an "unknown task" error.
        self._retired: set[int] = set()
        self._stopped = False
        self._draining = False
        self._drained = False
        self._drain_thread: threading.Thread | None = None

        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conns: set[socket.socket] = set()

        queue_kwargs = {} if tenant_quota is None else {
            "tenant_quota": tenant_quota
        }
        self.queue = CampaignQueue(queue_path, **queue_kwargs)
        self._db = None if db_path is None else ResultsDB(db_path)
        self._sink = (
            None if self._db is None
            else DatabaseSink(self._db, source="service")
        )
        self._sink_error: Exception | None = None
        self._ckpt_root = (
            None if checkpoint_root is None else Path(checkpoint_root)
        )
        self._max_active = max_active
        self._soak = soak
        self._soak_seed = soak_seed
        self._soak_n = soak_n
        self._soak_backlog = soak_backlog
        self._artifacts_dir = (
            None if artifacts_dir is None else str(artifacts_dir)
        )
        self._poll_interval = poll_interval
        #: queue id -> {"keys", "request", "lifecycle"} of admitted campaigns
        self._active: dict[int, dict] = {}
        #: queue id -> {"results", "validation"} of recent finished campaigns
        self._finished: OrderedDict[int, dict] = OrderedDict()
        self._drain_grace: float | None = None
        self._kick = threading.Event()
        self._pump_thread: threading.Thread | None = None
        self._closed = False
        recovered = self.queue.recover()
        if recovered:
            self._emit("service_recover", campaigns=recovered)

    # ------------------------------------------------------------------ API

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the coordinator is listening on."""
        if self._sock is None:
            raise DistError("coordinator is not started")
        return self._sock.getsockname()[:2]

    def start(self) -> tuple[str, int]:
        """Bind, listen and start serving and pumping the queue in the
        background; returns the bound (host, port) — pass ``port=0`` to
        pick a free port."""
        self._sock = socket.create_server(
            (self._host, self._port), reuse_port=False
        )
        self._sock.settimeout(0.2)
        address = self.address
        self._emit(
            "service_start", host=address[0], port=address[1],
            queue=self.queue.path, soak=self._soak,
            counts=self.queue.counts(),
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="refine-coordinator", daemon=True
        )
        self._accept_thread.start()
        self._pump_thread = threading.Thread(
            target=self._pump_loop, name="refine-service-pump", daemon=True
        )
        self._pump_thread.start()
        return address

    def serve_until_stopped(self, poll: float = 0.5) -> None:
        """Block until the service stops (drain or :meth:`stop`)."""
        with self._changed:
            while not self._changed.wait_for(
                lambda: self._stopped, timeout=poll
            ):
                pass

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Shut the server down, persisting every unfinished cell's
        checkpoint so a restarted coordinator resumes where this one died."""
        # After a drain that left nothing leased, or with every cell
        # complete, every peer has its answer coming — workers their final
        # ``done``, the client that asked for the drain its ``ok`` — so
        # give them a moment to collect it and hang up before the sockets
        # vanish; an abort (unfinished cells, leases still out) cuts them
        # off immediately instead.
        with self._lock:
            idle = (
                not self._stopped
                and (
                    self._drained
                    or all(cell.done for cell in self._cells.values())
                )
                and not any(t.state == "leased" for t in self._tasks.values())
            )
            if idle:
                # Nothing is in flight: from here on idle workers (held or
                # polling) are answered ``done``.
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
            if not self._stopped:
                self._stopped = True
                for cell in self._cells.values():
                    cell.save()
            self._changed.notify_all()
        self._hang_up()
        drain = self._drain_thread
        if drain is not None and drain is not threading.current_thread():
            # a drain that is stopping the service finishes closing it
            drain.join(timeout=5.0)
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._sink is not None:
            try:
                self._sink.close()
            except ResultsDBError:
                pass
        if self._db is not None:
            self._db.close()
        self.queue.close()

    def kill(self) -> None:
        """Abrupt-death test helper (``kill -9`` semantics): sockets and
        threads go away *now* — no drain, no final checkpoints, no queue
        state transitions.  Only committed state (periodic checkpoints,
        flushed sink batches, queue rows) survives, exactly as it would a
        real SIGKILL; :meth:`~repro.service.queue.CampaignQueue.recover`
        picks the pieces up on the next start."""
        with self._lock:
            self._stopped = True
            self._changed.notify_all()
        self._hang_up()
        self._closed = True
        if self._db is not None:
            self._db.close()
        self.queue.close()

    def _hang_up(self) -> None:
        """Cut every peer off, stop listening and wait for the accept and
        pump threads (``_stopped`` is already set)."""
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        if self._sock is not None:
            try:  # wakes the accept thread now, not at its next timeout
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
        self._kick.set()
        for thread in (self._accept_thread, self._pump_thread):
            if thread is not None and thread is not threading.current_thread():
                thread.join(timeout=10.0)

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
        *,
        checkpoint_path: str | Path | None = None,
    ) -> list[tuple[str, str]]:
        """Admit campaign cells into the lease table (the pump does, through
        :meth:`~repro.service.lifecycle.WorkloadLifecycle.run`, and so does
        ``run_cells(specs, workers=N)``, one cell at a time).

        Each cell is opened from its checkpoint in ``checkpoint_dir`` — or,
        for one spec, the file ``checkpoint_path`` — and what is left of it
        becomes one plan task.  Nothing is compiled here: a checkpoint of
        another campaign raises :class:`CampaignError` at once, one of
        another program when the cell's first plan arrives, which fails the
        campaign that owns the cell (``service_error`` for a cell no
        campaign owns).  Raises :class:`DistError` if any key is already
        being served.
        """
        if isinstance(specs, CampaignSpec):
            specs = [specs]
        keys = [spec.key for spec in specs]
        if len(set(keys)) != len(keys):
            raise DistError("duplicate (workload, tool) campaign specs")
        if checkpoint_path is not None and (
            checkpoint_dir is not None or len(specs) != 1
        ):
            raise DistError("checkpoint_path names the file of one cell")
        opened = []
        for spec in specs:
            cell = CampaignCell(
                spec,
                checkpoint_path=checkpoint_path if checkpoint_dir is None
                else matrix_checkpoint_path(
                    checkpoint_dir, spec.workload, spec.tool_name
                ),
                checkpoint_every=self._checkpoint_every,
                emit=self._emit, event_names=("cell_start", "cell_finish"),
                before_save=self._flush_sink,
            )
            opened.append(cell)
        with self._lock:
            if self._stopped or self._draining:
                raise DistError("coordinator is shutting down")
            taken = [k for k in keys if k in self._cells]
            if taken:
                raise DistError(f"cells already being served: {taken}")
            for cell in opened:
                key = cell.spec.key
                self._cells[key] = cell
                cell.start()
                if cell.done:
                    # resumed already complete: nothing to serve
                    self._finish(cell)
                else:
                    self._plans[key] = [
                        self._new_task(key, tuple(cell.remaining), "plan")
                    ]
            self._changed.notify_all()
        return keys

    def retire_cells(
        self, keys: list[tuple[str, str]]
    ) -> dict[tuple[str, str], CampaignResult | None]:
        """Remove cells from service (a finished, cancelled or failed
        campaign).

        Unfinished cells are checkpointed first.  Outstanding task ids are
        remembered in the retired set so a slow worker's late submit is
        acknowledged as a duplicate rather than treated as an error.
        Returns each cell's merged result so far (``None`` if nothing has
        completed).  Unknown keys are ignored.
        """
        with self._lock:
            return self._retire(keys)

    def worker_health(self) -> dict[str, dict]:
        """Live per-worker health/throughput snapshot.

        The ``list`` reply carries it: connected workers, their lease load,
        lifetime experiment throughput and failure counts, and how long
        since each was last heard from.
        """
        with self._lock:
            return self._worker_snapshot()

    def cell_progress(self) -> dict[tuple[str, str], tuple[int, int]]:
        """Per-cell ``(completed, n)`` experiment counts, live."""
        with self._lock:
            return {
                key: (len(cell.completed), cell.spec.n)
                for key, cell in self._cells.items()
            }

    # ----------------------------------------------------------- internals

    def _new_task(
        self, key: tuple[str, str], indices: tuple[int, ...],
        kind: str = "slice",
    ) -> _Task:
        """A new task, pending (lock held)."""
        task = _Task(self._next_task, key, indices, kind)
        self._tasks[task.task_id] = self._pending[task.task_id] = task
        self._next_task += 1
        return task

    def _owner(self, key: tuple[str, str]) -> int | None:
        """The queue id of the admitted campaign that owns cell ``key``
        (lock held); ``None`` for a cell added by hand."""
        return next(
            (c for c, e in list(self._active.items()) if key in e["keys"]),
            None,
        )

    def _with_owner(self, key: tuple[str, str], fields: dict) -> dict:
        """A plan event's ``fields``, tagged with the ``campaign`` that owns
        cell ``key`` if one does (lock held)."""
        cid = self._owner(key)
        return fields if cid is None else {**fields, "campaign": cid}

    def _worker_snapshot(self) -> dict[str, dict]:
        """Per-worker dict of :meth:`worker_health` (lock held)."""
        now = time.monotonic()
        return {
            name: {
                "leased": len(info["tasks"]),
                "experiments": info["experiments"],
                "tasks_done": info["tasks_done"],
                "failures": info["failures"],
                "uptime_s": now - info["joined"],
                "idle_s": now - info["last_seen"],
            }
            for name, info in self._workers.items()
        }

    def _retire(
        self, keys: list[tuple[str, str]]
    ) -> dict[tuple[str, str], CampaignResult | None]:
        """:meth:`retire_cells` with the lock held."""
        out: dict[tuple[str, str], CampaignResult | None] = {}
        for key in map(tuple, keys):
            cell = self._cells.pop(key, None)
            if cell is None:
                continue
            cell.save()
            out[key] = cell.result if cell.completed else None
            self._plans.pop(key, None)
            for info in self._workers.values():
                info["cells"].discard(key)
            for task_id, task in list(self._tasks.items()):
                if task.key == key:
                    self._release(task)
                    # a sweep that is walking the table must pass it by
                    task.state = "done"
                    del self._tasks[task_id]
                    self._pending.pop(task_id, None)
                    self._retired.add(task_id)
        return out

    def _finish(self, cell: CampaignCell) -> None:
        """A cell's last part is in (lock held): close its books and wake
        the pump — its campaign may be finished."""
        cell.finish()
        self._kick.set()

    def _fail_owner(self, key: tuple[str, str], message: str) -> None:
        """Fail the campaign that owns cell ``key`` (lock held): a task of
        it ran out of attempts, its build raised, or its ledger rejected a
        part or a plan.  The campaign's cells are checkpointed and retired
        on the spot — its pending tasks are unleasable from here on — its
        queue row says why, and every other campaign carries on."""
        cid = self._owner(key)
        if cid is None:
            # a cell no queued campaign owns (``add_cells`` by hand)
            self._retire([key])
            self._emit("service_error", error=message)
            return
        self._retire(self._active.pop(cid)["keys"])
        self.queue.set_state(cid, "failed", error=message)
        self._emit("campaign_failed", campaign=cid, error=message)
        self._kick.set()  # its slot is open

    def _drain_loop(self, grace_s: float) -> None:
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            with self._lock:
                if self._stopped:
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
        if self._sink is not None and self._sink_error is None:
            try:
                self._sink.emit(event, **fields)
            except ResultsDBError as exc:
                self._note_sink_error(exc)

    def _flush_sink(self) -> None:
        """Every cell's ``before_save``: flush experiment rows to the
        database *before* a checkpoint hits disk, so on-disk checkpoints
        never run ahead of the DB.  A crash then loses at most work that
        will be re-run on resume, and re-run rows dedup by global index —
        exactly-once either way."""
        if self._sink is not None and self._sink_error is None:
            try:
                self._sink.flush()
                self._db.commit()
            except ResultsDBError as exc:
                self._note_sink_error(exc)

    def _note_sink_error(self, exc: Exception) -> None:
        # A broken results sink must not take the campaign data plane down
        # with it: record it once (which also takes the sink out of
        # ``_emit``), keep serving, surface it in status.
        self._sink_error = exc
        self._emit("service_error", error=f"results sink: {exc}")

    # ---------------------------------------------------------- data plane

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
                        # (name: [1], task_id: [1], missing keys...) is the
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
        """Route one message (lock held); returns ``(worker, reply)``."""
        if mtype in CONTROL_TYPES:
            return worker, self._handle_control(mtype, message)
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
        if mtype == "plan_result":
            return worker, self._handle_plan(worker, message)
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
        self._worker_seq += 1
        name = requested or f"worker-{self._worker_seq}"
        if name in self._workers:
            name = f"{name}-{self._worker_seq}"
        now = time.monotonic()
        self._workers[name] = {
            # ``cells``: those it has leased a plan or a slice of, so holds
            # the build of (its leases prefer their slices)
            "tasks": set(), "cells": set(), "joined": now, "last_seen": now,
            "experiments": 0, "tasks_done": 0, "failures": 0,
        }
        self._emit("worker_join", worker=name)
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
            if self._draining:
                # Graceful shutdown: refuse new leases; the worker treats
                # ``done`` as "the service is going away" and exits (or,
                # with a reconnect window, comes back once it restarts).
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
            if now >= give_up:
                # The next request is held again; no need to stay away.
                return {"type": "wait", "delay_s": 0.05}
            # Work can also appear by time alone: the earliest backoff
            # expiry or lease deadline.
            horizons = [t.not_before for t in self._pending.values()]
            horizons.extend(
                t.deadline for t in self._tasks.values()
                if t.state == "leased"
            )
            self._changed.wait(max(0.0, min([give_up, *horizons]) - now))

    def _lease_next(self, worker: str, now: float) -> dict | None:
        """Grant ``worker`` its next task, if there is one: a slice of a
        cell it has built, a plan of a cell nobody is planning, any slice
        — the earliest leasable of the first kind there is — or else a
        duplicate plan of a cell still waiting on one."""
        held = self._workers[worker]["cells"]
        best, best_rank = None, None
        for task in self._pending.values():
            if task.not_before > now:
                continue  # backing off
            if task.kind == "slice":
                rank = 0 if task.key in held else 2
            elif self._planning(task.key, worker):
                continue
            else:
                rank = 1
            if best is None or (rank, task.not_before, task.task_id) < (
                best_rank, best.not_before, best.task_id
            ):
                best, best_rank = task, rank
        if best is None:
            best = self._duplicate_plan(worker)
            if best is None:
                return None
        del self._pending[best.task_id]
        best.state = "leased"
        best.worker = worker
        best.deadline = now + self._lease_timeout
        self._workers[worker]["tasks"].add(best.task_id)
        held.add(best.key)
        spec = self._cells[best.key].spec
        fields = dict(
            task=best.task_id, worker=worker, workload=spec.workload,
            tool=spec.tool_name, size=len(best.indices), attempt=best.attempt,
        )
        if best.kind == "plan":
            self._emit("plan_lease", **self._with_owner(best.key, fields))
        else:
            self._emit("lease", **fields)
        return {
            "type": "lease" if best.kind == "slice" else "plan",
            "task_id": best.task_id,
            "spec": spec.to_dict(),
            "indices": encode_indices(best.indices),
            "attempt": best.attempt,
        }

    def _planning(self, key: tuple[str, str], worker: str) -> bool:
        """Is ``worker`` holding a plan of cell ``key`` (lock held)?"""
        return any(
            t.worker == worker and t.state == "leased"
            for t in self._plans.get(key, ())
        )

    def _duplicate_plan(self, worker: str) -> _Task | None:
        """A new plan task of the first cell that waits on plans held by
        other workers only (lock held): a worker with nothing else to do
        builds it too, rather than idle until the first plan is in."""
        for key, plans in self._plans.items():
            if not any(t.state == "pending" for t in plans) and (
                not self._planning(key, worker)
            ):
                task = self._new_task(key, plans[0].indices, "plan")
                plans.append(task)
                return task
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

    def _handle_result(self, worker: str, message: dict) -> dict:
        task = self._tasks.get(message.get("task_id"))
        if task is None:
            if message.get("task_id") in self._retired:
                # The cell was retired (its campaign cancelled, failed or
                # collected) while this worker was finishing; its unwanted
                # part is dropped.
                return {"type": "ok", "duplicate": True}
            return {"type": "error", "message": "result for unknown task"}
        if task.kind != "slice":
            return {"type": "error", "message": "result for a plan"}
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
                # A peer that disagrees about the program is corruption,
                # not noise: no retry can make its campaign whole.
                self._fail_owner(task.key, str(exc))
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
            counts={o.value: part.frequency(o) for o in Outcome},
        )
        cell.save_if_due()
        if cell.done:
            self._finish(cell)
        return {"type": "ok", "duplicate": False}

    def _handle_plan(self, worker: str, message: dict) -> dict:
        """A worker's ``plan_result``: the first plan of a cell binds its
        ledger and cuts its slices; a later one is a duplicate."""
        task = self._tasks.get(message.get("task_id"))
        if task is None:
            if message.get("task_id") in self._retired:
                return {"type": "ok", "duplicate": True}
            return {"type": "error", "message": "plan for unknown task"}
        if task.kind != "plan":
            return {"type": "error", "message": "plan for a slice"}
        cell = self._cells[task.key]
        spec = cell.spec
        fields = self._with_owner(task.key, dict(
            task=task.task_id, worker=worker, workload=spec.workload,
            tool=spec.tool_name, size=len(task.indices),
        ))
        if task.key not in self._plans:
            # Another worker's plan of the cell arrived first (and cut the
            # slices this one would have): bit-identical by construction.
            self._emit("plan_done", **fields, duplicate=True)
            return {"type": "ok", "duplicate": True}
        try:
            plan = decode_plan(message, task.indices)
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"malformed plan: {exc}"
            if task.worker == worker:
                # The error reply drops this connection; hand the plan on
                # now rather than when the lease times out.
                self._workers[worker]["failures"] += 1
                self._requeue(task, reason="failed", detail=problem[:500])
            return {"type": "error", "message": problem[:500]}
        if isinstance(plan, str):
            # The build raised: any worker's would (it depends on the spec
            # alone), so no retry can run the cell.
            self._fail_owner(task.key, plan[:500])
            return {"type": "ok", "duplicate": False}
        order, program = plan
        try:
            cell.bind(program)
        except CampaignError as exc:
            # another program than the checkpoint's, or another build
            self._fail_owner(task.key, str(exc))
            return {"type": "error", "message": str(exc)}
        for other in self._plans.pop(task.key):
            self._release(other)
            other.state = "done"
            self._pending.pop(other.task_id, None)
        size = self._chunk_size or max(
            1, -(-spec.n // DEFAULT_TASKS_PER_CAMPAIGN)
        )
        shards = shard_indices(order, size)
        for indices in shards:
            self._new_task(task.key, indices)
        self._changed.notify_all()
        self._emit(
            "plan_done", **fields, duplicate=False, attempt=task.attempt,
            slices=len(shards),
        )
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
            what = "task" if task.kind == "slice" else "plan"
            self._fail_owner(task.key, (
                f"{what} {task.task_id} ({task.key[0]}/{task.key[1]}, "
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
        self._pending[task.task_id] = task
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

    # --------------------------------------------------------------- pump

    def _pump_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopped:
                    return
            try:
                self._pump_once()
            except ReproError as exc:
                # A pump-step failure (queue I/O, validation DB hiccup)
                # must not kill the service thread; campaign-level errors
                # are already attributed to their queue rows inside the
                # steps themselves.
                self._emit("service_error", error=str(exc))
            self._kick.wait(self._poll_interval)
            self._kick.clear()

    def _pump_once(self) -> None:
        grace = self._drain_grace
        if grace is not None and not self._draining:
            self.request_drain(grace)
        self._handle_cancels()
        self._finalize_completed()
        if not self._draining:
            self._admit()
            self._top_up_soak()

    def _handle_cancels(self) -> None:
        for row in self.queue.cancelling():
            cid = row["id"]
            entry = self._active.pop(cid, None)
            if entry is not None:
                # Retiring checkpoints the partial cells.
                self.retire_cells(entry["keys"])
            self.queue.set_state(cid, "cancelled")
            self._emit(
                "campaign_cancelled", campaign=cid,
                was_running=entry is not None,
            )

    def _finalize_completed(self) -> None:
        for cid, entry in list(self._active.items()):
            with self._lock:
                # (a campaign failed meanwhile has no cells left)
                cells = [self._cells.get(key) for key in entry["keys"]]
                complete = all(c is not None and c.done for c in cells)
            if not complete:
                continue
            self.queue.set_state(cid, "validating")
            results = self.retire_cells(entry["keys"])
            del self._active[cid]
            try:
                lifecycle = get_lifecycle(entry["lifecycle"])
                verdict = lifecycle.validate(
                    entry["request"], results, self._db
                )
            except ReproError as exc:
                self.queue.set_state(cid, "failed", error=str(exc))
                self._emit("campaign_failed", campaign=cid, error=str(exc))
                continue
            self._cache_result(cid, results, verdict)
            self.queue.set_state(
                cid, "done", validation=verdict["overall"], detail=verdict,
            )
            self._emit(
                "campaign_done", campaign=cid,
                validation=verdict["overall"],
                cells={
                    f"{w}/{t}": {"n": r.n} for (w, t), r in results.items()
                },
            )

    def _admit(self) -> None:
        rejected: list[int] = []
        while len(self._active) < self._max_active:
            row = self.queue.next_eligible(tuple(rejected))
            if row is None:
                return
            cid = row["id"]
            self.queue.set_state(cid, "populating")
            try:
                lifecycle = get_lifecycle(row["lifecycle"])
                specs = lifecycle.populate(row["request"])
            except ReproError as exc:
                self.queue.set_state(cid, "failed", error=str(exc))
                self._emit("campaign_failed", campaign=cid, error=str(exc))
                continue
            keys = [spec.key for spec in specs]
            with self._lock:
                conflict = (
                    len(set(keys)) != len(keys)
                    or any(key in self._cells for key in keys)
                )
            if conflict:
                # Another active campaign is serving one of these cells;
                # admission would alias their task streams.  Leave it
                # queued and look further down the queue this round.
                self.queue.set_state(cid, "queued")
                rejected.append(cid)
                continue
            ckpt_dir = (
                None if self._ckpt_root is None
                else self._ckpt_root / f"campaign-{cid}"
            )
            # The campaign has its slot; installing its cells can still
            # fail (``campaign_failed`` follows).  Logged first because
            # held workers lease the moment the cells go live, and a
            # campaign's ``cell_start``/``lease`` lines belong after its
            # admission in the stream; owned and ``running`` first for the
            # same reason — a task that fails from then on must find its
            # campaign.
            self._emit(
                "campaign_admitted", campaign=cid, tenant=row["tenant"],
                priority=row["priority"], cells=len(keys),
                experiments=sum(spec.n for spec in specs),
            )
            self._active[cid] = {
                "keys": keys,
                "request": row["request"],
                "lifecycle": row["lifecycle"],
                "tenant": row["tenant"],
            }
            self.queue.set_state(cid, "running")
            try:
                lifecycle.run(self, specs, ckpt_dir)
            except (DistError, CampaignError) as exc:
                self._active.pop(cid, None)
                with self._lock:
                    closing = self._stopped or self._draining
                if closing and isinstance(exc, DistError):
                    # A drain or kill landed after the pump's check:
                    # ``add_cells`` refused the campaign and installed
                    # nothing, so it waits for the next coordinator.
                    self.queue.set_state(cid, "queued")
                    return
                self.queue.set_state(cid, "failed", error=str(exc))
                self._emit("campaign_failed", campaign=cid, error=str(exc))

    def _top_up_soak(self) -> None:
        if not self._soak:
            return
        while self.queue.tenant_live(SOAK_TENANT) < self._soak_backlog:
            round_index = self.queue.submitted_count(SOAK_TENANT)
            kwargs = {} if self._soak_n is None else {"n": self._soak_n}
            request = soak_request(
                round_index, soak_seed=self._soak_seed,
                artifacts=self._artifacts_dir, **kwargs,
            )
            try:
                cid = self.queue.submit(
                    request, tenant=SOAK_TENANT, priority=SOAK_PRIORITY,
                    lifecycle="soak",
                )
            except ServiceError:
                return  # quota: enough soak work in flight
            self._emit(
                "soak_submit", campaign=cid, round=round_index,
                workloads=request["workloads"], tools=request["tools"],
            )

    def _cache_result(self, cid: int, results: dict, verdict: dict) -> None:
        self._finished[cid] = {"results": results, "validation": verdict}
        while len(self._finished) > RESULT_CACHE:
            self._finished.popitem(last=False)

    # ------------------------------------------------------- control plane

    def _handle_control(self, mtype: str, message: dict) -> dict:
        try:
            if mtype == "submit":
                return self._control_submit(message)
            if mtype == "status":
                return self._control_status(message)
            if mtype == "list":
                return self._control_list(message)
            if mtype == "cancel":
                info = self.queue.request_cancel(int(message["campaign"]))
                self._kick.set()
                return {
                    "type": "ok", "campaign": info["id"],
                    "state": info["state"],
                    "cancel_requested": info["cancel_requested"],
                }
            if mtype == "drain":
                self._drain_grace = float(message.get("grace_s", 30.0))
                self._kick.set()
                return {"type": "ok", "draining": True}
            if mtype == "fetch":
                return self._control_fetch(message)
        except (ServiceError, WorkloadError, ResultsDBError) as exc:
            return {"type": "error", "message": str(exc)}
        raise ServiceError(f"unrouted control type {mtype!r}")  # unreachable

    def _control_submit(self, message: dict) -> dict:
        request = message.get("request")
        if not isinstance(request, dict):
            raise ServiceError("submit needs a 'request' object")
        lifecycle_name = message.get("lifecycle", "standard")
        # Validate at the wire: an unworkable request dies here with a
        # useful message instead of as a 'failed' row minutes later.
        summary = get_lifecycle(lifecycle_name).describe(request)
        cid = self.queue.submit(
            request,
            tenant=str(message.get("tenant", "default")),
            priority=int(message.get("priority", 0)),
            lifecycle=lifecycle_name,
        )
        self._kick.set()
        return {"type": "ok", "campaign": cid, "describe": summary}

    def _control_status(self, message: dict) -> dict:
        cid = int(message["campaign"])
        info = self.queue.info(cid)
        if info is None:
            raise ServiceError(f"no campaign with id {cid}")
        reply = {"type": "ok", "info": info}
        entry = self._active.get(cid)
        if entry is not None:
            # a finished cell stays (complete) until its campaign is retired
            reply["progress"] = {
                "{}/{}".format(*key): {
                    "completed": len(self._cells[key].completed),
                    "n": self._cells[key].spec.n,
                }
                for key in entry["keys"] if key in self._cells
            }
        if cid in self._finished:
            reply["validation"] = self._finished[cid]["validation"]
        return reply

    def _control_list(self, message: dict) -> dict:
        tenant = message.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            raise ServiceError("'tenant' must be a string")
        limit = int(message.get("limit", 100))
        return {
            "type": "ok",
            "campaigns": self.queue.list(tenant, limit=limit),
            "counts": self.queue.counts(),
            "active": sorted(self._active),
            "draining": self._draining,
            "workers": self._worker_snapshot(),
            "sink_error": (
                None if self._sink_error is None else str(self._sink_error)
            ),
        }

    def _control_fetch(self, message: dict) -> dict:
        cid = int(message["campaign"])
        entry = self._finished.get(cid)
        if entry is None:
            info = self.queue.info(cid)
            state = "unknown" if info is None else info["state"]
            raise ServiceError(
                f"campaign {cid} has no cached result (state: {state}); "
                f"results live in the database and checkpoints"
            )
        return {
            "type": "ok",
            "campaign": cid,
            "results": {
                "{}/{}".format(*key): result_to_dict(result)
                for key, result in entry["results"].items()
            },
            "validation": entry["validation"],
        }
