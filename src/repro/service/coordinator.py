"""The persistent, multi-tenant campaign service.

:class:`ServiceCoordinator` is a :class:`~repro.dist.coordinator.Coordinator`
that never runs out of work on purpose: instead of being born with a fixed
campaign matrix, it owns a durable :class:`~repro.service.queue.CampaignQueue`
and feeds the next eligible campaign's cells to the (unchanged) worker
pool — leases, heartbeats, requeue and exact dedup are all inherited.  A
background *pump* thread advances the queue state machine:

1. **cancel** — tear down flagged campaigns (retiring their cells and
   checkpointing partial progress for a possible resubmit);
2. **finalize** — campaigns whose cells all completed are validated
   (lifecycle ``validate``: chi-squared vs pinned baselines) and marked
   ``done``, their verdicts written to the results database;
3. **admit** — while there is an open slot, the highest-priority queued
   campaign is populated through its lifecycle and its cells added live
   (``campaign_admitted`` is logged once it has the slot, ahead of its
   cells' events; if adding them fails, ``campaign_failed`` follows);
4. **soak** — in soak mode, the queue is topped up with deterministic
   fuzz campaigns mining for divergence.

Durability: the queue file records intent, per-campaign checkpoint
directories record progress, and the results database records outcomes —
all keyed by the experiment's global index.  A service killed with
``kill -9`` and restarted recovers the queue (live states fall back to
``queued``), re-admits, and resumes each campaign from its checkpoints;
because the sink is flushed *before* every checkpoint write (the cells'
``before_save`` seam), the database is always at least as current as the
checkpoint and re-run indices deduplicate to exactly-once rows.

Control plane: ``submit`` / ``status`` / ``list`` / ``cancel`` /
``drain`` / ``fetch`` messages (no hello handshake needed) ride the same
port and wire format as the worker protocol — see
:mod:`repro.dist.protocol` and :mod:`repro.service.client`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from pathlib import Path

from repro.campaign.checkpoint import DEFAULT_CHECKPOINT_EVERY
from repro.campaign.events import EventLog
from repro.campaign.io import result_to_dict
from repro.dist.coordinator import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_ATTEMPTS,
    Coordinator,
)
from repro.dist.protocol import CONTROL_TYPES
from repro.errors import (
    CampaignError,
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

#: Finished campaigns whose full results stay fetchable over the wire.
#: Older results live on in the results database and checkpoints; the
#: in-memory cache only serves ``fetch`` (fresh ``--watch`` pulls and the
#: equivalence tests).
RESULT_CACHE = 8


class ServiceCoordinator(Coordinator):
    """Long-lived campaign service over the dist worker protocol.

    Typical use::

        svc = ServiceCoordinator(
            queue_path="service/queue.sqlite",
            db_path="service/results.sqlite",
            checkpoint_root="service/ckpt",
            port=9100,
        )
        svc.start()                  # accept thread + pump thread
        svc.serve_until_stopped()    # until drain / fatal error

    Workers are plain ``refine-worker`` processes pointed at the same
    port; campaign CRUD happens through :class:`repro.service.client.
    ServiceClient`.
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
        super().__init__(
            [], host, port,
            chunk_size=chunk_size, lease_timeout=lease_timeout,
            heartbeat_interval=heartbeat_interval, max_attempts=max_attempts,
            backoff_base=backoff_base, backoff_cap=backoff_cap,
            checkpoint_every=checkpoint_every, events=events,
            allow_empty=True,
        )
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
        self._before_save = self._flush_sink
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

    # ------------------------------------------------------------ lifecycle

    def start(self) -> tuple[str, int]:
        address = super().start()
        self._emit(
            "service_start", host=address[0], port=address[1],
            queue=self.queue.path, soak=self._soak,
            counts=self.queue.counts(),
        )
        self._pump_thread = threading.Thread(
            target=self._pump_loop, name="refine-service-pump", daemon=True
        )
        self._pump_thread.start()
        return address

    def serve_until_stopped(self, poll: float = 0.5) -> None:
        """Block until the service stops (drain or fatal error); re-raises
        the fatal error if one occurred."""
        while True:
            with self._changed:
                if self._changed.wait_for(
                    lambda: self._stopped or self._error is not None,
                    timeout=poll,
                ):
                    break
        if self._error is not None:
            raise self._error

    def stop(self, drain_timeout: float = 5.0) -> None:
        super().stop(drain_timeout)
        self._kick.set()
        if (
            self._pump_thread is not None
            and self._pump_thread is not threading.current_thread()
        ):
            self._pump_thread.join(timeout=10.0)
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
            conns = list(self._conns)
        self._kick.set()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        if self._sock is not None:
            self._sock.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self._pump_thread is not None:
            self._pump_thread.join(timeout=10.0)
        self._closed = True
        if self._db is not None:
            self._db.close()
        self.queue.close()

    # -------------------------------------------------- coordinator hooks

    def _campaign_done(self) -> bool:
        # The service is never "done" while alive: idle workers poll until
        # the queue feeds them.  Draining tells them to go home.
        return self._draining

    def _maybe_finish_all(self) -> None:
        # dist_finish / wait() semantics belong to the one-shot
        # coordinator; the service finishes campaigns, not itself.
        return

    def _on_cell_complete(self, cell) -> None:
        # Wake the pump promptly: the cell's campaign may be finished.
        self._kick.set()

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

    def _emit(self, event: str, **fields) -> None:
        super()._emit(event, **fields)
        if self._sink is not None and self._sink_error is None:
            try:
                self._sink.emit(event, **fields)
            except ResultsDBError as exc:
                self._note_sink_error(exc)

    def _note_sink_error(self, exc: Exception) -> None:
        # A broken results sink must not take the campaign data plane down
        # with it: record it once, keep serving, surface it in status.
        self._sink_error = exc
        super()._emit("service_error", error=f"results sink: {exc}")

    # --------------------------------------------------------------- pump

    def _pump_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopped or self._error is not None:
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
                # Retiring checkpoints the partial cells: a resubmit of the
                # same campaign resumes instead of restarting.
                self.retire_cells(entry["keys"])
            self.queue.set_state(cid, "cancelled")
            self._emit(
                "campaign_cancelled", campaign=cid,
                was_running=entry is not None,
            )

    def _finalize_completed(self) -> None:
        for cid, entry in list(self._active.items()):
            with self._lock:
                complete = all(k in self._results for k in entry["keys"])
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
            # admission in the stream.
            self._emit(
                "campaign_admitted", campaign=cid, tenant=row["tenant"],
                priority=row["priority"], cells=len(keys),
                experiments=sum(spec.n for spec in specs),
            )
            try:
                lifecycle.run(self, specs, ckpt_dir)
            except (DistError, CampaignError) as exc:
                self.queue.set_state(cid, "failed", error=str(exc))
                self._emit("campaign_failed", campaign=cid, error=str(exc))
                continue
            self._active[cid] = {
                "keys": keys,
                "request": row["request"],
                "lifecycle": row["lifecycle"],
                "tenant": row["tenant"],
            }
            self.queue.set_state(cid, "running")

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

    def _dispatch(self, worker, mtype, message):
        if mtype in CONTROL_TYPES:
            return worker, self._handle_control(mtype, message)
        return super()._dispatch(worker, mtype, message)

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
            "workers": {
                name: {
                    "procs": info["procs"],
                    "leased": len(info["tasks"]),
                    "experiments": info["experiments"],
                    "failures": info["failures"],
                    "idle_s": time.monotonic() - info["last_seen"],
                }
                for name, info in self._workers.items()
            },
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
