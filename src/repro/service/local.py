"""In-process service harness: ServiceCoordinator plus threaded workers.

A real :class:`~repro.service.coordinator.ServiceCoordinator` on a loopback
port with N real :class:`~repro.dist.worker.Worker` instances in daemon
threads — the full TCP protocol, leases, heartbeats and retry machinery,
with none of the process management — plus a
:class:`~repro.service.client.ServiceClient` bound to it.  It exists for
deterministic end-to-end tests (including kill-a-worker-mid-campaign, via
the worker ``die_after`` failpoint or a hand-driven
:class:`~repro.dist.client.CoordinatorClient` that leases and goes silent)
and single-host runs where process isolation per worker is not needed (each
worker can still run ``procs > 1`` process pools).  Because the queue,
checkpoint root and results database live at caller-supplied paths,
:meth:`restart` can tear the whole service down — gracefully or with
:meth:`~repro.service.coordinator.ServiceCoordinator.kill` (the ``kill -9``
failpoint) — and bring up a fresh coordinator on the same durable state,
which is exactly what the crash-recovery tests exercise.
"""

from __future__ import annotations

import threading

from repro.dist.worker import Worker, WorkerStats
from repro.errors import DistError
from repro.service.client import ServiceClient
from repro.service.coordinator import ServiceCoordinator


class LocalService:
    """A campaign service plus in-process workers, for tests and demos.

    ::

        with LocalService(queue_path=q, db_path=db, workers=2) as svc:
            cid = svc.client.submit({"workloads": [...], "tools": [...], "n": 8})
            svc.client.watch(cid)

    Keyword arguments besides ``workers``, ``worker_procs`` and
    ``reconnect_window`` pass straight through to
    :class:`ServiceCoordinator`.  Worker threads that die (failpoints,
    service shutdown) never fail the harness directly — fault tolerance is
    the coordinator's job, and the queue says how each campaign ended.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        worker_procs: int = 1,
        reconnect_window: float = 0.0,
        **coordinator_kwargs,
    ) -> None:
        self._worker_count = workers
        self._worker_procs = worker_procs
        self._reconnect_window = reconnect_window
        self._coordinator_kwargs = dict(coordinator_kwargs)
        self._threads: list[threading.Thread] = []
        self._stats: list[WorkerStats | None] = []
        self._worker_errors: list[Exception] = []
        self.coordinator: ServiceCoordinator | None = None
        self.client: ServiceClient | None = None
        self._start()

    def _start(self) -> None:
        self.coordinator = ServiceCoordinator(
            host="127.0.0.1", port=0, **self._coordinator_kwargs
        )
        self.host, self.port = self.coordinator.start()
        self.client = ServiceClient(self.host, self.port)
        for _ in range(self._worker_count):
            self.start_worker(procs=self._worker_procs)

    def start_worker(
        self,
        *,
        procs: int = 1,
        name: str | None = None,
        die_after: int | None = None,
    ) -> Worker:
        """Spawn one worker thread against the current coordinator."""
        worker = Worker(
            self.host, self.port, procs=procs, name=name, die_after=die_after,
            reconnect_window=self._reconnect_window,
        )
        slot = len(self._stats)
        self._stats.append(None)

        def _run() -> None:
            try:
                self._stats[slot] = worker.run()
            except (DistError, OSError) as exc:
                # A worker dying (failpoint, service stopped, window
                # expired) is not a harness failure; the coordinator's
                # lease machinery and the tests judge campaign health.
                self._worker_errors.append(exc)

        thread = threading.Thread(
            target=_run, name=f"local-service-worker-{slot}", daemon=True
        )
        thread.start()
        self._threads.append(thread)
        return worker

    def worker_stats(self) -> list[WorkerStats | None]:
        """Per-worker lifetime stats, in start order (``None`` for workers
        still running — they leave when the service drains or stops idle —
        or that died before finishing)."""
        return list(self._stats)

    def restart(self, *, kill: bool = False, workers: int | None = None) -> None:
        """Bounce the service on the same durable state.

        ``kill=True`` uses the ``kill -9`` failpoint (no drain, no final
        checkpoints); otherwise the coordinator stops cleanly.  A fresh
        coordinator then opens the same queue/database/checkpoints on a
        new port, and ``workers`` fresh workers (default: as constructed)
        dial in.
        """
        if kill:
            self.coordinator.kill()
        else:
            self.coordinator.stop()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads = []
        if workers is not None:
            self._worker_count = workers
        self._start()

    def stop(self) -> None:
        if self.coordinator is not None:
            self.coordinator.stop()
        for thread in self._threads:
            thread.join(timeout=10.0)

    def __enter__(self) -> "LocalService":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
