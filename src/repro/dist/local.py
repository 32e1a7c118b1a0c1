"""In-process cluster harness: a coordinator plus threaded workers.

``LocalCluster`` spins up a real :class:`~repro.dist.coordinator.Coordinator`
on a loopback port and N real :class:`~repro.dist.worker.Worker` instances
in daemon threads — the full TCP protocol, leases, heartbeats and retry
machinery, with none of the process management.  It exists for:

* deterministic end-to-end tests (including kill-a-worker-mid-campaign,
  via the worker ``die_after`` failpoint or a hand-driven
  :class:`~repro.dist.client.CoordinatorClient` that leases and goes
  silent);
* single-host "distributed" runs where process isolation per worker is
  not needed (each worker can still run ``procs > 1`` process pools).
"""

from __future__ import annotations

import threading

from repro.campaign.checkpoint import DEFAULT_CHECKPOINT_EVERY
from repro.campaign.events import EventLog
from repro.campaign.results import CampaignResult
from repro.dist.coordinator import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_ATTEMPTS,
    Coordinator,
)
from repro.dist.protocol import CampaignSpec
from repro.dist.worker import Worker, WorkerStats
from repro.errors import DistError


class LocalCluster:
    """Coordinator + in-process workers, for tests and single-host runs.

    ::

        with LocalCluster(spec, workers=2, chunk_size=4) as cluster:
            results = cluster.results(timeout=60)

    Worker threads that die (failpoints, coordinator shutdown) never fail
    the cluster directly — fault tolerance is the coordinator's job, and
    :meth:`results` reflects only campaign-level success or failure.
    """

    def __init__(
        self,
        specs: CampaignSpec | list[CampaignSpec],
        workers: int = 2,
        *,
        worker_procs: int = 1,
        chunk_size: int | None = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = 0.05,
        checkpoint_dir=None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        events: EventLog | None = None,
    ) -> None:
        self.coordinator = Coordinator(
            specs, host="127.0.0.1", port=0,
            chunk_size=chunk_size, lease_timeout=lease_timeout,
            max_attempts=max_attempts, backoff_base=backoff_base,
            checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
            events=events,
        )
        self.host, self.port = self.coordinator.start()
        self._threads: list[threading.Thread] = []
        self._stats: list[WorkerStats | None] = []
        self._worker_errors: list[Exception] = []
        for _ in range(workers):
            self.start_worker(procs=worker_procs)

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def start_worker(
        self,
        *,
        procs: int = 1,
        name: str | None = None,
        die_after: int | None = None,
    ) -> Worker:
        """Spawn one worker thread against this cluster's coordinator."""
        worker = Worker(
            self.host, self.port, procs=procs, name=name, die_after=die_after,
        )
        slot = len(self._stats)
        self._stats.append(None)

        def _run() -> None:
            try:
                self._stats[slot] = worker.run()
            except (DistError, OSError) as exc:
                # Worker-level death (coordinator gone, connection dropped):
                # recorded, but campaign health is judged by the coordinator.
                self._worker_errors.append(exc)

        thread = threading.Thread(
            target=_run, name=f"local-worker-{slot}", daemon=True
        )
        thread.start()
        self._threads.append(thread)
        return worker

    def results(
        self, timeout: float | None = 120.0
    ) -> dict[tuple[str, str], CampaignResult]:
        """Wait for the campaign and return the result matrix (see
        :meth:`Coordinator.wait`)."""
        results = self.coordinator.wait(timeout=timeout)
        for thread in self._threads:
            thread.join(timeout=10.0)
        return results

    def worker_stats(self) -> list[WorkerStats | None]:
        """Per-worker lifetime stats (``None`` for workers still running or
        that died before finishing)."""
        return list(self._stats)

    def stop(self) -> None:
        self.coordinator.stop()
        for thread in self._threads:
            thread.join(timeout=10.0)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
