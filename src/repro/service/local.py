"""Single-host service harness: ServiceCoordinator plus worker processes.

A real :class:`~repro.service.coordinator.ServiceCoordinator` on a loopback
port in the caller's process, with N child processes each running the
:class:`~repro.dist.worker.Worker` that ``refine-worker`` runs — the full TCP
protocol, leases, heartbeats and retry machinery, every worker on a core of
its own — plus a :class:`~repro.service.client.ServiceClient` bound to it.
It exists for deterministic end-to-end tests (including
kill-a-worker-mid-campaign, via the worker ``die_after`` failpoint or a
hand-driven :class:`~repro.dist.client.CoordinatorClient` that leases and
goes silent) and single-host runs.  Because the queue, checkpoint root and
results database live at caller-supplied paths, :meth:`LocalService.restart`
can tear the whole service down — gracefully or with
:meth:`~repro.service.coordinator.ServiceCoordinator.kill` (the ``kill -9``
failpoint) — and bring up a fresh coordinator on the same durable state,
which is exactly what the crash-recovery tests exercise.

Workers are forked, so they start with ``repro`` already imported, and they
are forked by a *nursery*: a single-threaded child the harness starts before
its first coordinator exists.  Neither the nursery nor any worker therefore
holds a copy of a listening socket (a killed coordinator's port is refused,
not left completing handshakes nobody accepts), of an accept or pump thread's
locks, of a SQLite handle or of the caller's ``EventLog``, however late
:meth:`LocalService.start_worker` or :meth:`LocalService.restart` is called.
The harness and the nursery speak over one pipe: ``start`` a worker, ``reap``
the fleet.  A pipe that reads end-of-file is a harness that has gone away,
and the nursery takes the fleet with it.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from multiprocessing import util

from repro.dist.worker import Worker, WorkerStats
from repro.errors import DistError
from repro.service.client import ServiceClient
from repro.service.coordinator import ServiceCoordinator

#: ``fork`` wherever it exists (4 ms a worker, against 0.26 s of interpreter
#: start and ``import repro`` under ``spawn``)
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

#: How long the workers get to leave by themselves once their coordinator
#: has stopped (they finish the slice they hold first), and how long each
#: rung after that — ``terminate``, ``kill`` — gets to take effect.
_LEAVE_S = 10.0
_RUNG_S = 2.0


def _spawn(target, *args, name: str):
    process = _CONTEXT.Process(target=target, args=args, name=name)
    process.start()
    return process


def _work(report, kwargs: dict) -> None:
    """A worker process.  Its one message home is how it ended: its
    :class:`WorkerStats`, or the error that stopped it."""
    try:
        ended = Worker(**kwargs).run()
    except (DistError, OSError) as exc:
        ended = exc
    report.send(ended)


def _reap_fleet(fleet: dict, timeout: float, force: bool) -> tuple[bool, list]:
    """Wait up to ``timeout`` for the fleet to leave, then (``force``) walk
    the survivors down ``terminate`` and ``kill``.  Returns whether anyone
    is still alive and, for every worker that is not, ``(slot, what it
    reported or None, the last rung it needed or None)``."""

    def wait(seconds: float) -> list[int]:
        deadline = time.monotonic() + seconds
        for process, _ in fleet.values():
            process.join(max(0.0, deadline - time.monotonic()))
        return [slot for slot, (p, _) in fleet.items() if p.is_alive()]

    alive = wait(timeout)
    rungs: dict[int, str] = {}
    for rung in ("terminate", "kill") if force else ():
        if not alive:
            break
        for slot in alive:
            getattr(fleet[slot][0], rung)()
            rungs[slot] = rung
        alive = wait(_RUNG_S)
    ended = []
    for slot in [slot for slot in fleet if slot not in alive]:
        process, report = fleet.pop(slot)
        try:
            said = report.recv() if report.poll() else None
        except EOFError:  # ended without a word
            said = None
        ended.append((slot, said, rungs.get(slot)))
        report.close()
        process.close()
    return bool(alive), ended


def _nursery(control, harness_end) -> None:
    """Fork workers on request and reap them, until the pipe closes."""
    harness_end.close()  # our copy: end-of-file must mean the harness's is
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the harness stops us
    fleet: dict = {}  # slot -> (process, the read end of its report pipe)
    while True:
        try:
            request, *args = control.recv()
        except EOFError:
            _reap_fleet(fleet, 0.0, force=True)
            return
        if request == "start":
            slot, kwargs = args
            report, child_end = _CONTEXT.Pipe(duplex=False)
            fleet[slot] = (
                _spawn(
                    _work, child_end, kwargs,
                    name=f"local-service-worker-{slot}",
                ),
                report,
            )
            child_end.close()
        else:  # "reap"
            control.send(_reap_fleet(fleet, *args))


def _dismiss(control, nursery) -> None:
    """Close the pipe — the nursery reaps what is left of its fleet and
    exits — and reap the nursery."""
    control.close()
    nursery.join(_LEAVE_S)
    for rung in ("terminate", "kill"):
        if nursery.is_alive():
            getattr(nursery, rung)()
            nursery.join(_RUNG_S)


class LocalService:
    """A campaign service plus worker processes on this host, for tests,
    demos and single-host runs.

    ::

        with LocalService(queue_path=q, db_path=db, workers=2) as svc:
            cid = svc.client.submit({"workloads": [...], "tools": [...], "n": 8})
            svc.client.watch(cid)

    Keyword arguments besides ``workers`` and ``reconnect_window`` pass
    straight through to
    :class:`ServiceCoordinator`.  Workers that die (failpoints, service
    shutdown) never fail the harness directly — fault tolerance is the
    coordinator's job, and the queue says how each campaign ended.  The
    harness owns its processes: :meth:`stop` (and so ``with``), a
    :meth:`restart`, garbage collection and interpreter exit all leave none
    behind, if need be by ``terminate()`` and then ``kill()``.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        reconnect_window: float = 0.0,
        **coordinator_kwargs,
    ) -> None:
        self._worker_count = workers
        self._reconnect_window = reconnect_window
        self._coordinator_kwargs = dict(coordinator_kwargs)
        self._stats: list[WorkerStats | None] = []
        self._worker_errors: list[Exception] = []
        self.coordinator: ServiceCoordinator | None = None
        self.client: ServiceClient | None = None
        # Before anything below exists to be inherited.
        self._control, nursery_end = _CONTEXT.Pipe()
        nursery = _spawn(
            _nursery, nursery_end, self._control, name="local-service-nursery"
        )
        nursery_end.close()
        # multiprocessing joins live children at interpreter exit; this runs
        # first there, and when a harness nobody stopped is collected.
        self._dismiss_nursery = util.Finalize(
            self, _dismiss, args=(self._control, nursery), exitpriority=10
        )
        try:
            self._start()
        except BaseException:
            self._dismiss_nursery()
            raise

    def _start(self) -> None:
        self.coordinator = ServiceCoordinator(
            host="127.0.0.1", port=0, **self._coordinator_kwargs
        )
        self.host, self.port = self.coordinator.start()
        self.client = ServiceClient(self.host, self.port)
        for _ in range(self._worker_count):
            self.start_worker()

    def start_worker(
        self,
        *,
        name: str | None = None,
        die_after: int | None = None,
    ) -> None:
        """Start one worker process against the current coordinator."""
        self._control.send(("start", len(self._stats), dict(
            host=self.host, port=self.port, name=name,
            die_after=die_after, reconnect_window=self._reconnect_window,
        )))
        self._stats.append(None)

    def _reap(self, timeout: float, force: bool = False) -> bool:
        """Book every worker that has ended; ``True`` when none is left."""
        if self._control.closed:
            return True
        self._control.send(("reap", timeout, force))
        alive, ended = self._control.recv()
        for slot, said, rung in ended:
            if isinstance(said, WorkerStats):
                self._stats[slot] = said
            elif said is not None:
                # A worker dying (failpoint, service stopped, window
                # expired) is not a harness failure; the coordinator's
                # lease machinery and the tests judge campaign health.
                self._worker_errors.append(said)
            if rung is not None:
                self._worker_errors.append(DistError(
                    f"worker {slot} did not leave within {timeout:.0f} s "
                    f"of being stopped: it took {rung}()"
                ))
        return not alive

    def join_workers(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for every worker started so far to
        exit; ``True`` when they all have."""
        return self._reap(timeout)

    def worker_stats(self) -> list[WorkerStats | None]:
        """Per-worker lifetime stats, in start order (``None`` for workers
        still running — they leave when the service drains or stops idle —
        or that died before finishing)."""
        self._reap(0.0)
        return list(self._stats)

    def restart(self, *, kill: bool = False, workers: int | None = None) -> None:
        """Bounce the service on the same durable state.

        ``kill=True`` uses the ``kill -9`` failpoint (no drain, no final
        checkpoints); otherwise the coordinator stops cleanly.  The old
        workers are reaped, a fresh coordinator then opens the same
        queue/database/checkpoints on a new port, and ``workers`` fresh
        workers (default: as constructed) dial in.
        """
        if kill:
            self.coordinator.kill()
        else:
            self.coordinator.stop()
        self._reap(_LEAVE_S, force=True)
        if workers is not None:
            self._worker_count = workers
        self._start()

    def stop(self) -> None:
        try:
            if self.coordinator is not None:
                self.coordinator.stop()
            self._reap(_LEAVE_S, force=True)
        finally:
            self._dismiss_nursery()

    def __enter__(self) -> "LocalService":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
