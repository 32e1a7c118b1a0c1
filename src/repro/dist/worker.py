"""Campaign worker: lease tasks, run them, stream results back.

A worker is stateless and disposable — it holds no campaign state beyond
the task it is currently running, keeps a small bounded cache of compiled
tools and their golden timelines (so the leases of a cell skip
recompilation and replay only their own trigger window), and can be
killed at any moment without corrupting the campaign: the coordinator's
lease timeout requeues whatever it was holding.

A cell is built only where it runs: its first task is a **plan**
(:func:`repro.campaign.parallel.run_plan`), which builds the cell into the
worker's cache and returns the trigger order the coordinator cuts into
slices.  Slices execute through the one slice executor
(:func:`repro.campaign.parallel.run_slice`), so a distributed campaign is
bit-identical to a sequential one.  A worker is one process on one core; a
node is fully subscribed (the paper's cluster, Appendix A.4) by running one
worker per core.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import (
    Future,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeout,
)
from dataclasses import dataclass

try:  # POSIX only; without it ``WorkerStats.peak_rss_mb`` stays 0
    import resource
except ImportError:
    resource = None

from repro.campaign.cell import CampaignSpec
from repro.campaign.io import decode_indices
from repro.campaign.parallel import SliceContexts, run_plan, run_slice
from repro.campaign.results import CampaignResult
from repro.dist.client import CoordinatorClient
from repro.errors import DistConnectionError, DistError, ReproError


#: Upper bound on one idle-poll sleep, whatever delay the coordinator
#: suggests: bounds how stale a worker's view of leasable work can get.
_MAX_IDLE_POLL_S = 1.0


@dataclass
class WorkerStats:
    """What one worker did over its lifetime, for logs and tests."""

    name: str
    #: slices run, and plans (a cell built and ordered)
    tasks: int = 0
    plans: int = 0
    experiments: int = 0
    duplicates: int = 0
    failures: int = 0
    #: the process :meth:`Worker.run` ran in, and what it cost there: user +
    #: system CPU spent during the run (``os.times()``) and the high-water
    #: resident set
    pid: int = 0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0


class Worker:
    """Connect to a coordinator and run leased campaign slices until done.

    ``die_after=k`` is a test failpoint: the worker abruptly drops its
    connection while holding the first plan or slice it is granted after
    ``k`` finished slices, simulating a crash.

    ``reconnect_window=W`` (seconds of *continuous* coordinator downtime
    tolerated) makes the worker survive coordinator bounces: on a refused
    connection or a torn socket it retries with capped exponential backoff
    plus jitter, giving up only after the coordinator has been unreachable
    for W straight seconds.  ``0`` (the library default) keeps the
    historical die-on-first-failure behaviour; the ``refine-worker`` CLI
    defaults it on, so a fleet rides out service restarts.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: str | None = None,
        die_after: int | None = None,
        reconnect_window: float = 0.0,
        reconnect_base: float = 0.5,
        reconnect_cap: float = 15.0,
    ) -> None:
        self._client = CoordinatorClient(host, port, name=name)
        self._die_after = die_after
        self._reconnect_window = reconnect_window
        self._reconnect_base = reconnect_base
        self._reconnect_cap = reconnect_cap
        #: this worker's compiled tools and golden timelines (the slice
        #: runs on one thread at a time, so nothing else touches them)
        self._contexts = SliceContexts()

    def run(self) -> WorkerStats:
        """Work until the coordinator says ``done`` (it is draining).

        Raises :class:`DistError` if the coordinator becomes unreachable or
        rejects the worker (campaigns surviving *worker* loss is the
        coordinator's job; a worker losing its coordinator just stops) —
        unless a ``reconnect_window`` is set, in which case connection loss
        triggers backoff-and-retry until the window of continuous downtime
        is exhausted.
        """
        stats = WorkerStats(name="", pid=os.getpid())
        cpu0 = sum(os.times()[:4])
        runner: ThreadPoolExecutor | None = None
        down_since: float | None = None
        attempt = 0
        try:
            while True:
                try:
                    self._client.connect()
                except DistConnectionError as exc:
                    down_since, attempt = self._backoff_or_raise(
                        exc, down_since, attempt
                    )
                    continue
                down_since, attempt = None, 0
                stats.name = self._client.name
                if runner is None:
                    # One slot: the leased task runs here while the protocol
                    # thread keeps heartbeating, so a long slice never looks
                    # like a dead worker.
                    runner = ThreadPoolExecutor(
                        max_workers=1,
                        thread_name_prefix=f"{self._client.name}-slice",
                    )
                try:
                    if self._serve(stats, runner):
                        return stats
                except DistConnectionError as exc:
                    # Connection lost mid-campaign (coordinator bounce,
                    # network blip).  The coordinator requeues our leases;
                    # any in-flight slice was discarded by _serve, so a
                    # reconnected worker can never submit a stale task id
                    # against a restarted coordinator's fresh numbering.
                    self._client.close()
                    down_since, attempt = self._backoff_or_raise(
                        exc, down_since, attempt
                    )
        finally:
            if runner is not None:
                runner.shutdown(wait=False, cancel_futures=True)
            self._client.close()
            stats.cpu_s = sum(os.times()[:4]) - cpu0
            if resource is not None:  # ru_maxrss: KiB on Linux
                stats.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss / 1024

    def _serve(self, stats: WorkerStats, runner: ThreadPoolExecutor) -> bool:
        """Drive one connection's lease/run/submit loop.  Returns ``True``
        when the coordinator says ``done`` — the service is draining, the
        worker may exit (campaigns end in the service's queue, not here);
        raises :class:`DistError` when the connection is lost."""
        while True:
            message = self._client.request_task()
            if message["type"] == "done":
                return True
            if message["type"] == "wait":
                # A current coordinator has already held this request
                # until nothing had changed for a while and asks us
                # straight back; an older one names the horizon at which
                # work *could* appear (a lease deadline, a backoff
                # expiry), which moves — so poll at least once a second.
                time.sleep(min(message["delay_s"], _MAX_IDLE_POLL_S))
                continue
            if self._die_after is not None and stats.tasks >= self._die_after:
                # Failpoint: vanish while holding the lease.
                self._client.close()
                return True
            planning = message["type"] == "plan"
            spec = CampaignSpec.from_dict(message["spec"])
            try:
                indices = decode_indices(message["indices"], spec.n)
            except (TypeError, ValueError) as exc:
                raise DistError(f"malformed {message['type']}: {exc}") from exc
            task_id = message["task_id"]
            future = runner.submit(
                self._run_plan if planning else self._run_task, spec, indices
            )
            try:
                done = self._await_heartbeating(future, task_id)
            except DistError:
                # The task keeps running in the single-slot runner; drain
                # it (discarding the result) before reconnecting so the
                # next lease starts clean and the stale result is never
                # submitted under a task id the coordinator may have
                # reissued after a restart.
                self._discard(future)
                raise
            if done is None:
                stats.failures += 1
                continue
            if not planning:
                ack = self._client.complete(task_id, done)
                stats.tasks += 1
                stats.experiments += len(indices)
            elif isinstance(done, ReproError):
                ack = self._client.fail_plan(task_id, str(done))
            else:
                ack = self._client.complete_plan(task_id, *done)
                stats.plans += 1
            if ack.get("duplicate"):
                stats.duplicates += 1

    def _backoff_or_raise(
        self, exc: DistError, down_since: float | None, attempt: int
    ) -> tuple[float, int]:
        """Sleep out one reconnect backoff step, or re-raise ``exc`` when
        reconnection is disabled / the continuous-downtime window is
        spent.  Returns the updated ``(down_since, attempt)``."""
        if self._reconnect_window <= 0:
            raise exc
        now = time.monotonic()
        if down_since is None:
            down_since = now
        delay = min(
            self._reconnect_cap, self._reconnect_base * (2.0 ** attempt)
        )
        # Full jitter in [0.5x, 1.5x]: a bounced coordinator is not greeted
        # by its whole fleet redialing in lockstep.
        delay *= 0.5 + random.random()
        if now + delay > down_since + self._reconnect_window:
            raise DistError(
                f"coordinator unreachable for {now - down_since:.1f}s "
                f"(reconnect window {self._reconnect_window:.0f}s): {exc}"
            ) from exc
        time.sleep(delay)
        return down_since, attempt + 1

    @staticmethod
    def _discard(future: Future) -> None:
        """Wait out an in-flight slice and drop its result/exception."""
        try:
            future.result()
        except Exception:
            pass

    def _await_heartbeating(self, future: Future, task_id: int):
        """Block on the running task, heartbeating the coordinator at its
        requested cadence; ``None`` means the task raised (and was
        reported via ``task_failed`` so the coordinator requeues it)."""
        while True:
            try:
                return future.result(timeout=self._client.heartbeat_s)
            except FutureTimeout:
                self._client.heartbeat()
            except DistError:
                raise
            except Exception as exc:  # the slice itself raised
                self._client.fail(task_id, f"{type(exc).__name__}: {exc}")
                return None

    def _run_task(
        self, spec: CampaignSpec, indices: tuple[int, ...]
    ) -> CampaignResult:
        return run_slice(spec, indices, self._contexts)

    def _run_plan(self, spec: CampaignSpec, indices: tuple[int, ...]):
        """The plan, or the :class:`ReproError` building the cell raised:
        that depends on the spec alone, so no retry can help — the
        coordinator is told, and fails the cell's campaign."""
        try:
            return run_plan(spec, indices, self._contexts)
        except ReproError as exc:
            return exc
