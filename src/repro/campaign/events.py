"""Campaign telemetry: a JSONL event log and an in-process stats aggregator.

Production-scale FI studies (the paper's 44,856 experiments ran in batches
on a cluster) need per-run observability: what happened, when, and how fast.
Two cooperating pieces provide it:

* :class:`EventLog` — an append-only JSON-Lines log.  Every event is one
  JSON object per line with a monotonically increasing ``seq`` and a wall
  clock ``ts``, so logs from long campaigns can be tailed, merged and
  analysed offline.
* :class:`CampaignStats` — a cheap in-process aggregator (running outcome
  frequencies, experiments/sec, ETA) that the CLI renders as live progress.

Event schema (all events carry ``seq``, ``ts`` and ``event``):

========================  =====================================================
event                     extra fields
========================  =====================================================
``campaign_start``        ``workload``, ``tool``, ``n``, ``base_seed``,
                          ``fault_model`` (canonical :mod:`repro.fi.models`
                          spec; absent in pre-model logs = single-bit),
                          ``resumed`` (experiments restored from a checkpoint)
``experiment``            ``workload``, ``tool``, ``index``, ``seed``,
                          ``outcome``, ``cycles``, ``steps``, ``trap``,
                          ``exit_code``, ``engine`` (execution engine name),
                          ``snapshot_hit`` (``true``: the tail ran from a
                          fork of the golden run; ``false``/``null``: the
                          run started at instruction 0) and
                          ``fault`` (the full fault-site record: ``func``,
                          ``pc``, ``instr_text``, ``operand_index``,
                          ``operand_desc``, ``bit`` (``null`` for faults
                          with no single bit position), ``dynamic_index``,
                          tag-encoded ``value_before``/``value_after``,
                          plus the fault-model fields ``model``, ``bits``,
                          ``address`` and ``dwell``).
                          The inline runner adds ``wall_s``; the service
                          (``-j N`` and leases alike) tags them ``task``,
                          ``worker``.  One event per experiment either
                          way.  This is the stream :mod:`repro.resultsdb`
                          ingests.
``checkpoint``            ``path``, ``completed``, ``n``
``campaign_finish``       ``workload``, ``tool``, ``counts``,
                          ``total_cycles``, ``total_steps``,
                          ``total_candidates``, ``golden_output`` (the
                          stream is self-contained: a results store can
                          rebuild the full ``CampaignResult`` from the log
                          alone); ``fault_model``,
                          ``schedule`` (always ``trigger``; logs written
                          before that was the only order may say
                          ``index``), ``phases`` (wall-clock breakdown:
                          ``translate_s``, ``prefix_s``, ``fork_s``,
                          ``tail_s``, ``classify_s``) and ``scheduler``
                          (final ``scheduler_stats`` counters); the
                          sequential runner adds ``wall_s``,
                          ``experiments_per_sec``
``scheduler_stats``       ``workload``, ``tool``, ``experiments``, ``forks``,
                          ``fork_hits``, ``scratch``, ``rejoins`` (tails
                          spliced onto the golden ending), ``endings`` /
                          ``ending_hits`` (overrun endings recorded /
                          tails spliced onto one), ``sync_states``,
                          ``cursor_steps``, ``prefix_steps_saved``,
                          ``tail_steps_saved`` (steps either kind of
                          splice skipped) —
                          the scheduler's counters (see
                          :mod:`repro.campaign.schedule`); cumulative from
                          the inline runner (emitted after the cursor and
                          again after the last tail), per-task (``task``,
                          ``worker``: each task's own) from the service
========================  =====================================================

The service (:class:`repro.service.ServiceCoordinator`) emits its own
family per cell, worker and lease, under the ``campaign_admitted`` /
``campaign_done`` / ``campaign_failed`` / ``campaign_cancelled`` events of
the queue's state machine — one stream records every campaign it serves.
``refine-campaign -j N`` runs its cells on a service, so its stream is this
family too (with no queue events):

========================  =====================================================
event                     extra fields
========================  =====================================================
``cell_start``            ``workload``, ``tool``, ``n``, ``base_seed``,
                          ``fault_model``, ``resumed``, ``resumed_counts``
``worker_join``           ``worker``
``plan_lease``            ``task``, ``worker``, ``workload``, ``tool``,
                          ``size``, ``attempt`` — a cell's plan (build it,
                          order what is left) granted; ``campaign`` when a
                          queued campaign owns the cell
``plan_done``             ``task``, ``worker``, ``workload``, ``tool``,
                          ``size``, ``duplicate`` (another plan of the cell
                          came first); when not a duplicate also
                          ``attempt`` and ``slices`` (the leases it was cut
                          into); ``campaign`` as above
``lease``                 ``task``, ``worker``, ``workload``, ``tool``,
                          ``size``, ``attempt`` — a slice of experiments
``task_done``             ``task``, ``worker``, ``workload``, ``tool``,
                          ``size``, ``duplicate``; when not a duplicate also
                          ``attempt``, ``completed``, ``n``, ``counts``
``task_requeue``          ``task``, ``worker``, ``reason``
                          (``timeout``/``disconnect``/``failed``),
                          ``attempt``, ``delay_s``
``worker_leave``          ``worker``
``cell_finish``           ``workload``, ``tool``, ``counts``,
                          ``total_cycles``, ``total_steps``,
                          ``total_candidates``, ``golden_output``,
                          ``schedule``, ``fault_model``,
                          ``phases`` (worker-side breakdown
                          summed over tasks) and ``scheduler``
========================  =====================================================
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, IO

from repro.campaign.classify import OUTCOME_ORDER, Outcome


class EventLog:
    """Append-only JSONL event sink.

    ``path`` opens (and appends to) a file; ``stream`` writes to an existing
    file-like object instead.  A custom ``clock`` makes timestamps
    deterministic in tests.  Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        stream: IO[str] | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if path is not None and stream is not None:
            raise ValueError("pass either path or stream, not both")
        self._owns_stream = path is not None
        if path is not None:
            p = Path(path)
            if p.parent and not p.parent.exists():
                p.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(p, "a", encoding="utf-8")
        else:
            self._stream = stream
        self._clock = clock
        self._seq = 0

    def emit(self, event: str, **fields) -> None:
        """Write one event line (no-op after :meth:`close`)."""
        if self._stream is None:
            return
        record = {"seq": self._seq, "ts": self._clock(), "event": event}
        record.update(fields)
        self._stream.write(json.dumps(record) + "\n")
        self._stream.flush()
        self._seq += 1

    def close(self) -> None:
        if self._stream is not None and self._owns_stream:
            self._stream.close()
        self._stream = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: str | Path) -> list[dict]:
    """Load every event from a JSONL log written by :class:`EventLog`."""
    events = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events


class CampaignStats:
    """Running statistics over a campaign's experiment stream.

    Feed it one :meth:`note` per finished experiment and it tracks outcome
    frequencies, throughput and an ETA.  ``clock`` defaults to
    :func:`time.monotonic`; inject a fake for deterministic tests.
    """

    def __init__(
        self,
        total: int,
        done: int = 0,
        counts: dict[Outcome, int] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = total
        self.done = done
        self.counts: dict[Outcome, int] = {o: 0 for o in Outcome}
        if counts:
            self.counts.update(counts)
        #: trigger-scheduler counters (from ``scheduler_stats`` events)
        self.sched_forks = 0
        self.sched_rejoins = 0
        self.sched_ending_hits = 0
        self.sched_steps_saved = 0
        self._restored = done  # restored from a checkpoint, not run here
        self._clock = clock
        self._started = clock()

    def note(self, outcome: Outcome) -> None:
        self.counts[outcome] = self.counts.get(outcome, 0) + 1
        self.done += 1

    def note_scheduler(self, fields: dict, accumulate: bool = False) -> None:
        """Fold one ``scheduler_stats`` event in.  Inline-runner events are
        cumulative (replace); a service task's are that task's own figures
        (``accumulate=True``)."""
        forks = int(fields.get("forks", 0))
        rejoins = int(fields.get("rejoins", 0))
        ending_hits = int(fields.get("ending_hits", 0))
        saved = int(fields.get("prefix_steps_saved", 0)) + int(
            fields.get("tail_steps_saved", 0)
        )
        if accumulate:
            self.sched_forks += forks
            self.sched_rejoins += rejoins
            self.sched_ending_hits += ending_hits
            self.sched_steps_saved += saved
        else:
            self.sched_forks = forks
            self.sched_rejoins = rejoins
            self.sched_ending_hits = ending_hits
            self.sched_steps_saved = saved

    @property
    def elapsed(self) -> float:
        return self._clock() - self._started

    def rate(self) -> float:
        """Experiments per second since this aggregator started (counts only
        work done in-process, not experiments restored from a checkpoint)."""
        elapsed = self.elapsed
        fresh = self.done - self._restored
        return fresh / elapsed if elapsed > 0 else 0.0

    def eta_seconds(self) -> float | None:
        """Estimated seconds to completion, or ``None`` before any data."""
        rate = self.rate()
        if rate <= 0:
            return None
        return max(0.0, self.total - self.done) / rate

    def render(self) -> str:
        """One-line progress summary for live terminal display."""
        pct = 100.0 * self.done / self.total if self.total else 100.0
        outcome_bits = " ".join(
            f"{o.value}={self.counts.get(o, 0)}" for o in OUTCOME_ORDER
        )
        eta = self.eta_seconds()
        if eta is None:
            eta_text = "ETA --:--"
        else:
            minutes, seconds = divmod(int(eta + 0.5), 60)
            eta_text = f"ETA {minutes:d}:{seconds:02d}"
        line = (
            f"{self.done}/{self.total} ({pct:5.1f}%) | {outcome_bits} | "
            f"{self.rate():6.1f} exp/s | {eta_text}"
        )
        if self.sched_forks:
            line += (
                f" | sched {self.sched_forks} forks, "
                f"{self.sched_rejoins} rejoins, "
                f"{self.sched_ending_hits} endings reused, "
                f"{self.sched_steps_saved:,} steps saved"
            )
        return line
