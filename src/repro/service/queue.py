"""Durable campaign queue backing the persistent service.

One SQLite file (same stdlib-:mod:`sqlite3` + WAL conventions as
:mod:`repro.resultsdb`) holds every campaign ever submitted to the
service, each progressing through the lifecycle state machine::

    queued -> populating -> running -> validating -> done
                    \\            \\          \\-> failed
                     \\            \\-> cancelled
                      \\-> failed / cancelled

* **Priorities.** Eligibility order is ``priority DESC, id ASC`` — higher
  priority first, FIFO within a priority band.  Priority only orders
  *admission*; it never preempts a running campaign.
* **Per-tenant quotas.** A tenant may hold at most ``tenant_quota`` live
  (queued/populating/running/validating) campaigns; further submits are
  rejected with :class:`~repro.errors.ServiceError` so one user cannot
  wedge the shared queue.
* **Cancellation** is a flag, not a state transition: ``request_cancel``
  marks the row and the service coordinator performs the teardown
  (retiring leases, checkpointing) at its next pump, then moves the row
  to ``cancelled``.
* **Restart recovery.** ``recover()`` (run on every open) returns any
  campaign caught mid-flight by a crash to ``queued``: re-admission is
  safe because the per-campaign checkpoints and the results database
  deduplicate by global experiment index, so a re-run campaign converges
  on exactly the same rows.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path

from repro.errors import ServiceError

#: Bumped on incompatible queue schema changes; stored in ``meta``.
QUEUE_SCHEMA_VERSION = 2

#: Campaigns in these states count against their tenant's quota and are
#: returned to ``queued`` by restart recovery.
LIVE_STATES = ("queued", "populating", "running", "validating")

#: Every state a queue row can be in (terminal: done/failed/cancelled).
QUEUE_STATES = LIVE_STATES + ("done", "failed", "cancelled")

#: Default per-tenant live-campaign quota.
DEFAULT_TENANT_QUOTA = 8

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;

CREATE TABLE IF NOT EXISTS queue (
    id               INTEGER PRIMARY KEY AUTOINCREMENT,
    tenant           TEXT NOT NULL DEFAULT 'default',
    priority         INTEGER NOT NULL DEFAULT 0,
    state            TEXT NOT NULL DEFAULT 'queued',
    request          TEXT NOT NULL,              -- JSON campaign request
    submitted_at     REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    error            TEXT,
    validation       TEXT,                       -- overall verdict
    detail           TEXT                        -- JSON per-cell verdicts
);

CREATE INDEX IF NOT EXISTS ix_queue_state
    ON queue(state, priority DESC, id ASC);
CREATE INDEX IF NOT EXISTS ix_queue_tenant ON queue(tenant, state);
"""

_ROW_FIELDS = (
    "id", "tenant", "priority", "state", "request",
    "submitted_at", "started_at", "finished_at", "cancel_requested",
    "error", "validation", "detail",
)

_COLUMNS = ", ".join(_ROW_FIELDS)
_SELECT = f"SELECT {_COLUMNS} FROM queue"


def _decode(row: tuple) -> dict:
    info = dict(zip(_ROW_FIELDS, row))
    info["request"] = json.loads(info["request"])
    info["cancel_requested"] = bool(info["cancel_requested"])
    if info["detail"] is not None:
        info["detail"] = json.loads(info["detail"])
    return info


class CampaignQueue:
    """One open campaign queue (thread-safe; ``":memory:"`` for tests)."""

    def __init__(
        self,
        path: str | Path = ":memory:",
        *,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
    ) -> None:
        if tenant_quota < 1:
            raise ServiceError("tenant_quota must be >= 1")
        self.path = str(path)
        self.tenant_quota = tenant_quota
        self._lock = threading.RLock()
        if self.path != ":memory:":
            parent = Path(self.path).parent
            if parent and not parent.exists():
                parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = sqlite3.connect(self.path, check_same_thread=False)
        except sqlite3.Error as exc:
            raise ServiceError(f"cannot open queue {self.path}: {exc}") from exc
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._init_schema()

    def _init_schema(self) -> None:
        with self._conn:
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='queue_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta(key, value) VALUES ('queue_version', ?)",
                    (str(QUEUE_SCHEMA_VERSION),),
                )
            elif row[0] == "1":  # drop ``lifecycle``, by a copy: any SQLite runs it
                self._conn.executescript(
                    "BEGIN; DROP INDEX ix_queue_state; DROP INDEX ix_queue_tenant;"
                    f" ALTER TABLE queue RENAME TO queue_v1; {_SCHEMA}"
                    f" INSERT INTO queue({_COLUMNS}) SELECT {_COLUMNS} FROM queue_v1;"
                    " DROP TABLE queue_v1; UPDATE meta SET value = '2'"
                    " WHERE key = 'queue_version'; COMMIT;")
            elif int(row[0]) != QUEUE_SCHEMA_VERSION:
                raise ServiceError(
                    f"{self.path} has queue version {row[0]}, this build "
                    f"expects {QUEUE_SCHEMA_VERSION}"
                )

    def close(self) -> None:
        with self._lock:
            self._conn.commit()
            self._conn.close()

    def __enter__(self) -> "CampaignQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- writes

    def submit(
        self,
        request: dict,
        *,
        tenant: str = "default",
        priority: int = 0,
    ) -> int:
        """Enqueue one campaign request; returns its queue id.

        Raises :class:`ServiceError` when the tenant already holds its
        quota of live campaigns.
        """
        if not isinstance(request, dict):
            raise ServiceError("campaign request must be a JSON object")
        with self._lock, self._conn:
            live = self._conn.execute(
                "SELECT COUNT(*) FROM queue WHERE tenant=? AND state IN "
                "(?, ?, ?, ?)",
                (tenant, *LIVE_STATES),
            ).fetchone()[0]
            if live >= self.tenant_quota:
                raise ServiceError(
                    f"tenant {tenant!r} already has {live} live campaigns "
                    f"(quota {self.tenant_quota}); cancel or drain first"
                )
            cur = self._conn.execute(
                "INSERT INTO queue(tenant, priority, state, request,"
                " submitted_at) VALUES (?, ?, 'queued', ?, ?)",
                (
                    tenant, int(priority),
                    json.dumps(request, sort_keys=True), time.time(),
                ),
            )
            return cur.lastrowid

    def set_state(
        self,
        campaign_id: int,
        state: str,
        *,
        error: str | None = None,
        validation: str | None = None,
        detail: dict | None = None,
    ) -> None:
        """Advance one campaign's state (timestamps maintained here)."""
        if state not in QUEUE_STATES:
            raise ServiceError(f"unknown queue state {state!r}")
        now = time.time()
        sets = ["state=?"]
        params: list = [state]
        if state == "populating":
            sets.append("started_at=?")
            params.append(now)
        if state in ("done", "failed", "cancelled"):
            sets.append("finished_at=?")
            params.append(now)
        if error is not None:
            sets.append("error=?")
            params.append(str(error)[:2000])
        if validation is not None:
            sets.append("validation=?")
            params.append(validation)
        if detail is not None:
            sets.append("detail=?")
            params.append(json.dumps(detail, sort_keys=True))
        params.append(campaign_id)
        with self._lock, self._conn:
            cur = self._conn.execute(
                f"UPDATE queue SET {', '.join(sets)} WHERE id=?", params
            )
            if cur.rowcount == 0:
                raise ServiceError(f"no queued campaign with id {campaign_id}")

    def request_cancel(self, campaign_id: int) -> dict:
        """Flag a campaign for cancellation; returns its (pre-teardown)
        info.  Cancelling a terminal campaign is a no-op."""
        with self._lock, self._conn:
            info = self.info(campaign_id)
            if info is None:
                raise ServiceError(f"no campaign with id {campaign_id}")
            if info["state"] in LIVE_STATES:
                self._conn.execute(
                    "UPDATE queue SET cancel_requested=1 WHERE id=?",
                    (campaign_id,),
                )
                info["cancel_requested"] = True
            return info

    def recover(self) -> list[int]:
        """Return crash-interrupted campaigns to ``queued`` (restart path).

        Re-admission re-populates and resumes from the campaign's own
        checkpoints; completed work is never re-paid and duplicates are
        impossible (results dedup by global index).  Returns the ids that
        were recovered.
        """
        with self._lock, self._conn:
            ids = [
                r[0] for r in self._conn.execute(
                    "SELECT id FROM queue WHERE state IN (?, ?, ?)"
                    " ORDER BY id",
                    ("populating", "running", "validating"),
                )
            ]
            if ids:
                self._conn.execute(
                    "UPDATE queue SET state='queued', started_at=NULL"
                    " WHERE state IN (?, ?, ?)",
                    ("populating", "running", "validating"),
                )
            return ids

    # --------------------------------------------------------------- reads

    def info(self, campaign_id: int) -> dict | None:
        """One campaign's full queue row, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                _SELECT + " WHERE id=?", (campaign_id,)
            ).fetchone()
        return None if row is None else _decode(row)

    def list(
        self, tenant: str | None = None, limit: int = 100
    ) -> list[dict]:
        """Queue snapshot, live-first then newest-first within state."""
        sql = _SELECT
        params: tuple = ()
        if tenant is not None:
            sql += " WHERE tenant=?"
            params = (tenant,)
        sql += (
            " ORDER BY CASE WHEN state IN ('queued', 'populating',"
            " 'running', 'validating') THEN 0 ELSE 1 END, id DESC LIMIT ?"
        )
        with self._lock:
            rows = self._conn.execute(sql, params + (limit,)).fetchall()
        return [_decode(r) for r in rows]

    def next_eligible(self, exclude: tuple[int, ...] = ()) -> dict | None:
        """Highest-priority queued campaign not flagged for cancel and not
        in ``exclude`` (ids the caller already rejected this round)."""
        sql = (
            _SELECT + " WHERE state='queued' AND cancel_requested=0"
        )
        params: list = []
        if exclude:
            sql += f" AND id NOT IN ({','.join('?' * len(exclude))})"
            params.extend(exclude)
        sql += " ORDER BY priority DESC, id ASC LIMIT 1"
        with self._lock:
            row = self._conn.execute(sql, params).fetchone()
        return None if row is None else _decode(row)

    def cancelling(self) -> list[dict]:
        """Live campaigns flagged for cancellation, oldest first."""
        with self._lock:
            rows = self._conn.execute(
                _SELECT + " WHERE cancel_requested=1 AND state IN"
                " (?, ?, ?, ?) ORDER BY id",
                LIVE_STATES,
            ).fetchall()
        return [_decode(r) for r in rows]

    def counts(self) -> dict[str, int]:
        """state -> campaign count, for status lines and admission."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM queue GROUP BY state"
            ).fetchall()
        return {state: count for state, count in rows}
