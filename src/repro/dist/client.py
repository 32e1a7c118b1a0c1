"""Worker-side client for the coordinator's wire protocol.

:class:`CoordinatorClient` wraps one TCP connection and speaks the strict
request/response protocol of :mod:`repro.dist.protocol`: ``hello`` once,
then any sequence of ``request`` / ``heartbeat`` / ``result`` /
``plan_result`` / ``task_failed``.  :class:`repro.dist.worker.Worker`
drives it for real work; tests drive it directly to impersonate slow, dead
or duplicate workers deterministically.
"""

from __future__ import annotations

import socket

from repro.campaign.cell import Program
from repro.campaign.io import result_to_dict
from repro.campaign.results import CampaignResult
from repro.dist.protocol import encode_plan, recv_message, send_message
from repro.errors import DistConnectionError, DistError


def parse_address(address: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` string (the CLI's coordinator address form)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise DistError(f"address must be HOST:PORT, got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise DistError(f"invalid port in address {address!r}") from None


class CoordinatorClient:
    """One worker's connection to a campaign coordinator."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: str | None = None,
        connect_timeout: float = 10.0,
    ) -> None:
        self._host = host
        self._port = port
        self._requested_name = name
        self._connect_timeout = connect_timeout
        self._sock: socket.socket | None = None
        #: coordinator-assigned worker name (after :meth:`connect`)
        self.name: str | None = None
        #: heartbeat cadence the coordinator asked for (after connect)
        self.heartbeat_s: float = 1.0
        self.lease_timeout_s: float = 0.0

    def connect(self) -> dict:
        """Dial the coordinator and perform the hello/welcome handshake."""
        try:
            self._sock = socket.create_connection(
                (self._host, self._port), timeout=self._connect_timeout
            )
            self._sock.settimeout(None)
        except OSError as exc:
            raise DistConnectionError(
                f"cannot reach coordinator at "
                f"{self._host}:{self._port}: {exc}"
            ) from exc
        welcome = self._call({"type": "hello", "name": self._requested_name})
        if welcome["type"] != "welcome":
            raise DistError(f"expected welcome, got {welcome['type']!r}")
        self.name = welcome["worker"]
        self.heartbeat_s = float(welcome["heartbeat_s"])
        self.lease_timeout_s = float(welcome["lease_timeout_s"])
        return welcome

    def request_task(self) -> dict:
        """Ask for work; returns a ``plan``, ``lease``, ``wait`` or ``done``
        message."""
        reply = self._call({"type": "request"})
        if reply["type"] not in ("plan", "lease", "wait", "done"):
            raise DistError(f"unexpected reply {reply['type']!r} to request")
        return reply

    def heartbeat(self) -> None:
        """Keep this worker's leases alive."""
        self._call({"type": "heartbeat"})

    def complete(self, task_id: int, part: CampaignResult) -> dict:
        """Submit a finished task's partial result; returns the ``ok``
        acknowledgement (``duplicate`` tells whether it was dropped)."""
        return self._call({
            "type": "result", "task_id": task_id,
            "part": result_to_dict(part),
        })

    def complete_plan(self, task_id: int, order, program: Program) -> dict:
        """Submit a plan: its indices in trigger ``order`` and the
        ``program`` the build profiled; returns the ``ok`` acknowledgement
        (``duplicate``: another plan of the cell arrived first)."""
        return self._call({
            "type": "plan_result", "task_id": task_id,
            **encode_plan(order, program),
        })

    def fail_plan(self, task_id: int, error: str) -> dict:
        """Report that building a planned cell raised ``error``: its spec
        cannot run, and the coordinator fails its campaign."""
        return self._call({
            "type": "plan_result", "task_id": task_id, "error": error,
        })

    def fail(self, task_id: int, error: str) -> None:
        """Report that a leased task raised; the coordinator requeues it."""
        self._call({"type": "task_failed", "task_id": task_id,
                    "error": error})

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "CoordinatorClient":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, message: dict) -> dict:
        if self._sock is None:
            raise DistError("client is not connected")
        send_message(self._sock, message)
        reply = recv_message(self._sock)
        if reply is None:
            raise DistConnectionError("coordinator closed the connection")
        if reply["type"] == "error":
            raise DistError(
                f"coordinator rejected {message['type']}: "
                f"{reply.get('message', '')}"
            )
        return reply
