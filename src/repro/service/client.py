"""Control-plane client for the campaign service.

Control verbs (``submit`` / ``status`` / ``list`` / ``cancel`` /
``drain`` / ``fetch``) ride the same port and framing as the worker
protocol but need no hello handshake — each call here is one short-lived
connection: dial, send, read the reply, hang up.  That keeps the client
trivially robust (no session state to resynchronize) and lets ``--watch``
poll a service across its own restarts.

:class:`ServiceClient` is the friendly face used by ``refine-campaign
--submit HOST:PORT`` and the tests; :func:`control_call` is the raw
one-shot primitive underneath.
"""

from __future__ import annotations

import socket
import time

from repro.dist.protocol import recv_message, send_message
from repro.errors import DistConnectionError, ServiceError
from repro.service.queue import LIVE_STATES


def control_call(
    host: str, port: int, message: dict, timeout: float = 10.0
) -> dict:
    """One control-plane round trip: connect, send, receive, close.

    Raises :class:`DistConnectionError` if the service is unreachable and
    :class:`ServiceError` if it rejects the message.
    """
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise DistConnectionError(
            f"cannot reach service at {host}:{port}: {exc}"
        ) from exc
    try:
        sock.settimeout(timeout)
        send_message(sock, message)
        reply = recv_message(sock)
    finally:
        try:
            sock.close()
        except OSError:
            pass
    if reply is None:
        raise DistConnectionError("service closed the connection")
    if reply.get("type") == "error":
        raise ServiceError(
            f"service rejected {message.get('type')}: "
            f"{reply.get('message', '')}"
        )
    return reply


class ServiceClient:
    """Campaign CRUD against a running :class:`~repro.service.coordinator.
    ServiceCoordinator` at ``(host, port)``."""

    def __init__(self, host: str, port: int, *, timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def _call(self, message: dict) -> dict:
        return control_call(self.host, self.port, message, self.timeout)

    def submit(
        self,
        request: dict,
        *,
        tenant: str = "default",
        priority: int = 0,
    ) -> int:
        """Enqueue a campaign request; returns the service's campaign id."""
        reply = self._call({
            "type": "submit", "request": request, "tenant": tenant,
            "priority": priority,
        })
        return reply["campaign"]

    def status(self, campaign: int) -> dict:
        """One campaign's queue row plus live progress and (when cached)
        its validation verdict."""
        return self._call({"type": "status", "campaign": campaign})

    def list(self, tenant: str | None = None, limit: int = 100) -> dict:
        """Queue snapshot: campaigns, per-state counts, connected workers."""
        message: dict = {"type": "list", "limit": limit}
        if tenant is not None:
            message["tenant"] = tenant
        return self._call(message)

    def cancel(self, campaign: int) -> dict:
        """Flag a campaign for cancellation (teardown happens at the
        service's next pump)."""
        return self._call({"type": "cancel", "campaign": campaign})

    def drain(self, grace_s: float = 30.0) -> dict:
        """Ask the service to shut down gracefully."""
        return self._call({"type": "drain", "grace_s": grace_s})

    def fetch(self, campaign: int) -> dict:
        """A finished campaign's serialized results + validation verdict
        (only while it is still in the service's result cache)."""
        return self._call({"type": "fetch", "campaign": campaign})

    def watch(
        self,
        campaign: int,
        *,
        poll_s: float = 0.2,
        timeout: float | None = 300.0,
        callback=None,
    ) -> dict:
        """Poll ``status`` until the campaign reaches a terminal state.

        ``callback`` (if given) sees every status reply — the CLI renders
        its progress line from this.  Returns the final status; raises
        :class:`ServiceError` on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(campaign)
            if callback is not None:
                callback(status)
            if status["info"]["state"] not in LIVE_STATES:
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"campaign {campaign} still "
                    f"{status['info']['state']!r} after {timeout}s"
                )
            time.sleep(poll_s)
