"""Wire protocol for the distributed campaign service.

Every message is one **length-prefixed JSON object**: a 4-byte big-endian
unsigned length followed by that many bytes of UTF-8 JSON.  JSON keeps the
protocol debuggable (``nc`` + a hex dump is a complete protocol analyzer)
and the length prefix makes framing trivial and robust — a reader never
scans for delimiters and never observes a torn message.

The conversation is strict request/response, always initiated by the
worker.  Message types (``type`` field):

==================  =========================================================
worker → coordinator
==================  =========================================================
``hello``           ``name`` (requested worker name or ``None``); a
                    ``procs`` field from an older worker is ignored
``request``         ask for a task lease
``heartbeat``       keep this worker's leases alive
``result``          ``task_id``, ``part`` (a serialized
                    :class:`~repro.campaign.results.CampaignResult`)
``task_failed``     ``task_id``, ``error`` — the slice raised; requeue it
==================  =========================================================

==================  =========================================================
coordinator → worker
==================  =========================================================
``welcome``         ``version``, ``worker`` (assigned name),
                    ``heartbeat_s``, ``lease_timeout_s``
``lease``           ``task_id``, ``spec`` (campaign parameters),
                    ``indices`` (run-length ``[start, stop)`` ranges),
                    ``attempt``
``wait``            ``delay_s`` — nothing leasable right now, ask again (the
                    coordinator holds an idle ``request`` open for up to a
                    second before it says so)
``done``            the service is draining (or stopping with nothing in
                    flight): no more leases, worker may exit
``ok``              acknowledgement; for ``result`` carries ``duplicate``
``error``           ``message`` — the peer's message was rejected (a
                    malformed frame, a part of another build); the
                    connection is dropped and the worker should abort
==================  =========================================================

The coordinator (:class:`~repro.service.ServiceCoordinator`) additionally
speaks a **control plane** on the same port.  Control messages need no ``hello``
handshake — a control client connects, sends one request, reads one reply
and hangs up (:func:`repro.service.client.control_call`):

==================  =========================================================
client → service
==================  =========================================================
``submit``          ``request`` (a campaign request dict: workloads, tools,
                    n, seed, priority, tenant, lifecycle, validation knobs)
``status``          ``campaign`` (queue id) — one campaign's state + progress
``list``            optional ``tenant`` — queue snapshot, newest first
``cancel``          ``campaign`` — cancel queued or running campaign
``drain``           optional ``grace_s`` — stop admitting, finish in-flight
                    leases, checkpoint and shut the service down
``fetch``           ``campaign`` — full merged result of a finished campaign
                    (used by ``--watch`` and the equivalence tests)
==================  =========================================================

Control replies are ``ok`` messages carrying the verb's payload
(``campaign``, ``info``, ``campaigns``, ``result``...) or ``error``.

Experiment indices travel as run-length ``[start, stop)`` ranges
(:func:`repro.campaign.io.encode_indices`, the code checkpoints use on
disk), so a lease for ten thousand contiguous experiments is a few bytes,
not a few kilobytes; the receiver decodes them against the spec's ``n``.
The ``spec`` is a :class:`repro.campaign.cell.CampaignSpec`, re-exported
here with the index code because this is where peers look for the wire.
"""

from __future__ import annotations

import json
import socket
import struct

from repro.campaign.cell import CampaignSpec
from repro.campaign.io import decode_indices, encode_indices
from repro.errors import DistConnectionError, DistError

__all__ = [
    "CONTROL_TYPES", "MAX_MESSAGE_BYTES", "PROTOCOL_VERSION", "CampaignSpec",
    "decode_indices", "encode_indices", "recv_message", "send_message",
]

#: Version 2 added the service control plane (``submit``/``status``/
#: ``list``/``cancel``/``drain``/``fetch``).  The worker-facing data plane
#: is unchanged, so version-1 workers interoperate with version-2
#: coordinators.
PROTOCOL_VERSION = 2

#: Control-plane verbs the coordinator accepts without a ``hello``
#: handshake.
CONTROL_TYPES = ("submit", "status", "list", "cancel", "drain", "fetch")

#: Upper bound on one frame; a keep-records part for a huge slice is a few
#: MiB, so this is generous headroom, while a garbage length prefix (e.g. a
#: stray HTTP request hitting the port) fails fast instead of allocating.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


def send_message(sock: socket.socket, message: dict) -> None:
    """Send one length-prefixed JSON message."""
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_MESSAGE_BYTES:
        raise DistError(f"message of {len(data)} bytes exceeds protocol limit")
    try:
        sock.sendall(_HEADER.pack(len(data)) + data)
    except OSError as exc:
        raise DistConnectionError(
            f"connection lost while sending: {exc}"
        ) from exc


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on EOF before the first byte."""
    buf = bytearray()
    while len(buf) < count:
        try:
            chunk = sock.recv(count - len(buf))
        except OSError as exc:
            raise DistConnectionError(
                f"connection lost while receiving: {exc}"
            ) from exc
        if not chunk:
            if not buf:
                return None
            raise DistConnectionError(
                f"connection closed mid-message ({len(buf)}/{count} bytes)"
            )
        buf.extend(chunk)
    return bytes(buf)


def recv_message(sock: socket.socket) -> dict | None:
    """Receive one message; ``None`` on clean EOF (peer closed between
    frames).  Raises :class:`DistError` on a torn or malformed frame."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise DistError(f"frame of {length} bytes exceeds protocol limit")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise DistConnectionError(
            "connection closed between header and payload"
        )
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DistError(f"malformed message: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise DistError("message must be a JSON object with a 'type' string")
    return message
