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
``plan_result``     ``task_id`` of a ``plan``, and either ``order`` (its
                    ``indices`` in trigger order), ``golden_output`` (list
                    of lines), ``total_candidates`` and ``fault_model`` (the
                    :class:`~repro.campaign.cell.Program` of the build), or
                    ``error`` — building the cell raised, so its spec cannot
                    run and its campaign fails
``task_failed``     ``task_id``, ``error`` — the slice or plan raised
                    something else; requeue it
==================  =========================================================

==================  =========================================================
coordinator → worker
==================  =========================================================
``welcome``         ``version``, ``worker`` (assigned name),
                    ``heartbeat_s``, ``lease_timeout_s``
``plan``            a cell's first task: build it and order what is left
                    of it — ``task_id``, ``spec``, ``indices`` (ascending),
                    ``attempt``; answered by ``plan_result``
``lease``           a slice of a planned cell: ``task_id``, ``spec``
                    (campaign parameters), ``indices`` (run-length
                    ``[start, stop)`` ranges, in trigger order),
                    ``attempt``; answered by ``result``
``wait``            ``delay_s`` — nothing leasable right now, ask again (the
                    coordinator holds an idle ``request`` open for up to a
                    second before it says so)
``done``            the service is draining (or stopping with nothing in
                    flight): no more leases, worker may exit
``ok``              acknowledgement; for ``result`` and ``plan_result``
                    carries ``duplicate`` (another worker's plan of the cell
                    arrived first, or its part did)
``error``           ``message`` — the peer's message was rejected (a
                    malformed frame, a part or a plan of another build); the
                    connection is dropped and the worker should abort
==================  =========================================================

The coordinator (:class:`~repro.service.ServiceCoordinator`) additionally
speaks a **control plane** on the same port.  Control messages need no ``hello``
handshake — a control client connects, sends one request, reads one reply
and hangs up (:func:`repro.service.client.control_call`):

==================  =========================================================
client → service
==================  =========================================================
``submit``          ``request`` (a campaign request dict: ``workloads``,
                    ``tools``, ``n``, optional ``sources`` and any
                    ``CampaignSpec`` field), optional ``tenant``,
                    ``priority``
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
A ``plan_result`` is input from the network like a part:
:func:`decode_plan` checks it against the plan's indices before the
coordinator's ledger sees it.
"""

from __future__ import annotations

import json
import socket
import struct

from repro.campaign.cell import CampaignSpec, Program
from repro.campaign.io import decode_indices, encode_indices
from repro.errors import DistConnectionError, DistError

__all__ = [
    "CONTROL_TYPES", "MAX_MESSAGE_BYTES", "PROTOCOL_VERSION", "CampaignSpec",
    "decode_indices", "decode_plan", "encode_indices", "encode_plan",
    "recv_message", "send_message",
]

#: Version 2 added the service control plane (``submit``/``status``/
#: ``list``/``cancel``/``drain``/``fetch``); version 3 the ``plan`` reply
#: and its ``plan_result``, a cell's first task.  An older worker refuses a
#: ``plan`` as an unexpected reply rather than misreading it as a lease.
PROTOCOL_VERSION = 3

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


def encode_plan(order, program: Program) -> dict:
    """The fields of a ``plan_result`` that carries a plan."""
    return {
        "order": list(order),
        "golden_output": list(program.golden_output),
        "total_candidates": program.total_candidates,
        "fault_model": program.fault_model,
    }


def decode_plan(
    message: dict, leased: tuple[int, ...]
) -> tuple[tuple[int, ...], Program] | str:
    """A ``plan_result`` for a plan of the ascending indices ``leased``: its
    ``error`` message, or its trigger order — a permutation of ``leased`` —
    and program.  Raises :class:`KeyError`, :class:`TypeError` or
    :class:`ValueError` for anything else."""
    if "error" in message:
        if not isinstance(message["error"], str):
            raise TypeError("a plan's error must be a string")
        return message["error"]
    order, golden = message["order"], message["golden_output"]
    if not isinstance(order, list) or any(type(i) is not int for i in order):
        raise TypeError("a plan's order must be a list of integers")
    if sorted(order) != list(leased):
        raise ValueError("the order is not a permutation of the plan's indices")
    if not isinstance(golden, list) or any(
        not isinstance(line, str) for line in golden
    ):
        raise TypeError("a plan's golden_output must be a list of strings")
    candidates, model = message["total_candidates"], message["fault_model"]
    if type(candidates) is not int or not isinstance(model, str):
        raise TypeError("a plan's total_candidates and fault_model must be "
                        "an integer and a string")
    return tuple(order), Program(tuple(golden), candidates, model)
