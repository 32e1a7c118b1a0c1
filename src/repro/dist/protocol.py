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
``hello``           ``name`` (requested worker name or ``None``), ``procs``
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
``done``            campaign complete, worker may exit
``ok``              acknowledgement; for ``result`` carries ``duplicate``
``error``           ``message`` — fatal; the worker should abort
==================  =========================================================

A persistent :class:`~repro.service.ServiceCoordinator` additionally speaks
a **control plane** on the same port.  Control messages need no ``hello``
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

Experiment indices travel as run-length ``[start, stop)`` ranges (the same
encoding :mod:`repro.campaign.checkpoint` uses on disk), so a lease for ten
thousand contiguous experiments is a few bytes, not a few kilobytes.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass, fields

from repro.campaign.parallel import SliceTask
from repro.campaign.runner import DEFAULT_SEED
from repro.errors import DistConnectionError, DistError
from repro.fi.config import INSTR_CLASSES
from repro.fi.tools import TOOL_CLASSES

#: Version 2 added the service control plane (``submit``/``status``/
#: ``list``/``cancel``/``drain``/``fetch``).  The worker-facing data plane
#: is unchanged, so version-1 workers interoperate with version-2
#: coordinators.
PROTOCOL_VERSION = 2

#: Control-plane verbs a persistent service accepts without a ``hello``
#: handshake.  The one-shot coordinator rejects all of these.
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


def encode_indices(indices: tuple[int, ...] | list[int]) -> list[list[int]]:
    """Run-length encode sorted indices as ``[start, stop)`` ranges."""
    ranges: list[list[int]] = []
    for i in indices:
        if ranges and ranges[-1][1] == i:
            ranges[-1][1] = i + 1
        else:
            ranges.append([i, i + 1])
    return ranges


def decode_indices(ranges: list[list[int]]) -> tuple[int, ...]:
    out: list[int] = []
    for start, stop in ranges:
        out.extend(range(start, stop))
    return tuple(out)


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign cell's full parameter set — everything a worker needs to
    reproduce the coordinator's campaign bit-for-bit.

    Identical in content to the sequential/parallel runner's configuration:
    an experiment is a pure function of ``(base_seed, workload, tool_name,
    index)``, so any worker handed a spec plus an index range computes
    exactly what a local run would.
    """

    workload: str
    source: str
    tool_name: str
    n: int
    base_seed: int = DEFAULT_SEED
    keep_records: bool = False
    opt_level: str = "O2"
    fi_enabled: bool = True
    fi_funcs: str = "*"
    fi_instrs: str = "all"
    opcode_faults: float = 0.0
    #: canonical fault-model spec (:mod:`repro.fi.models`); absent in
    #: messages from older coordinators, defaulting to the paper's model.
    fault_model: str = "single-bit"

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise DistError("campaign spec needs n >= 1 experiments")
        if self.tool_name not in TOOL_CLASSES:
            raise DistError(
                f"unknown tool {self.tool_name!r}; "
                f"choose from {sorted(TOOL_CLASSES)}"
            )
        if self.fi_instrs not in INSTR_CLASSES:
            raise DistError(
                f"fi_instrs must be one of {INSTR_CLASSES}, "
                f"got {self.fi_instrs!r}"
            )
        if not 0.0 <= self.opcode_faults <= 1.0:
            raise DistError("opcode_faults must be a probability")
        from repro.errors import CampaignError
        from repro.fi.models import parse_fault_model

        try:
            parse_fault_model(self.fault_model)
        except CampaignError as exc:
            raise DistError(str(exc)) from exc

    @property
    def key(self) -> tuple[str, str]:
        """The matrix cell this spec fills."""
        return (self.workload, self.tool_name)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        # Defaulted fields may be absent (older coordinators), but the
        # required ones must be present.  Keys that are no field are dropped
        # unread: specs written while the execution path was still a choice
        # name an engine, a schedule and a snapshot interval, and a queue
        # that holds them must outlive the upgrade.
        kwargs = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        try:
            return cls(**kwargs)
        except (KeyError, TypeError) as exc:
            raise DistError(f"malformed campaign spec: {exc}") from exc

    def slice_task(
        self,
        indices: tuple[int, ...],
        chunk: int = 0,
    ) -> SliceTask:
        """The :class:`SliceTask` that runs ``indices`` of this campaign
        through the shared slice machinery."""
        return SliceTask(
            tool_name=self.tool_name,
            source=self.source,
            workload=self.workload,
            opt_level=self.opt_level,
            fi_enabled=self.fi_enabled,
            fi_funcs=self.fi_funcs,
            fi_instrs=self.fi_instrs,
            base_seed=self.base_seed,
            indices=tuple(indices),
            keep_records=self.keep_records,
            opcode_faults=self.opcode_faults,
            chunk=chunk,
            fault_model=self.fault_model,
        )
