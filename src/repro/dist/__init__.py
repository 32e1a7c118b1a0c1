"""Distributed campaign execution: the wire protocol and the worker side.

The paper ran its 44,856-experiment evaluation as a cluster campaign; this
package is what a node of ours speaks.  A cell's first task is its plan —
a worker builds the cell and orders what is left of it — and the rest are
index-range slices of that order, served over a length-prefixed JSON
protocol (:mod:`repro.dist.protocol`); :class:`Worker` processes (the
``refine-worker`` CLI) lease tasks, run them through the shared slice
machinery, and stream results back.  Leases + heartbeats +
exponential-backoff requeue give at-least-once delivery; exact per-index
deduplication turns that into exactly-once results, bit-identical to a
sequential run (experiments are pure functions of their global index).

The serving side — lease table, queue, checkpoints — is the one
coordinator, :class:`repro.service.ServiceCoordinator`
(:class:`repro.service.LocalService` is its single-host harness: the
coordinator plus worker processes).  See
``docs/api.md`` for the service and wire-protocol reference.
"""

from repro.campaign.cell import shard_indices
from repro.dist.client import CoordinatorClient, parse_address
from repro.dist.protocol import (
    CONTROL_TYPES,
    PROTOCOL_VERSION,
    CampaignSpec,
    decode_indices,
    encode_indices,
    recv_message,
    send_message,
)
from repro.dist.worker import Worker, WorkerStats

__all__ = [
    "CoordinatorClient",
    "parse_address",
    "shard_indices",
    "CONTROL_TYPES",
    "PROTOCOL_VERSION",
    "CampaignSpec",
    "decode_indices",
    "encode_indices",
    "recv_message",
    "send_message",
    "Worker",
    "WorkerStats",
]
