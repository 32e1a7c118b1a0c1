"""Distributed campaign execution: coordinator/worker dispatch over TCP.

The paper ran its 44,856-experiment evaluation as a cluster campaign; this
package is the cluster layer for ours.  A :class:`Coordinator` shards
campaigns into index-range tasks and serves them over a length-prefixed
JSON protocol; :class:`Worker` processes (the ``refine-worker`` CLI) lease
tasks, run them through the shared slice machinery, and stream results
back.  Leases + heartbeats + exponential-backoff requeue give at-least-once
delivery; exact per-index deduplication turns that into exactly-once
results, bit-identical to a sequential run (experiments are pure functions
of their global index).

See ``docs/api.md`` for the lifecycle and wire-protocol reference, and
:class:`LocalCluster` for an in-process harness.
"""

from repro.campaign.cell import shard_indices
from repro.dist.client import CoordinatorClient, parse_address
from repro.dist.coordinator import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_ATTEMPTS,
    Coordinator,
    backoff_delay,
)
from repro.dist.local import LocalCluster
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
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_MAX_ATTEMPTS",
    "Coordinator",
    "backoff_delay",
    "shard_indices",
    "LocalCluster",
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
