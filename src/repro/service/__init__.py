"""Persistent multi-tenant campaign service (coordinator, queue, lifecycle,
validation).

The serving side of the distributed layer: the one coordinator,
:class:`~repro.service.coordinator.ServiceCoordinator`, owns a durable
:class:`~repro.service.queue.CampaignQueue`, feeds campaigns through
their :class:`~repro.service.lifecycle.WorkloadLifecycle`
(``describe -> populate -> run -> validate``) and leases their cells to
the :mod:`repro.dist` worker pool, writing outcomes and chi-squared
validation verdicts to the results database.  See ``docs/api.md`` ("Campaign service") for the wire
protocol and the operational model.
"""

from repro.service.client import ServiceClient, control_call
from repro.service.coordinator import ServiceCoordinator, backoff_delay
from repro.service.lifecycle import (
    SoakLifecycle,
    StandardLifecycle,
    WorkloadLifecycle,
)
from repro.service.local import LocalService
from repro.service.queue import (
    DEFAULT_TENANT_QUOTA,
    LIVE_STATES,
    QUEUE_STATES,
    CampaignQueue,
)
from repro.service.soak import SOAK_PRIORITY, SOAK_TENANT, soak_request
from repro.service.validate import validate_cell, validate_results

__all__ = [
    "CampaignQueue",
    "DEFAULT_TENANT_QUOTA",
    "LIVE_STATES",
    "LocalService",
    "QUEUE_STATES",
    "SOAK_PRIORITY",
    "SOAK_TENANT",
    "ServiceClient",
    "ServiceCoordinator",
    "SoakLifecycle",
    "StandardLifecycle",
    "WorkloadLifecycle",
    "backoff_delay",
    "control_call",
    "soak_request",
    "validate_cell",
    "validate_results",
]
