"""Persistent multi-tenant campaign service (coordinator, queue, validation).

The serving side of the distributed layer: the one coordinator,
:class:`~repro.service.coordinator.ServiceCoordinator`, owns a durable
:class:`~repro.service.queue.CampaignQueue`, feeds every campaign through
one rule (:mod:`repro.service.lifecycle`: ``describe`` at submit,
``populate`` at admission, chi-squared validation when it drains) and
leases its cells to the :mod:`repro.dist` worker pool, writing outcomes
and validation verdicts to the results database.  See ``docs/api.md``
("Campaign service") for the wire protocol and the operational model.
"""

from repro.service.client import ServiceClient, control_call
from repro.service.coordinator import ServiceCoordinator, backoff_delay
from repro.service.local import LocalService
from repro.service.queue import (
    DEFAULT_TENANT_QUOTA,
    LIVE_STATES,
    QUEUE_STATES,
    CampaignQueue,
)
from repro.service.validate import validate_cell, validate_results

__all__ = [
    "CampaignQueue",
    "DEFAULT_TENANT_QUOTA",
    "LIVE_STATES",
    "LocalService",
    "QUEUE_STATES",
    "ServiceClient",
    "ServiceCoordinator",
    "backoff_delay",
    "control_call",
    "validate_cell",
    "validate_results",
]
