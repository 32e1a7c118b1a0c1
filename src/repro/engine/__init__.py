"""The execution engine of the sx64 machine.

Campaigns execute on :class:`FastEngine` (:mod:`repro.engine.fast`), the
ZOFI-style free-run core: decoded-block superinstructions with batched
accounting, full instrumentation armed only in a bounded window around the
injection trigger, plus the cursor/fork/sync primitives the trigger
scheduler (:mod:`repro.campaign.schedule`) drives.

The interpreter loop in :mod:`repro.machine.cpu` is the semantic ground
truth the engine must match bit for bit; it runs campaigns only as the
oracle in :mod:`repro.testing`.
"""

from repro.engine.fast import FastEngine

__all__ = ["FastEngine"]
