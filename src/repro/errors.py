"""Exception hierarchy for the REFINE reproduction.

Every error raised by the package derives from :class:`ReproError` so callers
can catch the whole family at once.  Machine traps (the faults a real CPU
would raise) form their own sub-hierarchy under :class:`MachineTrap` because
the fault-injection campaign treats them as *observations* (crash outcomes)
rather than programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class FrontendError(ReproError):
    """Base class for MiniC frontend failures."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.line = line
        self.col = col
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class LexError(FrontendError):
    """Invalid token in MiniC source."""


class ParseError(FrontendError):
    """Syntactically invalid MiniC source."""


class SemaError(FrontendError):
    """Semantically invalid MiniC source (type errors, undefined names)."""


class IRError(ReproError):
    """Malformed IR construction or use."""


class VerifierError(IRError):
    """IR failed structural verification."""


class PassError(ReproError):
    """An IR or machine pass could not be applied."""


class BackendError(ReproError):
    """Code generation failure (instruction selection, register allocation)."""


class LinkError(ReproError):
    """Binary loading/linking failure (undefined symbols, duplicate names)."""


class CampaignError(ReproError):
    """Fault-injection campaign configuration or orchestration error."""


class WorkloadError(ReproError):
    """Unknown or misconfigured workload."""


class DistError(ReproError):
    """Distributed campaign service failure (wire protocol violation,
    unreachable coordinator, or a worker/coordinator contract breach)."""


class DistConnectionError(DistError):
    """Transport-level failure: peer unreachable, connection refused, or a
    socket torn mid-conversation.  Distinguished from plain
    :class:`DistError` (a *protocol*-level rejection, which is fatal)
    because connection loss is the one retryable failure — the worker's
    reconnect loop backs off and redials on this and only this."""


class ServiceError(DistError):
    """Persistent campaign-service failure (queue corruption, quota or
    admission violation, lifecycle contract breach).  A subclass of
    :class:`DistError` because the service is the long-lived face of the
    distributed layer — callers catching the dist family catch this too."""


class CampaignSpecError(DistError, CampaignError):
    """An invalid :class:`~repro.campaign.cell.CampaignSpec`.  The spec is
    at once a local runner's configuration and the distributed wire type,
    so its one validation is catchable as either family."""


class StatsError(ReproError):
    """Invalid statistical computation request."""


class ResultsDBError(ReproError):
    """Results-database failure (schema mismatch, malformed ingest input,
    or a query against data the store does not hold)."""


# ---------------------------------------------------------------------------
# Machine traps: runtime events observed while executing a binary.  These are
# *expected* under fault injection and are converted into CRASH outcomes.
# ---------------------------------------------------------------------------

class MachineTrap(ReproError):
    """Base class for architectural traps raised by the simulated CPU."""

    #: short mnemonic used in fault logs
    kind = "trap"

    def __init__(self, message: str = "", pc: int = -1) -> None:
        self.pc = pc
        super().__init__(message or self.kind)


class SegmentationFault(MachineTrap):
    """Access to unmapped or guard memory."""

    kind = "segfault"


class StackOverflow(MachineTrap):
    """Stack pointer escaped the stack region."""

    kind = "stack-overflow"


class IllegalInstruction(MachineTrap):
    """Executed an undecodable or invalid instruction (e.g. bad jump target)."""

    kind = "illegal-instruction"


class DivideByZero(MachineTrap):
    """Integer division or remainder by zero."""

    kind = "divide-by-zero"


class ExecutionTimeout(MachineTrap):
    """Dynamic instruction budget exhausted (the paper's 10x timeout rule)."""

    kind = "timeout"


class AbnormalExit(MachineTrap):
    """Program terminated with a non-zero exit code."""

    kind = "abnormal-exit"

    def __init__(self, code: int, pc: int = -1) -> None:
        self.code = code
        super().__init__(f"exit code {code}", pc)
