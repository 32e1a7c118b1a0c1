"""Result containers for fault-injection campaigns."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.classify import OUTCOME_ORDER, Outcome
from repro.machine.cpu import FaultRecord


@dataclass
class ExperimentRecord:
    """One experiment: its seed, outcome and (if a fault fired) the log entry
    needed for replay (paper Section 4.3.1)."""

    seed: int
    outcome: Outcome
    cycles: float
    steps: int
    trap: str | None = None
    exit_code: int = 0
    fault: FaultRecord | None = None
    #: global experiment index within the campaign (-1 when unknown, e.g.
    #: records loaded from a version-1 file); lets merged/resumed campaigns
    #: keep records in global order.
    index: int = -1
    #: execution engine that ran the experiment (``None`` when unknown,
    #: e.g. records loaded from an older file).
    engine: str | None = None
    #: whether the tail ran from a fork of the golden run (``None`` for a
    #: single from-scratch experiment or a record that predates the field).
    snapshot_hit: bool | None = None


@dataclass
class CampaignResult:
    """Aggregated outcome of one (workload, tool) campaign."""

    workload: str
    tool: str
    n: int
    counts: dict[Outcome, int] = field(default_factory=dict)
    total_cycles: float = 0.0
    total_steps: int = 0
    golden_output: tuple[str, ...] = ()
    total_candidates: int = 0
    records: list[ExperimentRecord] = field(default_factory=list)
    #: canonical fault-model spec the campaign ran under (repro.fi.models);
    #: defaults keep pre-model results and files meaningful.
    fault_model: str = "single-bit"

    def add(self, record: ExperimentRecord, keep_record: bool = False) -> None:
        """Tally one finished experiment (shared by the sequential runner,
        the parallel workers and checkpoint resume, so all three accumulate
        identically)."""
        self.counts[record.outcome] = self.counts.get(record.outcome, 0) + 1
        self.total_cycles += record.cycles
        self.total_steps += record.steps
        if keep_record:
            self.records.append(record)

    def frequency(self, outcome: Outcome) -> int:
        return self.counts.get(outcome, 0)

    def proportion(self, outcome: Outcome) -> float:
        return self.frequency(outcome) / self.n if self.n else 0.0

    def frequencies(self) -> tuple[int, int, int]:
        """(crash, soc, benign) in the canonical order."""
        return tuple(self.frequency(o) for o in OUTCOME_ORDER)  # type: ignore[return-value]

    def summary(self) -> str:
        parts = ", ".join(
            f"{o.value}={self.proportion(o) * 100:.1f}%" for o in OUTCOME_ORDER
        )
        return f"{self.workload}/{self.tool} (n={self.n}): {parts}"


def matrix_to_csv(matrix: dict[tuple[str, str], CampaignResult]) -> str:
    """The CSV ``refine-campaign`` and ``refine-db query --csv`` print."""
    lines = ["workload,tool,n,crash,soc,benign,total_cycles,total_candidates"]
    for (workload, tool), res in matrix.items():
        crash, soc, benign = res.frequencies()
        lines.append(
            f"{workload},{tool},{res.n},{crash},{soc},{benign},"
            f"{res.total_cycles:.0f},{res.total_candidates}"
        )
    return "\n".join(lines)
