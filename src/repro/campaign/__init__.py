"""Campaign orchestration: experiments, classification, result aggregation,
checkpoint/resume and telemetry."""

from repro.campaign.analysis import (
    GroupSensitivity,
    by_bit_range,
    by_fault_model,
    by_function,
    by_operand_kind,
    render_sensitivity,
)
from repro.campaign.cell import (
    DEFAULT_SEED,
    CampaignCell,
    CampaignSpec,
    Program,
    make_tool,
    trigger_order,
)
from repro.campaign.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    CampaignCheckpoint,
    load_checkpoint,
    save_checkpoint,
    try_load_checkpoint,
)
from repro.campaign.classify import OUTCOME_ORDER, Outcome, classify
from repro.campaign.events import CampaignStats, EventLog, read_events
from repro.campaign.io import (
    load_matrix,
    merge_results,
    result_from_dict,
    result_to_dict,
    save_matrix,
)
from repro.campaign.parallel import (
    run_campaign_parallel,
    run_plan,
    run_slice,
)
from repro.campaign.results import CampaignResult, ExperimentRecord, matrix_to_csv
from repro.campaign.runner import (
    PAPER_SAMPLES,
    matrix_checkpoint_path,
    replay,
    run_campaign,
    run_cell,
    run_cells,
    run_experiment,
    run_matrix,
)
from repro.campaign.schedule import (
    PhaseTimes,
    SchedulerStats,
    TriggerScheduler,
    resolve_trigger_order,
)

__all__ = [
    "GroupSensitivity",
    "by_bit_range",
    "by_fault_model",
    "by_function",
    "by_operand_kind",
    "render_sensitivity",
    "CampaignCell",
    "CampaignSpec",
    "Program",
    "trigger_order",
    "DEFAULT_CHECKPOINT_EVERY",
    "CampaignCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
    "try_load_checkpoint",
    "CampaignStats",
    "EventLog",
    "read_events",
    "load_matrix",
    "merge_results",
    "result_from_dict",
    "result_to_dict",
    "save_matrix",
    "run_campaign_parallel",
    "run_plan",
    "run_slice",
    "OUTCOME_ORDER",
    "Outcome",
    "classify",
    "CampaignResult",
    "ExperimentRecord",
    "matrix_to_csv",
    "DEFAULT_SEED",
    "PAPER_SAMPLES",
    "make_tool",
    "matrix_checkpoint_path",
    "replay",
    "run_campaign",
    "run_cell",
    "run_cells",
    "run_experiment",
    "run_matrix",
    "PhaseTimes",
    "SchedulerStats",
    "TriggerScheduler",
    "resolve_trigger_order",
]
