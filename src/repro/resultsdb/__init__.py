"""SQLite-backed campaign results store (stdlib only).

Normalizes fault-injection campaigns into ``campaigns -> runs -> faults``
with finalized outcome ``tallies``, fed write-through from the live
telemetry stream or backfilled from event logs / result JSON, read back
through a typed query layer that reproduces the in-memory analysis
bit-for-bit, and rendered — Table 4/5/6, Figure 4/5 — by :mod:`.report`.  See :mod:`repro.resultsdb.schema` for the data model and
``docs/api.md`` for the ingest idempotency contract.
"""

from repro.resultsdb.db import ResultsDB
from repro.resultsdb.ingest import (
    DatabaseSink,
    ingest_events,
    ingest_result,
    ingest_results_file,
)
from repro.resultsdb.queries import (
    CampaignInfo,
    SiteRank,
    breakdown,
    contingency,
    find_campaign,
    list_campaigns,
    matrix_from_db,
    outcome_counts,
    rank_sites,
    to_campaign_result,
)
from repro.resultsdb.report import (
    build_report,
    generated_blocks,
    render_markdown,
    report_data,
    splice_blocks,
)

__all__ = [
    "CampaignInfo",
    "DatabaseSink",
    "ResultsDB",
    "SiteRank",
    "breakdown",
    "build_report",
    "contingency",
    "find_campaign",
    "generated_blocks",
    "ingest_events",
    "ingest_result",
    "ingest_results_file",
    "list_campaigns",
    "matrix_from_db",
    "outcome_counts",
    "rank_sites",
    "render_markdown",
    "report_data",
    "splice_blocks",
    "to_campaign_result",
]
