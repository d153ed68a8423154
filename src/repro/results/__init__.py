"""repro.results — the SQLite cross-run result index.

Campaign and gateway result caches become one queryable dataset:
``runs`` / ``metrics`` / ``artifacts`` rows keyed on content hashes,
stamped with git provenance at ingest, and exposed through
``python -m repro results [ingest|query|runs|prune]``
plus opt-in ``results_db`` hooks on the campaign scheduler and the
service gateway.  See ``docs/results.md``.
"""

from repro.results.db import DEFAULT_DB, ResultsDB, open_readonly
from repro.results.hooks import ResultsRecorder, record_campaign_outcomes
from repro.results.ingest import Ingestor, IngestStats
from repro.results.provenance import current_git_sha
from repro.results.prune import PruneReport, prune_cache
from repro.results.queries import (
    experiment_rollup,
    run_query,
    runs_report,
)

__all__ = [
    "DEFAULT_DB",
    "Ingestor",
    "IngestStats",
    "PruneReport",
    "ResultsDB",
    "ResultsRecorder",
    "current_git_sha",
    "experiment_rollup",
    "open_readonly",
    "prune_cache",
    "record_campaign_outcomes",
    "run_query",
    "runs_report",
]
