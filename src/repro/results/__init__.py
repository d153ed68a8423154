"""repro.results — the SQLite cross-run result index.

Scattered artifacts (campaign and gateway pickle caches, the
hand-appended ``BENCH_agcm.json`` list) become one queryable dataset:
``runs`` / ``metrics`` / ``artifacts`` rows keyed on content hashes,
stamped with git provenance at ingest, and exposed through
``python -m repro results [ingest|query|runs|trajectory|prune]``
plus opt-in ``results_db`` hooks on the campaign scheduler and the
service gateway.  See ``docs/results.md``.
"""

from repro.results.db import DEFAULT_DB, ResultsDB, open_readonly
from repro.results.hooks import ResultsRecorder, record_campaign_outcomes
from repro.results.ingest import Ingestor, IngestStats, bench_entry_key
from repro.results.provenance import current_git_sha
from repro.results.prune import PruneReport, prune_cache
from repro.results.queries import (
    experiment_rollup,
    run_query,
    runs_report,
    trajectory_from_db,
    trajectory_report,
)

__all__ = [
    "DEFAULT_DB",
    "Ingestor",
    "IngestStats",
    "PruneReport",
    "ResultsDB",
    "ResultsRecorder",
    "bench_entry_key",
    "current_git_sha",
    "experiment_rollup",
    "open_readonly",
    "prune_cache",
    "record_campaign_outcomes",
    "run_query",
    "runs_report",
    "trajectory_from_db",
    "trajectory_report",
]
