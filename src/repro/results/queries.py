"""Read-only queries over the index: ad-hoc SQL plus canned reports.

Everything here opens the database through
:func:`repro.results.db.open_readonly` — a ``mode=ro`` +
``query_only`` connection — so neither a canned report nor a user's
``results query`` SQL can ever mutate the index.  Reports come back as
:class:`repro.util.tables.Table` (the repo's monospace-markdown table
convention) with a parallel ``*_json`` document for machine consumers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.results.db import open_readonly
from repro.util.tables import Table

__all__ = [
    "run_query",
    "runs_report",
    "experiment_rollup",
]


def run_query(path: str, sql: str, params: Sequence[Any] = ()
              ) -> Tuple[List[str], List[Tuple]]:
    """Execute one read-only SQL statement against the index at ``path``.

    Parameters bind to ``?`` placeholders.  Any attempt to write fails
    inside sqlite (``query_only``), not in our code — so arbitrary SQL
    is safe to expose on the CLI.
    """
    conn = open_readonly(path)
    try:
        cur = conn.execute(sql, tuple(params))
        columns = [d[0] for d in cur.description] if cur.description else []
        return columns, cur.fetchall()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# canned report: runs + per-experiment rollup
# ----------------------------------------------------------------------

_RUNS_SQL = """
SELECT r.run_key, r.source, r.ident, r.point, r.status, r.hits,
       r.created_at, r.git_sha,
       (SELECT value FROM metrics m
         WHERE m.run_id = r.id AND m.name = 'duration_seconds')
           AS duration_seconds
  FROM runs r
 WHERE (?1 IS NULL OR r.ident = ?1)
   AND (?2 IS NULL OR r.source = ?2)
 ORDER BY r.ident, r.point, r.id
"""

_ROLLUP_SQL = """
SELECT r.ident,
       COUNT(*)                                   AS runs,
       SUM(CASE WHEN r.status = 'failed' THEN 1 ELSE 0 END) AS failed,
       SUM(r.hits)                                AS cache_hits,
       MIN(m.value)                               AS best_seconds,
       MAX(m.value)                               AS worst_seconds
  FROM runs r
  LEFT JOIN metrics m
         ON m.run_id = r.id AND m.name = 'duration_seconds'
 WHERE (?1 IS NULL OR r.ident = ?1)
   AND (?2 IS NULL OR r.source = ?2)
 GROUP BY r.ident
 ORDER BY r.ident
"""


def runs_report(path: str, *, ident: Optional[str] = None,
                source: Optional[str] = None
                ) -> Tuple[List[Table], Dict[str, Any]]:
    """Per-unit run rows plus the per-experiment best/worst rollup."""
    filt = (ident, source)
    run_cols, run_rows = run_query(path, _RUNS_SQL, filt)
    roll_cols, roll_rows = run_query(path, _ROLLUP_SQL, filt)

    runs_t = Table("Indexed runs", ["ident", "point", "source", "status",
                                    "hits", "seconds", "created"])
    for row in run_rows:
        rec = dict(zip(run_cols, row))
        runs_t.add_row(
            rec["ident"], rec["point"], rec["source"], rec["status"],
            rec["hits"],
            "-" if rec["duration_seconds"] is None
            else f"{rec['duration_seconds']:.3f}",
            rec["created_at"] or "-",
        )
    roll_t = Table(
        "Per-experiment rollup (compute seconds; hits = cache-hit "
        "observations)",
        ["ident", "runs", "failed", "cache hits", "best s", "worst s"],
    )
    for row in roll_rows:
        rec = dict(zip(roll_cols, row))
        roll_t.add_row(
            rec["ident"], rec["runs"], rec["failed"] or 0,
            rec["cache_hits"] or 0,
            "-" if rec["best_seconds"] is None
            else f"{rec['best_seconds']:.3f}",
            "-" if rec["worst_seconds"] is None
            else f"{rec['worst_seconds']:.3f}",
        )
    doc = {
        "runs": [dict(zip(run_cols, row)) for row in run_rows],
        "rollup": [dict(zip(roll_cols, row)) for row in roll_rows],
    }
    return [runs_t, roll_t], doc


def experiment_rollup(path: str) -> Dict[str, Dict[str, Any]]:
    """The rollup alone, keyed by experiment ident (for assertions)."""
    cols, rows = run_query(path, _ROLLUP_SQL, (None, None))
    return {row[0]: dict(zip(cols, row)) for row in rows}
