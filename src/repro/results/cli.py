"""``python -m repro results`` — the index's command-line front end.

Subcommands: ``ingest`` (index campaign and serve caches), ``query``
(read-only SQL), ``runs`` (canned report), ``prune`` (cache GC);
``python -m repro results <subcommand> --help`` lists the flags.

All reads are forced read-only (``query`` cannot mutate the index no
matter what SQL it is handed); every report renders as a monospace
table by default or as JSON with ``--json``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
from typing import List, Optional

from repro.results.db import DEFAULT_DB, ResultsDB
from repro.util.cli import Command, StrictParser, run_command

__all__ = ["main"]


def _db_flag(p: StrictParser) -> None:
    p.add_argument("--db", default=DEFAULT_DB,
                   help="index file (default: %(default)s)")


def _declare_ingest(p: StrictParser) -> None:
    _db_flag(p)
    p.add_argument("--cache-dir", action="append", default=[],
                   metavar="DIR",
                   help="campaign/serve --cache-dir to walk (repeatable)")
    p.add_argument("--git-sha", default=None,
                   help="provenance stamp override (default: "
                   "$REPRO_GIT_SHA, then `git rev-parse HEAD`)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable ingest stats")


def _declare_query(p: StrictParser) -> None:
    p.add_argument("sql", help="one SELECT statement; bind values "
                   "with ? placeholders")
    _db_flag(p)
    p.add_argument("--param", action="append", default=[], metavar="VALUE",
                   help="positional ? binding (repeatable, in order)")
    p.add_argument("--json", action="store_true",
                   help="rows as a JSON list of objects")


def _declare_runs(p: StrictParser) -> None:
    _db_flag(p)
    p.add_argument("--ident", default=None,
                   help="restrict to one experiment ident")
    p.add_argument("--source", default=None,
                   choices=("campaign", "serve", "bench", "api"))
    p.add_argument("--json", action="store_true")


def _declare_prune(p: StrictParser) -> None:
    p.add_argument("--cache-dir", required=True, metavar="DIR")
    p.add_argument("--db", default=None,
                   help="also keep entries referenced by this index")
    p.add_argument("--older-than", type=float, default=30.0,
                   metavar="DAYS",
                   help="only remove entries older than DAYS "
                   "(default: %(default)s)")
    p.add_argument("--dry-run", action="store_true",
                   help="list what would be removed; delete nothing")
    p.add_argument("--json", action="store_true")


def _require_db(path: str) -> Optional[str]:
    if not os.path.exists(path):
        print(
            f"results: no index at {path!r}; create one with "
            f"`python -m repro results ingest --db {path} ...` or a "
            f"campaign/serve run with --results-db",
            file=sys.stderr,
        )
        return None
    return path


def _cmd_ingest(args) -> int:
    if not args.cache_dir:
        print("results ingest: nothing to ingest; pass --cache-dir",
              file=sys.stderr)
        return 2
    from repro.results.ingest import Ingestor

    all_stats = []
    with ResultsDB(args.db) as db:
        ingestor = Ingestor(db, git_sha=args.git_sha)
        for root in args.cache_dir:
            all_stats.append(ingestor.ingest_cache_dir(root))
        total = len(db)
    if args.json:
        print(json.dumps({
            "db": args.db,
            "runs_indexed": total,
            "sources": [s.to_json() for s in all_stats],
        }, indent=1, sort_keys=True))
    else:
        for stats in all_stats:
            print(stats)
        print(f"index {args.db}: {total} run(s) total")
    return 1 if any(s.errors for s in all_stats) else 0


def _cmd_query(args) -> int:
    if _require_db(args.db) is None:
        return 2
    from repro.results.queries import run_query

    try:
        columns, rows = run_query(args.db, args.sql, args.param)
    except sqlite3.Error as exc:
        print(f"results query: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(
            [dict(zip(columns, row)) for row in rows],
            indent=1, sort_keys=True, default=str,
        ))
        return 0
    if not columns:
        print(f"{len(rows)} row(s)")
        return 0
    from repro.util.tables import Table

    t = Table(f"{len(rows)} row(s)", columns)
    for row in rows:
        t.add_row(*("" if v is None else v for v in row))
    print(t.render())
    return 0


def _cmd_runs(args) -> int:
    if _require_db(args.db) is None:
        return 2
    from repro.results.queries import runs_report

    tables, doc = runs_report(args.db, ident=args.ident,
                              source=args.source)
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True, default=str))
    else:
        print("\n\n".join(t.render() for t in tables))
    return 0


def _cmd_prune(args) -> int:
    from repro.results.prune import prune_cache

    try:
        report = prune_cache(
            args.cache_dir, older_than_days=args.older_than,
            db_path=args.db, dry_run=args.dry_run,
        )
    except ValueError as exc:
        print(f"results prune: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=1, sort_keys=True))
    else:
        print(report.render())
    return 1 if report.errors else 0


COMMANDS = {
    "ingest": Command("index campaign and serve caches",
                      _declare_ingest, _cmd_ingest),
    "query": Command("run read-only SQL against the index",
                     _declare_query, _cmd_query),
    "runs": Command("per-unit rows + per-experiment best/worst rollup",
                    _declare_runs, _cmd_runs),
    "prune": Command("GC cache entries unreferenced by manifest/index",
                     _declare_prune, _cmd_prune),
}


def main(argv: List[str]) -> int:
    return run_command(COMMANDS, argv, "results", __doc__)
