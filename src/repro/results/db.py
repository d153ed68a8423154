"""The cross-run result index: a stdlib-``sqlite3`` store of runs.

Every completed unit of work — a campaign unit, a gateway execution, a
host-time benchmark probe, an ad-hoc ``api.run`` — can become one row in
``runs``, with its scalar measurements in ``metrics`` and its on-disk
payloads in ``artifacts``.  The paper's whole contribution is cross-run
comparison (Tables 4-11 compare timings across meshes, machines and
algorithm variants); this index is what makes our reproduction's runs
comparable the same way: side by side, in SQL, instead of trapped in
per-run pickles.

Schema::

    runs(id, run_key UNIQUE, source, ident, point, params_json,
         cache_key, status, git_sha, created_at, ingested_at, hits)
    metrics(run_id, name, value, unit)        UNIQUE(run_id, name)
    artifacts(run_id, path, sha256, bytes)    UNIQUE(run_id, path)

``run_key`` is the idempotency key: for campaign/serve units it is the
sha256 content-addressed cache key — so ingesting the same cache twice
adds zero rows (:meth:`ResultsDB.record_run` is INSERT-OR-IGNORE on
it).  ``hits`` counts cache-hit observations of an already-indexed run
(campaign and gateway hooks bump it), which is what the hit-rate
rollups query.

Writes go through one connection per :class:`ResultsDB` (sqlite's
single-writer model; cross-process writers serialize on the database
lock with a generous busy timeout).  Each ``record_*`` call commits by
itself; inside :meth:`ResultsDB.transaction` they share one commit,
which is how the campaign and gateway hooks batch.  Ad-hoc SQL from the
CLI goes through :func:`open_readonly` instead — a ``mode=ro`` URI
connection with ``query_only`` pinned, so user queries can never mutate
the index.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

__all__ = ["ResultsDB", "open_readonly", "DEFAULT_DB"]

#: Conventional index location used by the CLI when ``--db`` is omitted.
DEFAULT_DB = ".repro-results.db"

#: Seconds a writer waits on the database lock before giving up; campaign
#: workers and a serving gateway may share one index file.
_BUSY_TIMEOUT = 30.0

#: Bounded retry schedule (seconds) for ``database is locked`` errors
#: that surface *despite* the busy timeout — sqlite raises immediately,
#: without waiting, when a lock upgrade would deadlock two writers
#: mid-transaction.  A handful of short sleeps resolves the common
#: campaign-coordinator-vs-gateway collision; anything that survives
#: the whole schedule is a real problem and propagates.
_LOCK_RETRIES = (0.05, 0.1, 0.25, 0.5, 1.0)

#: Sources a run row can come from.
SOURCES = ("campaign", "serve", "bench", "api")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY,
    run_key     TEXT NOT NULL UNIQUE,
    source      TEXT NOT NULL,
    ident       TEXT NOT NULL,
    point       TEXT NOT NULL DEFAULT '',
    params_json TEXT NOT NULL DEFAULT '{}',
    cache_key   TEXT,
    status      TEXT NOT NULL DEFAULT 'ran',
    git_sha     TEXT,
    created_at  TEXT,
    ingested_at TEXT NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0,
    host        TEXT
);
CREATE INDEX IF NOT EXISTS runs_ident ON runs (ident);
CREATE INDEX IF NOT EXISTS runs_source ON runs (source);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    name   TEXT NOT NULL,
    value  REAL NOT NULL,
    unit   TEXT NOT NULL DEFAULT '',
    UNIQUE (run_id, name)
);
CREATE TABLE IF NOT EXISTS artifacts (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    path   TEXT NOT NULL,
    sha256 TEXT,
    bytes  INTEGER,
    UNIQUE (run_id, path)
);
"""


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _retry_locked(fn):
    """Call ``fn`` retrying over :data:`_LOCK_RETRIES` on lock errors."""
    for delay in _LOCK_RETRIES:
        try:
            return fn()
        except sqlite3.OperationalError as exc:
            if "database is locked" not in str(exc):
                raise
            time.sleep(delay)
    return fn()  # last try: let a persistent lock propagate


class ResultsDB:
    """One read-write handle on a result index file.

    Creates the file and schema on first open.  Use as a context
    manager, or call :meth:`close` explicitly.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT)
        self._in_transaction = False
        try:
            self._open()
        except BaseException:
            self._conn.close()  # not a database, locked for good, ...
            raise

    def _open(self) -> None:
        self._conn.execute("PRAGMA foreign_keys = ON")
        # WAL lets readers (the query CLI, a serving gateway) proceed
        # while a campaign writes, and busy_timeout makes the remaining
        # writer-vs-writer collisions wait instead of raising.  WAL can
        # be refused (read-only media, some network filesystems) — the
        # index still works, just with the old locking.
        try:
            self._conn.execute("PRAGMA journal_mode = WAL")
        except sqlite3.OperationalError:
            pass
        self._conn.execute(
            f"PRAGMA busy_timeout = {int(_BUSY_TIMEOUT * 1000)}"
        )
        _retry_locked(lambda: self._conn.executescript(_SCHEMA))
        self._migrate()
        self._conn.commit()

    def _migrate(self) -> None:
        """Additive schema upgrades for indexes created by older code."""
        columns = {row[1] for row in
                   self._conn.execute("PRAGMA table_info(runs)")}
        if "host" not in columns:
            # Fleet campaigns attribute each unit to the worker host
            # (hostname:pid) that executed it.
            _retry_locked(lambda: self._conn.execute(
                "ALTER TABLE runs ADD COLUMN host TEXT"
            ))

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- recording ------------------------------------------------------
    @contextmanager
    def transaction(self) -> Iterator["ResultsDB"]:
        """One commit for every ``record_*`` call made inside the block.

        Takes the write lock up front (``BEGIN IMMEDIATE`` waits out
        another process's writer under the busy timeout instead of
        failing on a mid-transaction lock upgrade) and holds it for this
        one batch.  An exception rolls the whole batch back and
        propagates; nesting is an error.
        """
        if self._in_transaction:
            raise RuntimeError("ResultsDB.transaction() does not nest")
        _retry_locked(lambda: self._conn.execute("BEGIN IMMEDIATE"))
        self._in_transaction = True
        try:
            yield self
            _retry_locked(self._conn.commit)
        except BaseException:
            self._conn.rollback()
            raise
        finally:
            self._in_transaction = False

    def _commit(self) -> None:
        """Per-call commit; :meth:`transaction` commits once instead."""
        if not self._in_transaction:
            _retry_locked(self._conn.commit)

    def record_run(
        self,
        *,
        run_key: str,
        source: str,
        ident: str,
        point: str = "",
        params: Any = None,
        cache_key: Optional[str] = None,
        status: str = "ran",
        git_sha: Optional[str] = None,
        created_at: Optional[str] = None,
        metrics: Optional[Dict[str, Any]] = None,
        artifacts: Iterable[Tuple[str, Optional[str], Optional[int]]] = (),
        host: Optional[str] = None,
    ) -> bool:
        """Insert one run (plus metric/artifact rows); True if new.

        Idempotent on ``run_key``: an already-indexed run is left
        untouched and False is returned — re-ingesting a cache dir
        therefore never duplicates rows.  ``metrics``
        values may be plain numbers or ``(value, unit)`` pairs;
        ``artifacts`` rows are ``(path, sha256, bytes)``.
        """
        if source not in SOURCES:
            raise ValueError(
                f"unknown source {source!r}; expected one of {SOURCES}"
            )
        params_json = json.dumps(
            params if params is not None else {},
            sort_keys=True, separators=(",", ":"), default=str,
        )
        cur = _retry_locked(lambda: self._conn.execute(
            "INSERT OR IGNORE INTO runs (run_key, source, ident, point, "
            "params_json, cache_key, status, git_sha, created_at, "
            "ingested_at, host) VALUES (?,?,?,?,?,?,?,?,?,?,?)",
            (run_key, source, ident, point, params_json, cache_key,
             status, git_sha, created_at, _utcnow(), host),
        ))
        if cur.rowcount == 0:
            self._commit()
            return False
        run_id = cur.lastrowid
        for name, value in (metrics or {}).items():
            unit = ""
            if isinstance(value, tuple):
                value, unit = value
            self._conn.execute(
                "INSERT OR IGNORE INTO metrics (run_id, name, value, unit) "
                "VALUES (?,?,?,?)",
                (run_id, name, float(value), unit),
            )
        for path, sha256, nbytes in artifacts:
            self._conn.execute(
                "INSERT OR IGNORE INTO artifacts (run_id, path, sha256, "
                "bytes) VALUES (?,?,?,?)",
                (run_id, path, sha256, nbytes),
            )
        self._commit()
        return True

    def record_hit(self, run_key: str, count: int = 1) -> bool:
        """Add ``count`` cache hits to an indexed run; True if found."""
        cur = _retry_locked(lambda: self._conn.execute(
            "UPDATE runs SET hits = hits + ? WHERE run_key = ?",
            (count, run_key),
        ))
        self._commit()
        return cur.rowcount > 0

    def mark_ran(self, run_key: str) -> None:
        """Upgrade a previously-failed run that has now succeeded."""
        _retry_locked(lambda: self._conn.execute(
            "UPDATE runs SET status = 'ran' WHERE run_key = ? "
            "AND status = 'failed'", (run_key,)
        ))
        self._commit()

    # -- reading --------------------------------------------------------
    def query(self, sql: str, params: Sequence[Any] = ()
              ) -> Tuple[List[str], List[Tuple]]:
        """Run one SQL statement; returns (column names, rows)."""
        cur = self._conn.execute(sql, tuple(params))
        columns = [d[0] for d in cur.description] if cur.description else []
        return columns, cur.fetchall()

    def run_keys(self) -> set:
        return {row[0] for row in
                self._conn.execute("SELECT run_key FROM runs")}

    def cache_keys(self) -> set:
        """Every non-null cache key referenced by an indexed run."""
        return {row[0] for row in self._conn.execute(
            "SELECT cache_key FROM runs WHERE cache_key IS NOT NULL")}

    def metrics_for(self, run_key: str) -> Dict[str, float]:
        return {name: value for name, value in self._conn.execute(
            "SELECT m.name, m.value FROM metrics m "
            "JOIN runs r ON r.id = m.run_id WHERE r.run_key = ?",
            (run_key,))}

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]


def open_readonly(path: str) -> sqlite3.Connection:
    """A read-only connection: ad-hoc SQL cannot mutate the index.

    Opens with a ``mode=ro`` URI (writes fail at the filesystem layer)
    and additionally pins ``PRAGMA query_only`` (writes fail at the SQL
    layer, with a clear error, even on filesystems that ignore ro).
    """
    conn = sqlite3.connect(
        f"file:{path}?mode=ro", uri=True, timeout=_BUSY_TIMEOUT
    )
    conn.execute("PRAGMA query_only = ON")
    return conn
