"""Opt-in recording hooks: live runs land in the index as they finish.

The campaign scheduler and the service gateway both already persist
completed units to the content-addressed cache; with a ``results_db``
path configured they additionally record each completed unit here.
Each process has **one** writer and no request opens a connection:

* a campaign records its outcomes once, parent-side, after the last
  unit arrived — :func:`record_campaign_outcomes` is one connection and
  one transaction per campaign;
* a gateway owns one :class:`ResultsRecorder`: a writer thread with the
  process's only read-write connection.  Callers enqueue and the thread
  applies *everything queued while the previous commit ran* in one
  transaction (group commit: batches grow under load, an idle gateway
  commits at once; there is no timer and no batch size to tune).

Durability.  A unit's cache entry is on disk and its run row is
committed before its ``executed`` reply: :meth:`ResultsRecorder.execution`
returns after the commit.  Hit counters are write-behind:
:meth:`ResultsRecorder.hit` returns at once, :meth:`ResultsRecorder.close`
(a clean stop, Ctrl-C, ``SIGTERM``) drains every queued hit, and a
``kill -9`` loses at most the hits still queued — never a run row or a
cache entry.  Recording stays bookkeeping on top of the cache's
crash-safety story: whatever a dead process did not index,
``results ingest --cache-dir`` recovers idempotently from the sidecars
— as the same rows, because both build them with
:func:`repro.results.ingest.sidecar_row`.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.campaign.cache import unit_meta
from repro.results.db import ResultsDB, _utcnow
from repro.results.ingest import sidecar_row
from repro.results.provenance import current_git_sha

__all__ = ["ResultsRecorder", "record_campaign_outcomes"]

#: Records a :class:`ResultsRecorder` holds before ``hit`` blocks its
#: caller: a writer that cannot keep up slows the producers down instead
#: of dropping counters or growing without bound.
_QUEUE_BOUND = 4096


def _record(db: ResultsDB, key: str, cache, seen: Optional[Dict[str, Any]],
            git_sha: Optional[str]) -> None:
    """Insert the row of unit ``key`` (idempotent on ``key``).

    The row is its sidecar in ``cache`` with ``seen`` — the ``unit_meta``
    of an execution this process witnessed, which is what its executor
    stored — laid over it, or ``seen`` alone for a unit run without a
    cache.  ``seen`` is None for an entry found in the cache.
    """
    payload = None
    if cache is not None:
        seen = {**cache.meta(key), **(seen or {})}
        payload = cache._paths(key)[0]
    db.record_run(git_sha=git_sha, **sidecar_row(key, seen, payload))


def record_campaign_outcomes(db_path: str, outcomes: Iterable,
                             cache=None,
                             git_sha: Optional[str] = None,
                             units: Iterable = ()) -> None:
    """Record a campaign's per-unit outcomes into the index.

    ``ran`` (and fleet ``salvaged``) inserts the unit's sidecar row and
    upgrades an earlier ``failed`` row for the same key; ``failed``
    inserts a failed row; ``hit`` bumps the hit counter — inserting the
    row first from the sidecar when the cache predates the index.
    Without a ``cache``, a ``ran`` unit (looked up in ``units``) is
    recorded from the ``unit_meta`` it would have stored.  All inserts
    are idempotent on the unit's sha256 key, and the whole campaign is
    one transaction: every outcome is indexed or none is.
    """
    sha = current_git_sha() if git_sha is None else (git_sha or None)
    unit_of = {u.key: u for u in units}
    with ResultsDB(db_path) as db, db.transaction():
        for o in outcomes:
            if o.status == "hit":
                if not db.record_hit(o.key):
                    # The cache predates the index: the sidecar (read
                    # only now) describes the row to count the hit on.
                    _record(db, o.key, cache, None, sha)
                    db.record_hit(o.key)
            elif o.status == "failed":
                prefix = o.ident + "@"
                point = (o.label[len(prefix):]
                         if o.label.startswith(prefix) else o.label)
                db.record_run(
                    run_key=o.key, source="campaign", ident=o.ident,
                    point=point, params={"point": point},
                    cache_key=o.key, status="failed", git_sha=sha,
                    created_at=_utcnow(),
                    metrics={"duration_seconds": (o.seconds, "s")},
                    host=o.host,
                )
            else:
                # "ran" on any worker, or "salvaged" from a dead one:
                # either way the unit executed exactly once and its
                # payload (and sidecar) is in the cache, if there is one.
                seen = None if cache is not None else unit_meta(
                    unit_of[o.key], o.compute_seconds, o.worker, o.host)
                _record(db, o.key, cache, seen, sha)
                db.mark_ran(o.key)


class _Execution:
    """One queued ``execution``: the pool thread waits on ``done`` and
    finds its batch's failure, if any, in ``error``."""

    __slots__ = ("unit", "seconds", "done", "error")

    def __init__(self, unit, seconds: float) -> None:
        self.unit = unit
        self.seconds = seconds
        self.done = threading.Event()
        self.error: Optional[BaseException] = None


class ResultsRecorder:
    """The one results writer of a serving process.

    Owns a writer thread and, on it, the process's only read-write
    :class:`ResultsDB` connection (opened with the first batch).
    ``cache`` supplies the sidecars rows are built from; ``git_sha``
    stamps them; ``on_error(n)`` is called on the writer thread with the
    number of records each failed batch lost.  A failed batch is rolled
    back whole and never silent: :attr:`errors` counts its records,
    :attr:`first_error` keeps the first exception, and each
    :meth:`execution` of the batch raises it.
    """

    def __init__(self, db_path: str, cache=None,
                 git_sha: Optional[str] = None,
                 on_error: Optional[Callable[[int], None]] = None) -> None:
        self.db_path = str(db_path)
        self.cache = cache
        self.git_sha = git_sha
        self.errors = 0
        self.first_error: Optional[BaseException] = None
        self._on_error = on_error
        self._queue: "queue.Queue[Any]" = queue.Queue(_QUEUE_BOUND)
        # pending = queued - settled; each has one writer (the producers
        # under _put_lock, the writer thread), so neither needs a lock.
        self._queued = 0
        self._settled = 0
        self._closed = False
        #: The connection; opened, used and closed by the writer thread.
        self._db: Optional[ResultsDB] = None
        # Orders every put against close()'s end marker, so that no
        # record is queued behind it and waited for forever.
        self._put_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._run, name="repro-results-writer", daemon=True
        )
        self._thread.start()

    # -- producers (any thread) -----------------------------------------
    def hit(self, unit) -> None:
        """Count one cache hit of ``unit``; returns without waiting for
        the commit (blocks only while the queue is full)."""
        self._put(unit)

    def execution(self, unit, seconds: float) -> None:
        """Record one freshly executed unit and return once its row is
        committed; raises what its batch raised.  Call it off the event
        loop: it waits for the disk."""
        item = _Execution(unit, seconds)
        self._put(item)
        item.done.wait()
        if item.error is not None:
            raise item.error

    def _put(self, item) -> None:
        with self._put_lock:
            if self._closed:
                raise RuntimeError("results recorder is closed")
            self._queued += 1
            self._queue.put(item)

    @property
    def pending(self) -> int:
        """Records queued or being applied, not yet committed."""
        return self._queued - self._settled

    def close(self) -> None:
        """Commit everything queued, then stop the thread and close the
        connection.  Idempotent."""
        with self._put_lock:
            if not self._closed:
                self._closed = True
                self._queue.put(None)
        self._thread.join()

    # -- the writer thread ----------------------------------------------
    def _run(self) -> None:
        try:
            while True:
                batch = [self._queue.get()]
                try:
                    while True:
                        batch.append(self._queue.get_nowait())
                except queue.Empty:
                    pass
                last = batch[-1] is None  # nothing is queued behind it
                if last:
                    batch.pop()
                if batch:
                    self._write(batch)
                if last:
                    return
        finally:
            if self._db is not None:
                self._db.close()

    def _write(self, batch: List[Any]) -> None:
        """Apply ``batch`` in one transaction and settle its records."""
        executions: List[_Execution] = []
        hits: Dict[str, list] = {}  # key -> [unit, times hit in batch]
        for item in batch:
            if isinstance(item, _Execution):
                executions.append(item)
            else:
                hits.setdefault(item.key, [item, 0])[1] += 1
        error: Optional[BaseException] = None
        try:
            if self._db is None:
                self._db = ResultsDB(self.db_path)
            db = self._db
            with db.transaction():
                # Rows before counters: a unit executed and hit in one
                # batch finds its row.
                for item in executions:
                    self._record_execution(db, item)
                for unit, count in hits.values():
                    self._record_hits(db, unit, count)
        except Exception as exc:  # noqa: BLE001 - kept, counted, re-raised
            error = exc
            self.errors += len(batch)
            if self.first_error is None:
                self.first_error = exc
            if self._on_error is not None:
                self._on_error(len(batch))
        self._settled += len(batch)
        for item in executions:
            item.error = error
            item.done.set()

    def _record_execution(self, db: ResultsDB, item: _Execution) -> None:
        unit = item.unit
        _record(db, unit.key, self.cache,
                unit_meta(unit, item.seconds, "serve"), self.git_sha)
        db.mark_ran(unit.key)

    def _record_hits(self, db: ResultsDB, unit, count: int) -> None:
        if db.record_hit(unit.key, count):
            return
        # The cache predates the index: insert the row from the sidecar.
        _record(db, unit.key, self.cache, None, self.git_sha)
        db.record_hit(unit.key, count)
