"""How much SQLite work a warm request costs, counted — not timed.

Host-independent: every ``sqlite3.connect`` call is counted and every
statement is traced with the thread it ran on.  A gateway answers warm
hits with the process's one read-write connection, on the writer thread,
in at most one commit per hit; a warm campaign is one connection and one
commit.  (Before the recorder: 100 connections and 100 commits on the
event-loop thread for 100 hits; eight commits for an eight-unit warm
campaign.)
"""

from __future__ import annotations

import asyncio
import sqlite3
import subprocess
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.campaign import run_campaign
from repro.campaign.cache import ResultCache, unit_meta
from repro.campaign.units import enumerate_units
from repro.results.db import ResultsDB
from repro.results.hooks import ResultsRecorder, record_campaign_outcomes
from repro.serve import Gateway, ServeConfig
from .queries import metrics_of, run_keys

UNITS = [f"sleep:0.001#w{i}" for i in range(8)]


@contextmanager
def traced_sqlite(monkeypatch):
    """Count connections; record ``(statement, thread id)`` of each
    statement any of them runs."""
    connections: list = []
    statements: list = []
    real_connect = sqlite3.connect

    def connect(*args, **kwargs):
        conn = real_connect(*args, **kwargs)
        connections.append(args[0])
        conn.set_trace_callback(
            lambda sql: statements.append((sql, threading.get_ident())))
        return conn

    with monkeypatch.context() as patch:
        patch.setattr(sqlite3, "connect", connect)
        yield connections, statements


def _hits_and_rows(db_path: str):
    with ResultsDB(db_path) as db:
        return db.query("SELECT COALESCE(SUM(hits), 0), COUNT(*) "
                        "FROM runs")[1][0]


def test_gateway_hits_one_connection_no_statement_on_the_loop(
        tmp_path, monkeypatch):
    cache_dir, db_path = str(tmp_path / "cache"), str(tmp_path / "i.db")
    run_campaign(UNITS, cache_dir=cache_dir)  # warm the cache, no index

    async def hundred_hits():
        async with Gateway(ServeConfig(cache_dir=cache_dir,
                                       results_db=db_path)) as gateway:
            for i in range(100):
                response = await gateway.call_run(UNITS[i % len(UNITS)])
                assert response.doc["units"][0]["served"] == "hit"
        return threading.get_ident()

    with traced_sqlite(monkeypatch) as (connections, statements):
        loop_thread = asyncio.run(hundred_hits())

    assert connections == [db_path]
    commits = [sql for sql, _ in statements if sql == "COMMIT"]
    assert 1 <= len(commits) <= 100
    assert statements and loop_thread not in {t for _, t in statements}
    # stop() drained the queue: every hit is counted, one row per unit.
    assert _hits_and_rows(db_path) == (100, len(UNITS))


def test_warm_campaign_is_one_connection_and_one_commit(
        tmp_path, monkeypatch):
    cache_dir, db_path = str(tmp_path / "cache"), str(tmp_path / "i.db")
    run_campaign(UNITS, cache_dir=cache_dir, results_db=db_path)

    with traced_sqlite(monkeypatch) as (connections, statements):
        report = run_campaign(UNITS, cache_dir=cache_dir,
                              results_db=db_path)

    assert report.cache_hits == len(UNITS)
    assert connections == [db_path]
    assert [sql for sql, _ in statements if sql == "COMMIT"] == ["COMMIT"]
    assert _hits_and_rows(db_path) == (len(UNITS), len(UNITS))


def test_cold_campaign_is_one_transaction_too(tmp_path, monkeypatch):
    db_path = str(tmp_path / "i.db")
    with traced_sqlite(monkeypatch) as (connections, statements):
        run_campaign(UNITS[:3], cache_dir=str(tmp_path / "cache"),
                     results_db=db_path)
    assert connections == [db_path]
    assert [sql for sql, _ in statements if sql == "COMMIT"] == ["COMMIT"]
    assert _hits_and_rows(db_path) == (0, 3)


def test_git_sha_is_resolved_once_per_process(tmp_path, monkeypatch):
    from repro.results import provenance

    calls: list = []
    real_run = subprocess.run

    def counting_run(argv, *args, **kwargs):
        calls.append(argv)
        return real_run(argv, *args, **kwargs)

    monkeypatch.delenv(provenance.GIT_SHA_ENV, raising=False)
    monkeypatch.setattr(subprocess, "run", counting_run)
    provenance._rev_parse_head.cache_clear()
    for _ in range(2):
        run_campaign(UNITS[:2], cache_dir=str(tmp_path / "cache"),
                     results_db=str(tmp_path / "i.db"))
    assert len(calls) <= 1
    # The environment still wins, and is read on every call.
    monkeypatch.setenv(provenance.GIT_SHA_ENV, "cafe02")
    assert provenance.current_git_sha() == "cafe02"


def test_hit_outcomes_do_not_read_their_sidecar(tmp_path, monkeypatch):
    """Only the backfill of a row the index never saw needs it."""
    cache_dir, db_path = str(tmp_path / "cache"), str(tmp_path / "i.db")
    cold = run_campaign(UNITS[:3], cache_dir=cache_dir, results_db=db_path)
    warm = run_campaign(UNITS[:3], cache_dir=cache_dir, results_db=db_path)
    reads: list = []
    monkeypatch.setattr(ResultCache, "meta",
                        lambda self, key: reads.append(key) or {})
    record_campaign_outcomes(db_path, warm.outcomes,
                             ResultCache(cache_dir), git_sha="s")
    assert reads == []
    record_campaign_outcomes(str(tmp_path / "fresh.db"), warm.outcomes,
                             ResultCache(cache_dir), git_sha="s")
    assert sorted(reads) == sorted(o.key for o in cold.outcomes)


class TestRecorder:
    @pytest.fixture
    def units_and_cache(self, tmp_path):
        units = enumerate_units(UNITS[:3])
        cache = ResultCache(str(tmp_path / "cache"))
        for unit in units:
            cache.put(unit.key, {"ok": unit.label},
                      meta=unit_meta(unit, 0.001, "serve"))
        return units, cache

    def test_run_row_is_committed_when_execution_returns(
            self, tmp_path, units_and_cache):
        units, cache = units_and_cache
        db_path = str(tmp_path / "i.db")
        recorder = ResultsRecorder(db_path, cache, git_sha="g")
        try:
            recorder.execution(units[0], 0.25)
            # Another connection, while the recorder is still open.
            with ResultsDB(db_path) as reader:
                assert reader.query(
                    "SELECT source, status, git_sha FROM runs")[1] \
                    == [("serve", "ran", "g")]
                assert metrics_of(reader, units[0].key) \
                    == {"duration_seconds": 0.25}
            assert recorder.pending == 0
        finally:
            recorder.close()

    def test_hits_queued_during_a_commit_share_the_next_one(
            self, tmp_path, units_and_cache, monkeypatch):
        """Group commit: 50 hits that arrive while the writer waits for
        the database are at most two batches, each one ``hits + n``."""
        units, cache = units_and_cache
        db_path = str(tmp_path / "i.db")
        with ResultsDB(db_path) as other, \
                traced_sqlite(monkeypatch) as (connections, statements):
            recorder = ResultsRecorder(db_path, cache)
            recorder.execution(units[0], 0.01)
            del statements[:]
            other._conn.execute("BEGIN IMMEDIATE")  # a foreign writer
            for _ in range(50):
                recorder.hit(units[0])
            assert recorder.pending == 50
            other._conn.rollback()
            recorder.close()
        assert connections == [db_path]
        sql = [text for text, _ in statements]
        assert 1 <= sql.count("COMMIT") <= 2
        assert 1 <= sum(t.startswith("UPDATE runs SET hits")
                        for t in sql) <= 2
        assert _hits_and_rows(db_path) == (50, 1)
        assert recorder.errors == 0 and recorder.pending == 0

    def test_a_writer_error_is_counted_kept_and_raised(
            self, tmp_path, units_and_cache):
        units, cache = units_and_cache
        lost: list = []
        # A directory is not a database: every batch fails to open it.
        recorder = ResultsRecorder(str(tmp_path), cache,
                                   on_error=lost.append)
        try:
            with pytest.raises(sqlite3.OperationalError):
                recorder.execution(units[0], 0.01)
            recorder.hit(units[1])
        finally:
            recorder.close()
        assert recorder.errors == 2 == sum(lost)
        assert isinstance(recorder.first_error, sqlite3.OperationalError)

    def test_a_failed_batch_does_not_stop_the_writer(
            self, tmp_path, units_and_cache, monkeypatch):
        units, cache = units_and_cache
        db_path = str(tmp_path / "i.db")
        recorder = ResultsRecorder(db_path, cache)
        try:
            real_meta = ResultCache.meta
            monkeypatch.setattr(
                ResultCache, "meta",
                lambda self, key: (_ for _ in ()).throw(OSError("disk")))
            with pytest.raises(OSError, match="disk"):
                recorder.execution(units[0], 0.01)
            monkeypatch.setattr(ResultCache, "meta", real_meta)
            recorder.execution(units[1], 0.01)
        finally:
            recorder.close()
        assert recorder.errors == 1
        # The failed batch left nothing behind; the next one landed.
        with ResultsDB(db_path) as db:
            assert run_keys(db) == {units[1].key}

    def test_closed_recorder_refuses_instead_of_hanging(
            self, tmp_path, units_and_cache):
        units, cache = units_and_cache
        recorder = ResultsRecorder(str(tmp_path / "i.db"), cache)
        recorder.hit(units[0])
        recorder.close()
        recorder.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            recorder.hit(units[0])
        with pytest.raises(RuntimeError, match="closed"):
            recorder.execution(units[0], 0.01)
        assert _hits_and_rows(str(tmp_path / "i.db")) == (1, 1)

    def test_concurrent_producers_lose_no_hit(
            self, tmp_path, units_and_cache):
        """Eight producers (more than cores), a 10 µs switch interval:
        a lost update anywhere between ``hit`` and the commit shows as a
        short ``SUM(hits)``."""
        units, cache = units_and_cache
        db_path = str(tmp_path / "i.db")
        recorder = ResultsRecorder(db_path, cache)
        producers, per_producer = 8, 150

        def produce(n: int) -> None:
            recorder.execution(units[n % len(units)], 0.001)
            for i in range(per_producer):
                recorder.hit(units[(n + i) % len(units)])

        threads = [threading.Thread(target=produce, args=(n,))
                   for n in range(producers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            recorder.close()
        assert recorder.errors == 0
        assert _hits_and_rows(db_path) \
            == (producers * per_producer, len(units))
