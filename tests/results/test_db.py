"""ResultsDB: schema, idempotent inserts, hit/ran upgrades, read-only.

Everything here is pure sqlite on tmp_path — fast, tier 1.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.results.db import SOURCES, ResultsDB, open_readonly
from .queries import metrics_of, run_keys


def _db(tmp_path) -> str:
    return str(tmp_path / "index.db")


class TestRecordRun:
    def test_new_run_returns_true(self, tmp_path):
        with ResultsDB(_db(tmp_path)) as db:
            assert db.record_run(run_key="k1", source="campaign",
                                 ident="table8") is True
            assert len(db) == 1

    def test_duplicate_key_is_ignored(self, tmp_path):
        """Idempotency: re-recording the same key adds nothing and
        leaves the original row untouched."""
        with ResultsDB(_db(tmp_path)) as db:
            db.record_run(run_key="k1", source="campaign", ident="table8",
                          point="4x4", metrics={"duration_seconds": 1.5})
            assert db.record_run(run_key="k1", source="serve",
                                 ident="other") is False
            assert len(db) == 1
            cols, rows = db.query(
                "SELECT source, ident FROM runs WHERE run_key = 'k1'"
            )
            assert rows == [("campaign", "table8")]
            assert metrics_of(db, "k1") == {"duration_seconds": 1.5}

    def test_unknown_source_rejected(self, tmp_path):
        with ResultsDB(_db(tmp_path)) as db:
            with pytest.raises(ValueError, match="unknown source"):
                db.record_run(run_key="k", source="nonsense", ident="x")

    def test_sources_cover_all_ingest_paths(self):
        assert set(SOURCES) == {"campaign", "serve", "bench", "api"}

    def test_metric_units_and_plain_values(self, tmp_path):
        with ResultsDB(_db(tmp_path)) as db:
            db.record_run(
                run_key="k", source="bench", ident="bench:agcm",
                metrics={"ratio": 1.25, "duration_seconds": (2.0, "s")},
            )
            cols, rows = db.query(
                "SELECT name, value, unit FROM metrics ORDER BY name"
            )
            assert rows == [("duration_seconds", 2.0, "s"),
                            ("ratio", 1.25, "")]

    def test_artifacts_recorded(self, tmp_path):
        with ResultsDB(_db(tmp_path)) as db:
            db.record_run(
                run_key="k", source="campaign", ident="x",
                artifacts=[("/tmp/x.pkl", "ab" * 32, 123)],
            )
            cols, rows = db.query(
                "SELECT path, sha256, bytes FROM artifacts"
            )
            assert rows == [("/tmp/x.pkl", "ab" * 32, 123)]

    def test_params_json_is_canonical(self, tmp_path):
        """Params serialize sorted/compact so equal dicts hash equal."""
        with ResultsDB(_db(tmp_path)) as db:
            db.record_run(run_key="k", source="campaign", ident="x",
                          params={"b": 2, "a": 1})
            cols, rows = db.query("SELECT params_json FROM runs")
            assert rows[0][0] == '{"a":1,"b":2}'
            assert json.loads(rows[0][0]) == {"a": 1, "b": 2}


class TestHitAndUpgrade:
    def test_record_hit_bumps_counter(self, tmp_path):
        with ResultsDB(_db(tmp_path)) as db:
            db.record_run(run_key="k", source="campaign", ident="x")
            assert db.record_hit("k") is True
            assert db.record_hit("k") is True
            cols, rows = db.query("SELECT hits FROM runs")
            assert rows == [(2,)]

    def test_record_hit_missing_key_is_false(self, tmp_path):
        with ResultsDB(_db(tmp_path)) as db:
            assert db.record_hit("nope") is False

    def test_mark_ran_upgrades_failed(self, tmp_path):
        """A unit that failed, then succeeded on retry, ends as ran."""
        with ResultsDB(_db(tmp_path)) as db:
            db.record_run(run_key="k", source="campaign", ident="x",
                          status="failed")
            db.mark_ran("k")
            cols, rows = db.query("SELECT status FROM runs")
            assert rows == [("ran",)]

    def test_mark_ran_leaves_other_statuses(self, tmp_path):
        with ResultsDB(_db(tmp_path)) as db:
            db.record_run(run_key="k", source="bench", ident="x",
                          status="recorded")
            db.mark_ran("k")
            cols, rows = db.query("SELECT status FROM runs")
            assert rows == [("recorded",)]


def _commits(db: ResultsDB) -> list:
    """Every ``COMMIT`` the handle issues from now on lands in the list."""
    seen: list = []
    db._conn.set_trace_callback(
        lambda sql: seen.append(sql) if sql == "COMMIT" else None)
    return seen


class TestTransaction:
    def test_one_commit_for_the_whole_block(self, tmp_path):
        with ResultsDB(_db(tmp_path)) as db:
            commits = _commits(db)
            with db.transaction():
                for i in range(5):
                    db.record_run(run_key=f"k{i}", source="serve",
                                  ident="x", metrics={"m": 1.0})
                    db.record_hit(f"k{i}", 3)
                    db.mark_ran(f"k{i}")
                assert commits == []
            assert commits == ["COMMIT"]
            assert db.query("SELECT SUM(hits), COUNT(*) FROM runs")[1] \
                == [(15, 5)]

    def test_exception_rolls_the_whole_batch_back(self, tmp_path):
        path = _db(tmp_path)
        with ResultsDB(path) as db:
            db.record_run(run_key="old", source="serve", ident="x")
            with pytest.raises(ValueError, match="unknown source"):
                with db.transaction():
                    db.record_run(run_key="new", source="serve", ident="x")
                    db.record_hit("old", 7)
                    db.record_run(run_key="bad", source="nonsense",
                                  ident="x")
            # No partial batch, and the handle is usable again.
            assert db.query("SELECT run_key, hits FROM runs")[1] \
                == [("old", 0)]
            assert db.record_hit("old") is True
        with ResultsDB(path) as db:
            assert db.query("SELECT run_key, hits FROM runs")[1] \
                == [("old", 1)]

    def test_nesting_is_an_error(self, tmp_path):
        with ResultsDB(_db(tmp_path)) as db:
            with db.transaction():
                db.record_run(run_key="k", source="serve", ident="x")
                with pytest.raises(RuntimeError, match="does not nest"):
                    with db.transaction():
                        pass  # pragma: no cover - never entered
            # The refused inner block did not end the outer one.
            assert len(db) == 1

    def test_per_call_commit_outside_is_unchanged(self, tmp_path):
        """What ``bench/probes.py`` times: each call is its own commit,
        before a transaction block and after one."""
        with ResultsDB(_db(tmp_path)) as db:
            commits = _commits(db)
            db.record_run(run_key="a", source="bench", ident="x")
            db.record_hit("a")
            assert len(commits) == 2
            with db.transaction():
                db.record_hit("a")
            assert len(commits) == 3
            db.record_hit("a")
            db.mark_ran("a")
            assert len(commits) == 5

    def test_another_connection_sees_nothing_before_the_commit(
            self, tmp_path):
        path = _db(tmp_path)
        with ResultsDB(path) as db, ResultsDB(path) as reader:
            with db.transaction():
                db.record_run(run_key="k", source="serve", ident="x")
                assert len(reader) == 0
            assert len(reader) == 1


class TestKeySets:
    def test_run_and_cache_keys(self, tmp_path):
        with ResultsDB(_db(tmp_path)) as db:
            db.record_run(run_key="a", source="campaign", ident="x",
                          cache_key="a")
            db.record_run(run_key="bench:b", source="bench", ident="y")
            assert run_keys(db) == {"a", "bench:b"}
            # bench rows have no cache entry, so they never pin one.
            assert db.cache_keys() == {"a"}


class TestReadOnly:
    def test_writes_blocked(self, tmp_path):
        path = _db(tmp_path)
        with ResultsDB(path) as db:
            db.record_run(run_key="k", source="campaign", ident="x")
        conn = open_readonly(path)
        try:
            with pytest.raises(sqlite3.OperationalError):
                conn.execute("DELETE FROM runs")
            with pytest.raises(sqlite3.OperationalError):
                conn.execute("INSERT INTO runs (run_key, source, ident) "
                             "VALUES ('z', 'campaign', 'x')")
            # Reads still work on the same connection.
            assert conn.execute("SELECT COUNT(*) FROM runs").fetchone() \
                == (1,)
        finally:
            conn.close()

    def test_reopen_preserves_rows(self, tmp_path):
        path = _db(tmp_path)
        with ResultsDB(path) as db:
            db.record_run(run_key="k", source="campaign", ident="x")
        with ResultsDB(path) as db:
            assert len(db) == 1
            assert db.record_run(run_key="k", source="campaign",
                                 ident="x") is False

    def test_foreign_keys_cascade(self, tmp_path):
        with ResultsDB(_db(tmp_path)) as db:
            db.record_run(run_key="k", source="campaign", ident="x",
                          metrics={"m": 1.0},
                          artifacts=[("p", None, None)])
            db._conn.execute("DELETE FROM runs")
            db._conn.commit()
            assert db.query("SELECT * FROM metrics")[1] == []
            assert db.query("SELECT * FROM artifacts")[1] == []
