"""Ingestor: cache walks and bench round-trips — idempotently.

The fixtures build a real ResultCache and real trajectory files in
tmp_path; nothing here unpickles payloads or shells out, so it all
stays tier 1.
"""

from __future__ import annotations

import json
import os

from repro.campaign.cache import ResultCache, cache_key
from repro.results.db import ResultsDB
from repro.results.ingest import (
    BENCH_IDENT,
    Ingestor,
    bench_entry_key,
)
from repro.results.queries import trajectory_from_db
from repro.verify import bench_record

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _seed_cache(tmp_path, n=3):
    cache = ResultCache(str(tmp_path / "cache"))
    keys = []
    for i in range(n):
        params = {"seconds": 0.01, "tag": chr(ord("a") + i)}
        key = cache_key("sleep", params, "v1")
        cache.put(key, {"i": i}, meta={
            "ident": "sleep", "point": f"0.01#{chr(ord('a') + i)}",
            "params": params, "duration": 0.5 + i, "worker": 0,
        })
        keys.append(key)
    return cache, keys


def _bench_entry(ts="2026-08-08T00:00:00+00:00", label="t"):
    return {
        "schema_version": bench_record.SCHEMA_VERSION,
        "timestamp": ts,
        "label": label,
        "machine": "test",
        "config": {"grid": "tiny"},
        "metrics": {"filter_speedup_fft_vs_direct": 3.0,
                    "total_speedup": 1.4},
        "tracked_ratios": ["filter_speedup_fft_vs_direct",
                           "total_speedup"],
    }


class TestCacheIngest:
    def test_cold_ingest_adds_every_entry(self, tmp_path):
        cache, keys = _seed_cache(tmp_path)
        with ResultsDB(str(tmp_path / "i.db")) as db:
            stats = Ingestor(db, git_sha="abc123").ingest_cache_dir(
                str(tmp_path / "cache"))
            assert (stats.scanned, stats.added, stats.skipped) == (3, 3, 0)
            assert stats.errors == []
            assert db.run_keys() == set(keys)
            # Provenance, duration metric and payload artifact all land.
            cols, rows = db.query(
                "SELECT git_sha, source, status FROM runs")
            assert set(rows) == {("abc123", "campaign", "ran")}
            assert db.metrics_for(keys[1]) == {"duration_seconds": 1.5}
            cols, rows = db.query(
                "SELECT sha256, bytes FROM artifacts")
            for sha, nbytes in rows:
                assert len(sha) == 64 and nbytes > 0

    def test_reingest_adds_zero_rows(self, tmp_path):
        cache, keys = _seed_cache(tmp_path)
        with ResultsDB(str(tmp_path / "i.db")) as db:
            ing = Ingestor(db, git_sha="")
            ing.ingest_cache_dir(str(tmp_path / "cache"))
            stats = ing.ingest_cache_dir(str(tmp_path / "cache"))
            assert (stats.added, stats.skipped) == (0, 3)
            assert len(db) == 3

    def test_legacy_sidecar_without_provenance(self, tmp_path):
        """Entries written before put-time stamping still ingest: bytes
        come from the payload file, the hash from re-hashing it."""
        cache, keys = _seed_cache(tmp_path, n=1)
        pkl, sidecar = cache._paths(keys[0])
        meta = json.load(open(sidecar))
        for field in ("created_at", "bytes", "result_sha256"):
            meta.pop(field, None)
        with open(sidecar, "w") as fh:
            json.dump(meta, fh)
        with ResultsDB(str(tmp_path / "i.db")) as db:
            stats = Ingestor(db, git_sha="").ingest_cache_dir(
                str(tmp_path / "cache"))
            assert stats.added == 1 and stats.errors == []
            cols, rows = db.query(
                "SELECT sha256, bytes FROM artifacts")
            assert len(rows[0][0]) == 64
            assert rows[0][1] == os.path.getsize(pkl)

    def test_serve_written_entries_keep_their_source(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache_key("sleep", {"seconds": 0.01, "tag": "s"}, "v1")
        cache.put(key, 1, meta={"ident": "sleep", "point": "0.01#s",
                                "worker": "serve"})
        with ResultsDB(str(tmp_path / "i.db")) as db:
            Ingestor(db, git_sha="").ingest_cache_dir(
                str(tmp_path / "cache"))
            cols, rows = db.query("SELECT source FROM runs")
            assert rows == [("serve",)]

    def test_missing_dir_is_an_error_not_a_crash(self, tmp_path):
        with ResultsDB(str(tmp_path / "i.db")) as db:
            stats = Ingestor(db, git_sha="").ingest_cache_dir(
                str(tmp_path / "nope"))
            assert stats.errors and stats.added == 0


class TestBenchIngest:
    def test_entry_key_is_content_addressed(self):
        e1, e2 = _bench_entry(), _bench_entry()
        assert bench_entry_key(e1) == bench_entry_key(e2)
        e2["metrics"]["total_speedup"] = 9.9
        assert bench_entry_key(e1) != bench_entry_key(e2)
        assert bench_entry_key(e1).startswith("bench:")

    def test_repo_trajectory_round_trips_losslessly(self, tmp_path):
        """Acceptance: every gated metric of every BENCH_agcm.json entry
        survives ingest → trajectory_from_db verbatim."""
        path = os.path.join(_REPO_ROOT, "BENCH_agcm.json")
        traj = bench_record.load_trajectory(path)
        assert traj["entries"], "repo trajectory unexpectedly empty"
        db_path = str(tmp_path / "i.db")
        with ResultsDB(db_path) as db:
            stats = Ingestor(db, git_sha="").ingest_bench_file(path)
            assert stats.added == len(traj["entries"])
            assert stats.errors == []
        rebuilt = trajectory_from_db(db_path)
        assert rebuilt["schema_version"] == traj["schema_version"]
        assert rebuilt["benchmark"] == traj["benchmark"]
        assert len(rebuilt["entries"]) == len(traj["entries"])
        for got, want in zip(rebuilt["entries"], traj["entries"]):
            assert got["timestamp"] == want["timestamp"]
            assert got["metrics"] == want["metrics"]
            assert got["tracked_ratios"] == want.get("tracked_ratios", [])
            assert got["config"] == want.get("config", {})
            assert got["label"] == want.get("label", "")

    def test_reingest_bench_is_idempotent(self, tmp_path):
        path = os.path.join(_REPO_ROOT, "BENCH_agcm.json")
        with ResultsDB(str(tmp_path / "i.db")) as db:
            ing = Ingestor(db, git_sha="")
            first = ing.ingest_bench_file(path)
            second = ing.ingest_bench_file(path)
            assert second.added == 0
            assert second.skipped == first.added
            assert len(db) == first.added

    def test_bench_rows_never_pin_cache_entries(self, tmp_path):
        with ResultsDB(str(tmp_path / "i.db")) as db:
            Ingestor(db, git_sha="").ingest_bench_entry(_bench_entry())
            assert db.cache_keys() == set()
            cols, rows = db.query("SELECT ident, status FROM runs")
            assert rows == [(BENCH_IDENT, "recorded")]

    def test_invalid_trajectory_reports_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema_version": bench_record.SCHEMA_VERSION,
            "benchmark": "x",
            "entries": [{"timestamp": "t"}],  # missing metrics
        }))
        with ResultsDB(str(tmp_path / "i.db")) as db:
            stats = Ingestor(db, git_sha="").ingest_bench_file(str(bad))
            assert stats.errors and stats.added == 0


class TestProvenance:
    def test_explicit_sha_wins(self, tmp_path):
        with ResultsDB(str(tmp_path / "i.db")) as db:
            ing = Ingestor(db, git_sha="deadbeef")
            assert ing.git_sha == "deadbeef"

    def test_empty_string_means_unstamped(self, tmp_path):
        with ResultsDB(str(tmp_path / "i.db")) as db:
            assert Ingestor(db, git_sha="").git_sha is None

    def test_env_var_override(self, tmp_path, monkeypatch):
        from repro.results.provenance import current_git_sha

        monkeypatch.setenv("REPRO_GIT_SHA", "cafe01")
        assert current_git_sha() == "cafe01"
