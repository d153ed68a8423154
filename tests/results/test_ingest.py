"""Ingestor: cache walks, idempotently.

The fixtures build a real ResultCache in tmp_path; nothing here
unpickles payloads or shells out, so it all stays tier 1.
"""

from __future__ import annotations

import json
import os

from repro.campaign.cache import ResultCache, cache_key
from repro.results.db import ResultsDB
from repro.results.ingest import Ingestor


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
