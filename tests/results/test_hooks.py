"""Live recording hooks: campaign and gateway runs land in the index.

The campaign end-to-end tests drive the serial scheduler with synthetic
sleep units (cheap, deterministic) — the same acceptance comparison the
CI smoke job makes: index counts must equal the CampaignReport's.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import run_campaign
from repro.campaign.cache import ResultCache, canonical_params
from repro.campaign.report import UnitOutcome
from repro.campaign.units import enumerate_units
from repro.results.db import ResultsDB
from repro.results.hooks import ResultsRecorder, record_campaign_outcomes
from repro.results.queries import experiment_rollup
from .queries import metrics_of

FAST = ["sleep:0.01#a", "sleep:0.01#b", "sleep:0.01#c"]


class TestCampaignRecording:
    def test_cold_run_matches_report(self, tmp_path):
        db_path = str(tmp_path / "i.db")
        report = run_campaign(FAST, cache_dir=str(tmp_path / "cache"),
                              results_db=db_path)
        with ResultsDB(db_path) as db:
            assert len(db) == report.units_total
            cols, rows = db.query(
                "SELECT status, hits, git_sha FROM runs")
        assert all(status == "ran" for status, _, _ in rows)
        assert sum(hits for _, hits, _ in rows) == report.cache_hits == 0
        roll = experiment_rollup(db_path)
        assert roll["sleep"]["runs"] == report.units_total
        assert roll["sleep"]["failed"] == report.failures == 0

    def test_warm_rerun_adds_no_rows_only_hits(self, tmp_path):
        db_path = str(tmp_path / "i.db")
        run_campaign(FAST, cache_dir=str(tmp_path / "cache"),
                     results_db=db_path)
        report = run_campaign(FAST, cache_dir=str(tmp_path / "cache"),
                              results_db=db_path)
        assert report.cache_hits == len(FAST)
        with ResultsDB(db_path) as db:
            assert len(db) == len(FAST)
        roll = experiment_rollup(db_path)
        assert roll["sleep"]["cache_hits"] == len(FAST)

    def test_hit_against_unindexed_cache_backfills(self, tmp_path):
        """Cache warmed before the index existed: the first recorded
        hit creates the row from the sidecar, then counts itself."""
        run_campaign(FAST[:1], cache_dir=str(tmp_path / "cache"))
        db_path = str(tmp_path / "i.db")
        run_campaign(FAST[:1], cache_dir=str(tmp_path / "cache"),
                     results_db=db_path)
        roll = experiment_rollup(db_path)
        assert roll["sleep"]["runs"] == 1
        assert roll["sleep"]["cache_hits"] == 1

    def test_failed_then_ran_upgrades(self, tmp_path):
        db_path = str(tmp_path / "i.db")
        unit = enumerate_units(FAST[:1])[0]
        failed = UnitOutcome(ident=unit.ident, label=unit.label,
                             key=unit.key, status="failed", worker=0,
                             seconds=0.1, compute_seconds=0.1, error="boom")
        record_campaign_outcomes(db_path, [failed], git_sha="s")
        with ResultsDB(db_path) as db:
            assert db.query("SELECT status, point FROM runs")[1] \
                == [("failed", "0.01#a")]
        ran = UnitOutcome(ident=unit.ident, label=unit.label, key=unit.key,
                          status="ran", worker=0, seconds=0.2,
                          compute_seconds=0.2)
        # No cache: the row comes from the unit_meta it would have stored.
        record_campaign_outcomes(db_path, [ran], git_sha="s", units=[unit])
        with ResultsDB(db_path) as db:
            assert db.query("SELECT status FROM runs")[1] == [("ran",)]
            assert len(db) == 1

    def test_campaign_without_cache_records_its_unit_meta(self, tmp_path):
        db_path = str(tmp_path / "i.db")
        unit = enumerate_units(FAST[:1])[0]
        run_campaign(FAST[:1], results_db=db_path)
        with ResultsDB(db_path) as db:
            (params, host), = db.query("SELECT params_json, host FROM runs")[1]
            assert db.query("SELECT COUNT(*) FROM artifacts")[1] == [(0,)]
        assert json.loads(params) == canonical_params(unit.point.as_dict())
        assert host.endswith(f":{os.getpid()}")

    def test_recording_is_opt_in(self, tmp_path):
        report = run_campaign(FAST, cache_dir=str(tmp_path / "cache"))
        assert report.failures == 0
        assert not (tmp_path / ".repro-results.db").exists()


class TestServeRecording:
    @pytest.fixture
    def unit_and_cache(self, tmp_path):
        unit = enumerate_units(["sleep:0.01#s"])[0]
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(unit.key, {"ok": 1}, meta={
            "ident": unit.ident, "point": unit.point.label,
            "worker": "serve", "duration": 0.01,
        })
        return unit, cache

    def test_execution_then_hit(self, tmp_path, unit_and_cache):
        unit, cache = unit_and_cache
        db_path = str(tmp_path / "i.db")
        recorder = ResultsRecorder(db_path, cache, git_sha="g1")
        recorder.execution(unit, 0.01)
        recorder.hit(unit)
        recorder.close()
        assert recorder.errors == 0
        with ResultsDB(db_path) as db:
            cols, rows = db.query(
                "SELECT source, status, hits, git_sha FROM runs")
            assert rows == [("serve", "ran", 1, "g1")]
            assert metrics_of(db, unit.key)["duration_seconds"] == 0.01

    def test_hit_without_prior_row_backfills_from_sidecar(
            self, tmp_path, unit_and_cache):
        unit, cache = unit_and_cache
        db_path = str(tmp_path / "i.db")
        recorder = ResultsRecorder(db_path, cache)
        recorder.hit(unit)
        recorder.close()
        assert recorder.errors == 0
        with ResultsDB(db_path) as db:
            cols, rows = db.query("SELECT source, hits FROM runs")
            # Sidecar says worker == "serve", so the backfilled row
            # keeps its true origin.
            assert rows == [("serve", 1)]
