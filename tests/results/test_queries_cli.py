"""Canned reports and the ``results`` CLI front end.

The CLI is exercised through :func:`repro.results.cli.main` with
explicit argv — no subprocesses, so these stay tier 1.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import run_campaign
from repro.results.cli import main as results_main
from repro.results.db import ResultsDB
from repro.results.queries import (
    experiment_rollup,
    run_query,
    runs_report,
)


@pytest.fixture
def seeded_db(tmp_path):
    path = str(tmp_path / "i.db")
    with ResultsDB(path) as db:
        db.record_run(run_key="a", source="campaign", ident="sleep",
                      point="0.01#a", cache_key="a", git_sha="s1",
                      created_at="2026-08-01T00:00:00+00:00",
                      metrics={"duration_seconds": (0.5, "s")})
        db.record_run(run_key="b", source="campaign", ident="sleep",
                      point="0.01#b", cache_key="b", status="failed",
                      metrics={"duration_seconds": (1.5, "s")})
        db.record_run(run_key="c", source="serve", ident="table8",
                      point="4x4", cache_key="c",
                      metrics={"duration_seconds": (2.0, "s")})
        db.record_hit("a")
        db.record_hit("a")
    return path


class TestCannedReports:
    def test_rollup_counts_and_extremes(self, seeded_db):
        roll = experiment_rollup(seeded_db)
        assert roll["sleep"]["runs"] == 2
        assert roll["sleep"]["failed"] == 1
        assert roll["sleep"]["cache_hits"] == 2
        assert roll["sleep"]["best_seconds"] == 0.5
        assert roll["sleep"]["worst_seconds"] == 1.5
        assert roll["table8"]["runs"] == 1

    def test_runs_report_filters(self, seeded_db):
        tables, doc = runs_report(seeded_db, ident="sleep")
        assert len(doc["runs"]) == 2
        assert {r["ident"] for r in doc["runs"]} == {"sleep"}
        tables, doc = runs_report(seeded_db, source="serve")
        assert [r["ident"] for r in doc["runs"]] == ["table8"]
        rendered = tables[0].render()
        assert "table8" in rendered and "4x4" in rendered

    def test_run_query_binds_params(self, seeded_db):
        cols, rows = run_query(
            seeded_db,
            "SELECT point FROM runs WHERE ident = ? ORDER BY point",
            ("sleep",),
        )
        assert rows == [("0.01#a",), ("0.01#b",)]


class TestCli:
    def test_missing_db_exits_2_with_hint(self, tmp_path, capsys):
        rc = results_main(["runs", "--db", str(tmp_path / "none.db")])
        assert rc == 2
        assert "--results-db" in capsys.readouterr().err

    def test_ingest_without_sources_exits_2(self, tmp_path, capsys):
        rc = results_main(["ingest", "--db", str(tmp_path / "i.db")])
        assert rc == 2
        assert "nothing to ingest" in capsys.readouterr().err

    def test_ingest_then_runs_and_query(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        run_campaign(["sleep:0.001#a", "sleep:0.001#b"], cache_dir=cache)
        db = str(tmp_path / "i.db")
        rc = results_main(["ingest", "--db", db, "--cache-dir", cache,
                           "--git-sha", "t1", "--json"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["runs_indexed"] == 2
        assert stats["sources"][0]["added"] == stats["runs_indexed"]

        rc = results_main(["runs", "--db", db, "--source", "campaign"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.001#a" in out and "0.001#b" in out

        rc = results_main([
            "query", "SELECT COUNT(*) AS n FROM runs WHERE git_sha = ?",
            "--db", db, "--param", "t1", "--json",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)[0]["n"] \
            == stats["runs_indexed"]

    def test_query_cannot_write(self, tmp_path, capsys):
        db = str(tmp_path / "i.db")
        with ResultsDB(db) as handle:
            handle.record_run(run_key="k", source="campaign", ident="x")
        rc = results_main(["query", "DELETE FROM runs", "--db", db])
        assert rc == 2
        assert "readonly" in capsys.readouterr().err
        with ResultsDB(db) as handle:
            assert len(handle) == 1

    def test_unknown_subcommand_exits_2(self, capsys):
        assert results_main(["frobnicate"]) == 2
