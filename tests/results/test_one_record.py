"""One unit record: live rows are the rows ``results ingest`` rebuilds.

Every writer of a cached unit's index row — the campaign hook, the
gateway recorder and ``Ingestor.ingest_cache_dir`` — reads the unit's
sidecar through one function, so a live index and the index ingested
from the same cache directory agree in every column but the ones that
describe the recording itself (``id``, ``ingested_at``, ``hits``,
``git_sha``).
"""

from __future__ import annotations

import asyncio
import sqlite3

from repro.campaign import run_campaign
from repro.results.db import ResultsDB
from repro.results.ingest import Ingestor
from repro.serve import Gateway, ServeConfig

#: Columns that describe the recording, not the unit.
RECORDING = ("id", "ingested_at", "hits", "git_sha")
#: Cheap units, one of them a real (numpy-laden) figure.
UNITS = ["fig4_6", "sleep:0.001#r0", "sleep:0.001#r1"]


def _index(path: str):
    """``(runs, metrics, artifacts)`` rows of an index, keyed by run_key
    instead of the row id."""
    conn = sqlite3.connect(path)
    try:
        cols = [c[1] for c in conn.execute("PRAGMA table_info(runs)")
                if c[1] not in RECORDING]
        runs = sorted(conn.execute(f"SELECT {', '.join(cols)} FROM runs"))
        metrics = sorted(conn.execute(
            "SELECT r.run_key, m.name, m.value, m.unit FROM metrics m "
            "JOIN runs r ON r.id = m.run_id"))
        artifacts = sorted(conn.execute(
            "SELECT r.run_key, a.path, a.sha256, a.bytes FROM artifacts a "
            "JOIN runs r ON r.id = a.run_id"))
    finally:
        conn.close()
    return runs, metrics, artifacts


def _ingested(cache_dir: str, path: str):
    with ResultsDB(path) as db:
        stats = Ingestor(db, git_sha="").ingest_cache_dir(cache_dir)
    assert stats.errors == [] and stats.added == stats.scanned > 0
    return _index(path)


def _hosts(path: str):
    with ResultsDB(path) as db:
        return [h for (h,) in db.query("SELECT host FROM runs")[1]]


def _serve(cache_dir: str, results_db=None) -> None:
    async def cold():
        config = ServeConfig(cache_dir=cache_dir, results_db=results_db)
        async with Gateway(config) as gateway:
            response = await gateway.call_campaign(UNITS)
        assert [u["served"] for u in response.doc["units"]] \
            == ["executed"] * len(UNITS)

    asyncio.run(cold())


def test_forked_campaign_rows_equal_ingested_rows(tmp_path):
    cache_dir, db_path = str(tmp_path / "cache"), str(tmp_path / "live.db")
    report = run_campaign(sweep="mini", workers=2, cache_dir=cache_dir,
                          results_db=db_path)
    assert report.failures == 0
    live = _index(db_path)
    assert len(live[0]) == report.units_total
    assert live == _ingested(cache_dir, str(tmp_path / "ingested.db"))
    # Each row names the forked worker that executed it.
    assert all(host and ":" in host for host in _hosts(db_path))


def test_gateway_rows_equal_ingested_rows(tmp_path):
    cache_dir, db_path = str(tmp_path / "cache"), str(tmp_path / "live.db")
    _serve(cache_dir, db_path)
    live = _index(db_path)
    assert {row[1] for row in live[0]} == {"serve"}  # runs.source
    assert live == _ingested(cache_dir, str(tmp_path / "ingested.db"))
    assert all(host and ":" in host for host in _hosts(db_path))


def test_campaign_backfills_gateway_entries_as_serve(tmp_path):
    """A campaign over a cache the gateway wrote (without an index)
    indexes its hits as the gateway's rows, as ``results ingest`` does."""
    cache_dir, db_path = str(tmp_path / "cache"), str(tmp_path / "live.db")
    _serve(cache_dir)
    report = run_campaign(UNITS, cache_dir=cache_dir, results_db=db_path)
    assert report.cache_hits == len(UNITS)
    with ResultsDB(db_path) as db:
        assert db.query("SELECT source, hits FROM runs")[1] \
            == [("serve", 1)] * len(UNITS)
    assert _index(db_path) == _ingested(cache_dir,
                                        str(tmp_path / "ingested.db"))
