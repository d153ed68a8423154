"""The gateway's durability contract for the results index.

* a unit's cache entry is on disk and its run row is committed before
  its ``executed`` reply (``test_run_rows_exist_when_executed_replies``);
* a hit counter is write-behind: a clean stop — ``Gateway.stop()``,
  ``SIGTERM``, Ctrl-C — loses none (``test_clean_stop_loses_no_hit``,
  and tier 1's ``tests/results/test_write_path.py``);
* ``kill -9`` loses at most the hits still queued, never a run row or a
  cache entry, and the file passes ``PRAGMA integrity_check``
  (``test_sigkill_loses_only_queued_hit_counters``);
* a writer error is never silent and never a failed hit
  (``test_unwritable_index_is_reported_and_hits_still_answer``).

The subprocess tests drive ``python -m repro serve`` over TCP and are
part of the ``serve`` marker suite; the rest is tier 1.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.results.db import ResultsDB, open_readonly
from repro.serve import Gateway, ServeConfig

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
COLD = ["sleep:0.01#d0", "sleep:0.01#d1", "sleep:0.01#d2"]
HITS = 60


def _status_of(gateway: Gateway) -> dict:
    doc = gateway.status()
    json.dumps(doc)  # what /status serializes
    return doc


class TestWriterFailure:
    def test_unwritable_index_is_reported_and_hits_still_answer(
            self, tmp_path):
        cache_dir = str(tmp_path / "cache")

        async def go():
            async with Gateway(ServeConfig(cache_dir=cache_dir)) as plain:
                first = await plain.call_run(COLD[0])
                assert _status_of(plain)["results_errors"] == 0
            expected = first.doc["units"][0]["result_sha256"]
            # A directory where the index should be: no batch can land.
            config = ServeConfig(cache_dir=cache_dir,
                                 results_db=str(tmp_path))
            async with Gateway(config) as gateway:
                for _ in range(5):
                    response = await gateway.call_run(COLD[0])
                    unit = response.doc["units"][0]
                    assert response.failures == 0
                    assert (unit["served"], unit["result_sha256"]) \
                        == ("hit", expected)
                deadline = time.monotonic() + 30
                while _status_of(gateway)["results_pending"]:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.01)
                status = _status_of(gateway)
                registry = gateway.metrics.registry.as_dict()
            return status, registry

        status, registry = asyncio.run(go())
        assert status["results_errors"] == 5
        assert status["units"]["hit"] == 5
        assert registry["counters"]["serve.results_write_errors"] == 5

    def test_status_counts_nothing_without_an_index(self, tmp_path):
        async def go():
            async with Gateway(ServeConfig(cache_dir=str(tmp_path))) as gw:
                await gw.call_run(COLD[0])
                return _status_of(gw)

        status = asyncio.run(go())
        assert status["results_pending"] == 0
        assert status["results_errors"] == 0


class TestRunRowBeforeReply:
    def test_run_rows_exist_when_executed_replies(self, tmp_path):
        db_path = str(tmp_path / "i.db")
        config = ServeConfig(cache_dir=str(tmp_path / "cache"),
                             results_db=db_path)

        async def go():
            async with Gateway(config) as gateway:
                for selector in COLD:
                    response = await gateway.call_run(selector)
                    unit = response.doc["units"][0]
                    assert unit["served"] == "executed"
                    # Read through another connection, gateway running.
                    conn = open_readonly(db_path)
                    try:
                        assert conn.execute(
                            "SELECT status FROM runs WHERE run_key = ?",
                            (unit["key"],)).fetchall() == [("ran",)]
                    finally:
                        conn.close()
                    assert gateway.cache.contains(unit["key"])

        asyncio.run(go())


# -- ``python -m repro serve`` in a process of its own -------------------
def _spawn_gateway(tmp_path) -> "tuple[subprocess.Popen, int]":
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "2",
         "--cache-dir", str(tmp_path / "cache"),
         "--results-db", str(tmp_path / "i.db")],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    banner = proc.stdout.readline()
    try:
        port = int(banner.split("http://", 1)[1].split(" ", 1)[0]
                   .rsplit(":", 1)[1])
    except (IndexError, ValueError):
        proc.kill()
        proc.wait()
        raise AssertionError(f"gateway did not start (said {banner!r})")
    return proc, port


def _post_run(port: int, selector: str) -> dict:
    body = json.dumps({"experiment": selector}).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(
            b"POST /run HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n%b"
            % (len(body), body))
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    head, _, payload = raw.partition(b"\r\n\r\n")
    assert head.split(None, 2)[1] == b"200", head
    return json.loads(payload)["units"][0]


def _cold_then_hits(port: int) -> None:
    shas = {}
    for selector in COLD:
        unit = _post_run(port, selector)
        assert unit["served"] == "executed"
        shas[selector] = unit["result_sha256"]
    for i in range(HITS):
        selector = COLD[i % len(COLD)]
        unit = _post_run(port, selector)
        assert (unit["served"], unit["result_sha256"]) \
            == ("hit", shas[selector])


def _index(tmp_path) -> "tuple[int, int]":
    with ResultsDB(str(tmp_path / "i.db")) as db:
        assert db.query("PRAGMA integrity_check")[1] == [("ok",)]
        return db.query("SELECT COALESCE(SUM(hits), 0), COUNT(*) "
                        "FROM runs WHERE status = 'ran'")[1][0]


@pytest.mark.serve
class TestCrashConsistency:
    def test_sigkill_loses_only_queued_hit_counters(self, tmp_path):
        proc, port = _spawn_gateway(tmp_path)
        try:
            _cold_then_hits(port)
        finally:
            proc.send_signal(signal.SIGKILL)  # straight after the reply
            proc.wait(timeout=30)
            proc.stdout.close()
        hits, rows = _index(tmp_path)
        assert rows == len(COLD)  # run rows were committed before replies
        assert 0 <= hits <= HITS
        # Nothing for the recovery path to add: every cache entry is
        # indexed already.
        from repro.results.cli import main as results_main

        assert results_main(["ingest", "--db", str(tmp_path / "i.db"),
                             "--cache-dir", str(tmp_path / "cache")]) == 0
        assert _index(tmp_path) == (hits, len(COLD))

    def test_clean_stop_loses_no_hit(self, tmp_path):
        """``SIGTERM`` leaves through ``Gateway.stop()``, which drains."""
        proc, port = _spawn_gateway(tmp_path)
        try:
            _cold_then_hits(port)
            proc.send_signal(signal.SIGTERM)
            tail = proc.communicate(timeout=30)[0]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0
        assert tail.rstrip().endswith("gateway stopped")
        assert _index(tmp_path) == (HITS, len(COLD))
