"""The TCP/HTTP front end: routing, status codes, 429 semantics, and
coalescing of an identical burst over real connections.

Tier-1: real sockets on an ephemeral loopback port, but only
sub-second units.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve import Gateway, ServeConfig


async def _request(host: str, port: int, method: str, path: str,
                   body: dict | None = None):
    """One HTTP exchange; returns (status, headers, json_doc)."""
    payload = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode()
    return await _exchange(host, port, head + payload)


async def _exchange(host: str, port: int, request: bytes):
    """Send raw request bytes; returns (status, headers, json_doc)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        raw = await reader.read()
        return status, headers, json.loads(raw) if raw else {}
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


def with_server(config, fn):
    """Start a gateway server, run ``fn(host, port, gateway)``."""

    async def go():
        gateway = Gateway(config)
        host, port = await gateway.start_server()
        try:
            return await fn(host, port, gateway)
        finally:
            await gateway.stop()

    return asyncio.run(go())


class TestEndpoints:
    def test_run_roundtrip_cold_then_warm(self, tmp_path):
        async def scenario(host, port, _gateway):
            cold = await _request(host, port, "POST", "/run",
                                  {"experiment": "sleep:0.02#http"})
            warm = await _request(host, port, "POST", "/run",
                                  {"experiment": "sleep:0.02#http"})
            return cold, warm

        cold, warm = with_server(
            ServeConfig(cache_dir=str(tmp_path)), scenario
        )
        assert cold[0] == 200
        assert cold[2]["units"][0]["served"] == "executed"
        assert warm[0] == 200
        assert warm[2]["units"][0]["served"] == "hit"
        assert (cold[2]["units"][0]["result_sha256"]
                == warm[2]["units"][0]["result_sha256"])

    def test_campaign_status_and_metrics(self, tmp_path):
        async def scenario(host, port, _gateway):
            camp = await _request(
                host, port, "POST", "/campaign",
                {"selectors": ["sleep:0.01#c1", "sleep:0.01#c2"]},
            )
            status = await _request(host, port, "GET", "/status")
            metrics = await _request(host, port, "GET", "/metrics")
            return camp, status, metrics

        camp, status, metrics = with_server(
            ServeConfig(cache_dir=str(tmp_path)), scenario
        )
        assert camp[0] == 200 and len(camp[2]["units"]) == 2
        assert status[0] == 200
        # status/metrics reads are not counted; the campaign call is
        assert status[2]["counters"]["requests"] == 1
        assert sum(status[2]["units"].values()) == 2
        assert metrics[0] == 200
        assert "serve.requests" in metrics[2]["counters"]

    def test_rejection_is_http_429_with_retry_after(self):
        async def scenario(host, port, _gateway):
            slow = asyncio.ensure_future(_request(
                host, port, "POST", "/run",
                {"experiment": "sleep:0.4#saturate"},
            ))
            await asyncio.sleep(0.1)  # the slow unit is now executing
            rejected = await _request(
                host, port, "POST", "/run",
                {"experiment": "sleep:0.4#overflow"},
            )
            ok = await slow
            return rejected, ok

        rejected, ok = with_server(
            ServeConfig(pool_workers=1, queue_limit=1,
                        retry_after_seconds=3.0),
            scenario,
        )
        assert ok[0] == 200
        status, headers, doc = rejected
        assert status == 429
        assert headers["retry-after"] == "3"
        assert doc["retry_after"] == 3.0
        assert "admission queue full" in doc["error"]

    def test_identical_burst_executes_once_then_hits(self, tmp_path):
        selector = {"experiment": "sleep:0.2#tcp-burst"}

        async def wave(host, port):
            return await asyncio.gather(*(
                _request(host, port, "POST", "/run", selector)
                for _ in range(8)
            ))

        async def scenario(host, port, _gateway):
            return await wave(host, port), await wave(host, port)

        cold, warm = with_server(
            ServeConfig(cache_dir=str(tmp_path)), scenario
        )
        for answers in (cold, warm):
            assert [status for status, _, _ in answers] == [200] * 8
        served = [doc["units"][0]["served"] for _, _, doc in cold]
        assert sorted(served) == ["coalesced"] * 7 + ["executed"]
        assert [doc["units"][0]["served"] for _, _, doc in warm] \
            == ["hit"] * 8
        assert len({doc["units"][0]["result_sha256"]
                    for _, _, doc in cold + warm}) == 1


class TestProtocolErrors:
    def test_error_codes(self):
        async def scenario(host, port, _gateway):
            return {
                "no_body": await _request(host, port, "POST", "/run"),
                "bad_selector": await _request(
                    host, port, "POST", "/run", {"experiment": 7}
                ),
                "unknown_experiment": await _request(
                    host, port, "POST", "/run", {"experiment": "nope"}
                ),
                "unknown_path": await _request(host, port, "GET", "/x"),
                "wrong_method": await _request(host, port, "GET", "/run"),
                "bad_selectors": await _request(
                    host, port, "POST", "/campaign", {"selectors": [1]}
                ),
            }

        results = with_server(ServeConfig(), scenario)
        assert results["no_body"][0] == 400
        assert results["bad_selector"][0] == 400
        assert results["unknown_experiment"][0] == 404
        assert "unknown experiment" in (
            results["unknown_experiment"][2]["error"]
        )
        assert results["unknown_path"][0] == 404
        assert results["wrong_method"][0] == 405
        assert results["bad_selectors"][0] == 400

    @pytest.mark.parametrize("request_bytes, error", [
        pytest.param(b"POST /run HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                     "bad Content-Length '-5'", id="negative-length"),
        pytest.param(b"POST /run HTTP/1.1\r\nContent-Length: 3\r\n\r\n"
                     b"\xff\xfe\xfd",
                     "body is not valid JSON", id="undecodable-body"),
        pytest.param(b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n",
                     "request line too long", id="long-request-line"),
        pytest.param(b"GET /status HTTP/1.1\r\nX-Pad: " + b"x" * 70_000
                     + b"\r\n\r\n",
                     "header line too long", id="long-header-line"),
    ])
    def test_malformed_bytes_are_a_400(self, request_bytes, error):
        async def scenario(host, port, _gateway):
            return await _exchange(host, port, request_bytes)

        status, _, doc = with_server(ServeConfig(), scenario)
        assert status == 400
        assert error in doc["error"]

    def test_unit_failure_maps_to_500(self):
        def boom(unit):
            raise RuntimeError("kaput")

        async def scenario(host, port, _gateway):
            return await _request(host, port, "POST", "/run",
                                  {"experiment": "sleep:0.01#f"})

        async def go():
            gateway = Gateway(ServeConfig(), runner=boom)
            host, port = await gateway.start_server()
            try:
                return await scenario(host, port, gateway)
            finally:
                await gateway.stop()

        status, _, doc = asyncio.run(go())
        assert status == 500
        assert doc["units"][0]["served"] == "error"
        assert "kaput" in doc["units"][0]["error"]
