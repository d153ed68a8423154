"""Gateway semantics: coalescing, cache-first serving, admission control.

These are tier-1 tests: in-process (no sockets), sub-second sleeps
only.  The same semantics over TCP are in ``test_http.py``.
"""

from __future__ import annotations

import asyncio
import pickle
import threading

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.units import enumerate_units, execute_unit
from repro.serve import Gateway, RejectedError, ServeConfig


class CountingRunner:
    """Counts executions per unit label (thread-safe: pool threads)."""

    def __init__(self, fail_labels=()):
        self.calls = {}
        self.fail_labels = set(fail_labels)
        self._lock = threading.Lock()

    def __call__(self, unit):
        with self._lock:
            self.calls[unit.label] = self.calls.get(unit.label, 0) + 1
        if unit.label in self.fail_labels:
            raise RuntimeError(f"injected failure for {unit.label}")
        return execute_unit(unit)

    def total(self) -> int:
        return sum(self.calls.values())


def gather_run(gateway: Gateway, selectors):
    """Resolve several /run calls concurrently inside one loop."""

    async def go():
        async with gateway:
            return await asyncio.gather(
                *(gateway.call_run(s) for s in selectors)
            )

    return asyncio.run(go())


class TestCoalescing:
    def test_concurrent_identical_requests_execute_once(self, tmp_path):
        """The acceptance property: N concurrent identical requests to a
        cold key run the computation exactly once, and every client
        receives a bit-identical result."""
        runner = CountingRunner()
        gateway = Gateway(
            ServeConfig(cache_dir=str(tmp_path), pool_workers=4),
            runner=runner,
        )
        n = 8
        responses = gather_run(gateway, ["sleep:0.15#coalesce"] * n)

        assert runner.total() == 1  # the computation ran exactly once
        served = [r.doc["units"][0]["served"] for r in responses]
        assert served.count("executed") == 1
        assert served.count("coalesced") == n - 1

        # bit-identical answers: same pickle bytes, same content hash
        blobs = {pickle.dumps(r.values[0], protocol=4) for r in responses}
        assert len(blobs) == 1
        hashes = {r.doc["units"][0]["result_sha256"] for r in responses}
        assert len(hashes) == 1

        snap = gateway.metrics.snapshot()
        assert snap["units"]["executed"] == 1
        assert snap["units"]["coalesced"] == n - 1
        assert snap["counters"]["errors"] == 0

    def test_coalescing_without_cache(self):
        """Coalescing is an in-flight property; it needs no cache dir."""
        runner = CountingRunner()
        gateway = Gateway(ServeConfig(pool_workers=2), runner=runner)
        responses = gather_run(gateway, ["sleep:0.1#nocache"] * 4)
        assert runner.total() == 1
        assert {r.doc["units"][0]["served"] for r in responses} == {
            "executed", "coalesced",
        }

    def test_sequential_requests_hit_cache_not_coalesce(self, tmp_path):
        runner = CountingRunner()
        gateway = Gateway(
            ServeConfig(cache_dir=str(tmp_path)), runner=runner
        )

        async def go():
            async with gateway:
                first = await gateway.call_run("sleep:0.02#seq")
                second = await gateway.call_run("sleep:0.02#seq")
                return first, second

        first, second = asyncio.run(go())
        assert first.doc["units"][0]["served"] == "executed"
        assert second.doc["units"][0]["served"] == "hit"
        assert runner.total() == 1
        # the executed unit's sidecar has the campaign workers' schema
        cache = ResultCache(str(tmp_path))
        (key,) = cache.keys()
        meta = cache.meta(key)
        assert meta["worker"] == "serve" and meta["host"]


class TestCacheFirst:
    def test_warm_key_never_touches_the_pool(self, tmp_path):
        # Pre-populate the store under the key the gateway will derive;
        # the runner would sleep 5s (and fail the test timeout) if the
        # gateway ever executed it.
        unit = enumerate_units(["sleep:5#prewarmed"])[0]
        marker = {"prewarmed": True}
        ResultCache(str(tmp_path)).put(unit.key, marker)

        def forbidden(_unit):
            raise AssertionError("cache hit must not reach the pool")

        gateway = Gateway(
            ServeConfig(cache_dir=str(tmp_path)), runner=forbidden
        )
        (response,) = gather_run(gateway, ["sleep:5#prewarmed"])
        assert response.doc["units"][0]["served"] == "hit"
        assert response.values[0] == marker

    def test_campaign_endpoint_shares_the_same_path(self, tmp_path):
        runner = CountingRunner()
        gateway = Gateway(
            ServeConfig(cache_dir=str(tmp_path), pool_workers=2),
            runner=runner,
        )

        async def go():
            async with gateway:
                cold = await gateway.call_campaign(
                    selectors=["sleep:0.05#a", "sleep:0.05#b"]
                )
                warm = await gateway.call_campaign(
                    selectors=["sleep:0.05#a", "sleep:0.05#b"]
                )
                return cold, warm

        cold, warm = asyncio.run(go())
        assert [u["served"] for u in cold.doc["units"]] == [
            "executed", "executed",
        ]
        assert [u["served"] for u in warm.doc["units"]] == ["hit", "hit"]
        assert runner.total() == 2

    def test_campaign_argument_validation(self):
        gateway = Gateway()

        async def go():
            async with gateway:
                with pytest.raises(ValueError, match="not both"):
                    await gateway.call_campaign(
                        selectors=["sleep:0.01#x"], sweep="mini"
                    )
                with pytest.raises(ValueError, match="selectors or a sweep"):
                    await gateway.call_campaign()
                with pytest.raises(KeyError, match="unknown sweep"):
                    await gateway.call_campaign(sweep="nope")

        asyncio.run(go())


class TestAdmissionControl:
    def test_overload_is_rejected_with_retry_after(self):
        gateway = Gateway(
            ServeConfig(pool_workers=1, queue_limit=1,
                        retry_after_seconds=2.5)
        )

        async def go():
            async with gateway:
                first = asyncio.ensure_future(
                    gateway.call_run("sleep:0.3#slow")
                )
                await asyncio.sleep(0.05)  # first is now executing
                with pytest.raises(RejectedError) as excinfo:
                    await gateway.call_run("sleep:0.3#other")
                assert excinfo.value.retry_after == 2.5
                assert excinfo.value.limit == 1
                # identical traffic still coalesces while saturated:
                # admission control never refuses work it can share
                shared = await gateway.call_run("sleep:0.3#slow")
                assert shared.doc["units"][0]["served"] == "coalesced"
                await first
                return gateway.metrics.snapshot()

        snap = asyncio.run(go())
        assert snap["counters"]["rejected"] == 1
        assert snap["queue_depth"] == 0  # drained after completion

    def test_depth_frees_up_after_completion(self):
        gateway = Gateway(ServeConfig(pool_workers=1, queue_limit=1))

        async def go():
            async with gateway:
                await gateway.call_run("sleep:0.02#one")
                # the slot freed: a different key is admitted again
                second = await gateway.call_run("sleep:0.02#two")
                assert second.doc["units"][0]["served"] == "executed"

        asyncio.run(go())


class TestFailures:
    def test_unit_error_is_reported_not_raised(self, tmp_path):
        runner = CountingRunner(fail_labels=["sleep@0.01#boom"])
        gateway = Gateway(
            ServeConfig(cache_dir=str(tmp_path)), runner=runner
        )
        (response,) = gather_run(gateway, ["sleep:0.01#boom"])
        assert response.failures == 1
        entry = response.doc["units"][0]
        assert entry["served"] == "error"
        assert "injected failure" in entry["error"]
        assert gateway.metrics.snapshot()["counters"]["errors"] == 1
        # a failed unit is not cached: a retry executes again
        assert not ResultCache(str(tmp_path)).contains(entry["key"])

    def test_error_propagates_to_coalesced_waiters(self):
        runner = CountingRunner(fail_labels=["sleep@0.1#shared-boom"])
        gateway = Gateway(ServeConfig(pool_workers=2), runner=runner)
        responses = gather_run(gateway, ["sleep:0.1#shared-boom"] * 3)
        assert runner.total() == 1
        assert all(r.failures == 1 for r in responses)

    def test_unknown_selector_raises_keyerror(self):
        gateway = Gateway()

        async def go():
            async with gateway:
                with pytest.raises(KeyError, match="unknown experiment"):
                    await gateway.call_run("not-an-experiment")

        asyncio.run(go())


class TestStatus:
    def test_snapshot_shape_and_accounting(self, tmp_path):
        gateway = Gateway(ServeConfig(cache_dir=str(tmp_path)))
        gather_run(
            gateway,
            ["sleep:0.05#s1", "sleep:0.05#s1", "sleep:0.05#s2"],
        )
        status = gateway.status()
        assert status["counters"]["requests"] == 3
        answered = status["units"]
        assert sum(answered.values()) == 3
        assert answered["executed"] == 2
        assert status["cache_entries"] == 2
        assert status["queue_limit"] == 64
        assert status["spans_recorded"] > 0
        for cls in ("hit", "coalesced", "executed"):
            assert set(status["latency_us"][cls]) == {"p50", "p99"}

    def test_spans_record_request_lifecycle(self):
        gateway = Gateway()
        gather_run(gateway, ["sleep:0.02#spans"])
        names = {s.name for s in gateway.observer.spans}
        assert "request:run" in names
        assert "execute" in names
        # all spans closed at shutdown
        assert all(s.end is not None for s in gateway.observer.spans)

    def test_spans_can_be_disabled(self):
        gateway = Gateway(ServeConfig(spans=False))
        gather_run(gateway, ["sleep:0.01#nospan"])
        assert gateway.observer is None
        assert gateway.status()["spans_recorded"] == 0


class TestConfig:
    @pytest.mark.parametrize("port", [-1, 65536])
    def test_port_outside_16_bits_is_rejected(self, port):
        # The range of a fleet address: a port bind() would refuse is a
        # config error, not a traceback when the server starts.
        with pytest.raises(ValueError, match=r"port must be in \[0, 65535\]"):
            ServeConfig(port=port)

    def test_port_bounds_are_accepted(self):
        assert ServeConfig(port=65535).port == 65535
        assert ServeConfig(port=0).port == 0
