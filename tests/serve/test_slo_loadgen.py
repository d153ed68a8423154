"""SLO accounting: percentiles, the reservoir, the serve.* metrics
(tier-1, no sockets)."""

from __future__ import annotations

import math

import pytest

from repro.serve.slo import LatencyReservoir, ServeMetrics, percentile


class TestPercentiles:
    def test_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]  # 1..100
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile(samples, 1.0) == 100.0
        assert percentile([42.0], 0.99) == 42.0

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 0.5))

    def test_reservoir_ring_overwrite(self):
        reservoir = LatencyReservoir(size=4)
        for v in (1.0, 2.0, 3.0, 4.0, 100.0, 200.0):
            reservoir.record(v)
        # 1.0 and 2.0 were overwritten; the window is {3, 4, 100, 200}
        assert len(reservoir) == 4
        assert reservoir.count == 6
        assert reservoir.quantile(1.0) == 200.0
        assert reservoir.quantile(0.5) == 4.0

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            LatencyReservoir(size=0)


class TestServeMetrics:
    def test_snapshot_rates(self):
        metrics = ServeMetrics()
        for _ in range(4):
            metrics.request()
        metrics.unit("hit", 0.001)
        metrics.unit("hit", 0.002)
        metrics.unit("coalesced", 0.1)
        metrics.unit("executed", 0.2)
        metrics.rejected()
        snap = metrics.snapshot()
        assert snap["units"] == {"hit": 2, "coalesced": 1, "executed": 1}
        assert snap["hit_rate"] == 0.5
        assert snap["coalesce_rate"] == 0.25
        assert snap["counters"]["rejected"] == 1
        assert snap["latency_us"]["hit"]["p50"] == pytest.approx(1000.0)
        # empty class renders as None, not NaN (JSON-safe)
        metrics2 = ServeMetrics()
        assert metrics2.snapshot()["latency_us"]["hit"]["p99"] is None
        assert metrics2.snapshot()["hit_rate"] is None

    def test_registry_namespacing(self):
        metrics = ServeMetrics()
        names = metrics.registry.as_dict()
        assert all(k.startswith("serve.")
                   for bucket in names.values() for k in bucket)
