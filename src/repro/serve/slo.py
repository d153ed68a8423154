"""SLO accounting for the gateway: latency percentiles + rate counters.

The gateway promises three things under bursty identical traffic —
most requests are answered from cache in microseconds, identical
in-flight requests collapse onto one computation, and overload is
refused fast instead of queued forever.  This module measures all
three: per-service-class latency reservoirs (``hit`` / ``coalesced`` /
``executed``), counters for every admission outcome, and a
``snapshot()`` that the ``/status`` endpoint reports verbatim.

Everything is exported through the shared
:class:`repro.obs.MetricsRegistry` so campaign- and serve-side metrics
land in one namespace (``serve.*``).
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

from repro.obs import MetricsRegistry

__all__ = ["LatencyReservoir", "ServeMetrics", "percentile"]

#: The ways a request (unit) can be answered; every unit falls in
#: exactly one class.
SERVICE_CLASSES = ("hit", "coalesced", "executed")


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples`` by nearest-rank.

    Returns NaN on an empty list — the status endpoint renders that as
    ``null`` rather than inventing a latency.
    """
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


class LatencyReservoir:
    """A bounded sample buffer with nearest-rank percentiles.

    Keeps the most recent ``size`` samples (ring overwrite), so the
    percentiles track current behaviour instead of averaging over the
    gateway's whole life.
    """

    def __init__(self, size: int = 4096) -> None:
        if size <= 0:
            raise ValueError(f"reservoir size must be positive, got {size}")
        self.size = size
        self._samples: List[float] = []
        self._next = 0
        self.count = 0

    def record(self, value: float) -> None:
        if len(self._samples) < self.size:
            self._samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % self.size
        self.count += 1

    def quantile(self, q: float) -> float:
        return percentile(self._samples, q)

    def __len__(self) -> int:
        return len(self._samples)


class ServeMetrics:
    """All gateway SLO instruments behind one facade.

    ``registry`` may be shared with other subsystems; the gateway only
    touches ``serve.*`` names.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 reservoir_size: int = 4096) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.started_at = time.time()
        self._latency = {
            cls: LatencyReservoir(reservoir_size) for cls in SERVICE_CLASSES
        }
        self._requests = self.registry.counter(
            "serve.requests", "requests accepted by an endpoint")
        self._rejected = self.registry.counter(
            "serve.rejected", "requests refused by admission control (429)")
        self._errors = self.registry.counter(
            "serve.errors", "requests that failed while executing")
        self._results_write_errors = self.registry.counter(
            "serve.results_write_errors",
            "result-index records lost to a failed writer batch")
        self._units = {
            cls: self.registry.counter(
                f"serve.units_{cls}", f"units answered as {cls!r}")
            for cls in SERVICE_CLASSES
        }
        self._queue_depth = self.registry.gauge(
            "serve.queue_depth", "executions admitted and not yet finished")
        self._inflight = self.registry.gauge(
            "serve.inflight_keys", "distinct keys currently being computed")

    # -- recording hooks (called by the gateway) ------------------------
    def request(self) -> None:
        self._requests.inc()

    def rejected(self) -> None:
        self._rejected.inc()

    def error(self) -> None:
        self._errors.inc()

    def results_write_errors(self, records: int) -> None:
        """A results-writer batch of ``records`` failed.  Called on the
        writer thread, the only one that touches this counter."""
        self._results_write_errors.inc(records)

    def unit(self, served: str, seconds: float) -> None:
        """One unit answered as ``served`` in ``seconds`` wall time."""
        self._units[served].inc()
        self._latency[served].record(seconds)

    def set_queue_depth(self, depth: int) -> None:
        self._queue_depth.set(depth)

    def set_inflight(self, count: int) -> None:
        self._inflight.set(count)

    # -- reading --------------------------------------------------------
    def latency_us(self, served: str, q: float) -> float:
        """The ``q``-quantile latency of one service class, microseconds."""
        return self._latency[served].quantile(q) * 1e6

    def snapshot(self) -> Dict[str, object]:
        """The ``/status`` document: counters, rates and percentiles.

        NaN percentiles (empty reservoirs) become ``None`` so the
        snapshot always JSON-serializes cleanly.
        """
        def us(cls: str, q: float) -> Optional[float]:
            value = self.latency_us(cls, q)
            return None if math.isnan(value) else round(value, 1)

        counters = {
            "requests": self._requests.value,
            "rejected": self._rejected.value,
            "errors": self._errors.value,
        }
        units = {cls: self._units[cls].value for cls in SERVICE_CLASSES}
        answered = sum(units.values())
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "counters": counters,
            "units": units,
            "queue_depth": self._queue_depth.value,
            "inflight_keys": self._inflight.value,
            "results_errors": self._results_write_errors.value,
            "hit_rate": units["hit"] / answered if answered else None,
            "coalesce_rate":
                units["coalesced"] / answered if answered else None,
            "latency_us": {
                cls: {"p50": us(cls, 0.50), "p99": us(cls, 0.99)}
                for cls in SERVICE_CLASSES
            },
        }
