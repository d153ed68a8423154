"""``repro.serve`` — the always-on async service gateway.

The "millions of users" layer over the run/campaign facade: a stdlib
``asyncio`` TCP/HTTP front end that answers most traffic from the
content-addressed result cache in microseconds, collapses identical
in-flight requests onto one computation (coalescing on the campaign
cache keys), refuses overload fast with 429 + Retry-After, and executes
the remainder on an LPT-ordered background pool.  SLO metrics (p50/p99
latency per service class, queue depth, hit/coalesce/reject rates) are
exported through the shared :class:`repro.obs.MetricsRegistry`.

Quick start::

    import asyncio
    from repro.serve import Gateway, ServeConfig

    async def main():
        async with Gateway(ServeConfig(cache_dir=".serve-cache")) as gw:
            host, port = await gw.start_server()
            ...  # POST /run, /campaign; GET /status, /metrics

    asyncio.run(main())

or from the command line: ``python -m repro serve``.  See
``docs/serve.md``.
"""

from repro.serve.config import ServeConfig
from repro.serve.gateway import Gateway, GatewayResponse, RejectedError
from repro.serve.pool import WorkerPool
from repro.serve.slo import LatencyReservoir, ServeMetrics

__all__ = [
    "Gateway",
    "GatewayResponse",
    "LatencyReservoir",
    "RejectedError",
    "ServeConfig",
    "ServeMetrics",
    "WorkerPool",
]
