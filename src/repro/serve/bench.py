"""The seeded gateway load replay behind ``python -m repro serve --bench``.

One seeded bursty plan is replayed twice against a fresh gateway with
an empty content-addressed cache:

* the **cold pass** measures coalescing — every burst aims concurrent
  identical requests at a fresh key, so ``coalesce_rate`` says how
  much duplicate work the gateway collapsed (each key computes exactly
  once no matter how many clients asked);
* the **warm pass** measures the microsecond path — the same traffic
  again, now answered from the cache without touching the worker pool;
  the hit p99 bounds its tail latency over real TCP.

Both passes must finish with zero :func:`failed_requests`.  These are
wall-clock numbers, so they are held to *absolute floors* — by the
``serve`` suite (``tests/serve/test_e2e.py``) and the CI serve-smoke
job — rather than drift-gated; synthetic ``sleep:`` units keep the
coalescing window hardware-independent.  Steady-state serving numbers
are ``bench/``'s (``service_plane``).
"""

from __future__ import annotations

import asyncio
import tempfile
from typing import Any, Dict

from repro.serve.config import ServeConfig
from repro.serve.gateway import Gateway
from repro.serve.loadgen import DEFAULT_SEED, LoadPlan, replay

__all__ = ["run_bench", "failed_requests"]


async def _bench_async(plan: LoadPlan,
                       cache_dir: str) -> Dict[str, Any]:
    config = ServeConfig(cache_dir=cache_dir, pool_workers=4,
                         queue_limit=64)
    gateway = Gateway(config)
    host, port = await gateway.start_server()
    try:
        cold = await replay(plan, host, port)
        warm = await replay(plan, host, port)
    finally:
        await gateway.stop()
    return {
        "cold": cold.to_json(),
        "warm": warm.to_json(),
        "status": gateway.status(),
    }


def run_bench(seed: int = DEFAULT_SEED, *,
              cache_dir: str = None) -> Dict[str, Any]:
    """Replay the canonical seeded plan twice; returns the full report.

    ``cache_dir`` defaults to a throwaway directory so the cold pass is
    genuinely cold; point it at a persistent store to benchmark a
    pre-warmed gateway instead.
    """
    plan = LoadPlan.generate(seed)
    if cache_dir is not None:
        return asyncio.run(_bench_async(plan, cache_dir))
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as td:
        return asyncio.run(_bench_async(plan, td))


def failed_requests(report: Dict[str, Any]) -> int:
    """Failed requests of a cold+warm replay (a :func:`run_bench` report).

    A request fails by erroring out or by disagreeing with another
    answer for the same key (``sha_conflicts``), on either pass.
    """
    return sum(
        report[phase]["failures"] + len(report[phase]["sha_conflicts"])
        for phase in ("cold", "warm")
    )
