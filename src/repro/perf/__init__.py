"""Single-node performance laboratory (paper Section 3.4)."""

from repro.perf.cache_sim import CacheSim, CacheStats, loop_time, miss_time
from repro.perf.access_patterns import ADVECTION_LOOP_MIX, Layout, Loop, stream
from repro.perf.kernels import (
    pointwise_multiply_naive,
    pointwise_multiply_reshaped,
    pointwise_multiply_tiled,
)
from repro.perf.advection_opt import (
    ALL_VARIANTS,
    AdvectionWorkspace,
    advection_naive,
    advection_optimized,
    advection_vectorized,
    reference_advection,
)
from repro.perf.node_model import (
    LayoutComparison,
    compare_advection_layouts,
    compare_laplace_layouts,
    price,
)

__all__ = [
    "CacheSim",
    "CacheStats",
    "loop_time",
    "miss_time",
    "Loop",
    "Layout",
    "stream",
    "price",
    "ADVECTION_LOOP_MIX",
    "pointwise_multiply_naive",
    "pointwise_multiply_reshaped",
    "pointwise_multiply_tiled",
    "advection_naive",
    "advection_vectorized",
    "advection_optimized",
    "AdvectionWorkspace",
    "reference_advection",
    "ALL_VARIANTS",
    "LayoutComparison",
    "compare_laplace_layouts",
    "compare_advection_layouts",
]
