"""Single-node performance laboratory (paper Section 3.4)."""

from repro.perf.cache_sim import CacheSim, CacheStats, loop_time, miss_time
from repro.perf.access_patterns import (
    ADVECTION_LOOP_MIX,
    laplace_flops,
    laplace_stream_block,
    laplace_stream_separate,
    mixed_loops_block,
    mixed_loops_separate,
)
from repro.perf.kernels import (
    pointwise_multiply_naive,
    pointwise_multiply_reshaped,
    pointwise_multiply_tiled,
)
from repro.perf.advection_opt import (
    ALL_VARIANTS,
    AdvectionWorkspace,
    advection_hoisted,
    advection_naive,
    advection_optimized,
    advection_vectorized,
    reference_advection,
)
from repro.perf.node_model import (
    LayoutComparison,
    compare_advection_layouts,
    compare_laplace_layouts,
)

__all__ = [
    "CacheSim",
    "CacheStats",
    "loop_time",
    "miss_time",
    "laplace_stream_separate",
    "laplace_stream_block",
    "mixed_loops_separate",
    "mixed_loops_block",
    "ADVECTION_LOOP_MIX",
    "laplace_flops",
    "pointwise_multiply_naive",
    "pointwise_multiply_reshaped",
    "pointwise_multiply_tiled",
    "advection_naive",
    "advection_hoisted",
    "advection_vectorized",
    "advection_optimized",
    "AdvectionWorkspace",
    "reference_advection",
    "ALL_VARIANTS",
    "LayoutComparison",
    "compare_laplace_layouts",
    "compare_advection_layouts",
]
