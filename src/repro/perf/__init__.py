"""Single-node performance laboratory (paper Section 3.4).

Kernel aliasing contract: the BLAS-style wrappers in
:mod:`repro.perf.kernels` keep a small, bounded pool of internal scratch
buffers.  Passing an array that overlaps one of those buffers (notably as
the ``y`` accumulator of :func:`blas_axpy`) is detected via
``numpy.shares_memory`` and served through a safe temporary-allocating
path, so callers never observe clobbered inputs; they only lose the
zero-allocation fast path.
"""

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
    blas_axpy,
    blas_copy,
    blas_scal,
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
    "blas_copy",
    "blas_scal",
    "blas_axpy",
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
