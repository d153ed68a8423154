"""Section 3.4 — the pointwise vector-multiply kernel (eq. 4).

The paper proposes an optimised library routine for ``a o b`` (tiling a
short vector across a long one) as a portable route to single-node
performance.  The study prices the scalar loop and the two 2-D forms on
the Paragon and T3D node models; the pytest-benchmark timings of the
numpy forms are host microbenchmarks and write no rendering.
"""

import numpy as np
import pytest
from conftest import run_once

from repro.perf.kernels import (
    pointwise_multiply_reshaped,
    pointwise_multiply_tiled,
)
from repro.reporting.experiments import run_pointwise


def test_pointwise_study(benchmark, archive):
    result = run_once(benchmark, run_pointwise)
    print("\n" + archive(result))
    for machine, times in result.data.items():
        # The 2-D forms drop the scalar loop's k % m (the library win the
        # paper hoped for; past the caches the stream's misses dominate).
        assert times["reshaped"] < times["naive"], machine
        # Writing the preallocated out costs no more than a fresh array.
        assert times["tiled"] <= times["reshaped"], machine


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(1_800_000)
    b = rng.standard_normal(9)
    out = np.empty_like(a)
    return a, b, out


def test_bench_pointwise_reshaped(benchmark, vectors):
    a, b, _ = vectors
    benchmark(pointwise_multiply_reshaped, a, b)


def test_bench_pointwise_tiled_inplace(benchmark, vectors):
    a, b, out = vectors
    benchmark(pointwise_multiply_tiled, a, b, out)
