"""Tests for the pointwise multiply kernels and advection variants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.perf.advection_opt import (
    ALL_VARIANTS,
    AdvectionWorkspace,
    advection_optimized,
    reference_advection,
)
from repro.perf.kernels import (
    pointwise_multiply_naive,
    pointwise_multiply_reshaped,
    pointwise_multiply_tiled,
)


class TestPointwiseMultiply:
    @pytest.fixture
    def ab(self, rng):
        return rng.standard_normal(120), rng.standard_normal(12)

    def test_naive_semantics(self):
        a = np.arange(6.0)
        b = np.array([10.0, 100.0])
        out = pointwise_multiply_naive(a, b)
        np.testing.assert_allclose(out, [0, 100, 20, 300, 40, 500])

    def test_all_variants_agree(self, ab):
        a, b = ab
        ref = pointwise_multiply_naive(a, b)
        np.testing.assert_allclose(pointwise_multiply_reshaped(a, b), ref)
        np.testing.assert_allclose(pointwise_multiply_tiled(a, b), ref)

    def test_tiled_uses_out_buffer(self, ab):
        a, b = ab
        out = np.empty(a.size)
        result = pointwise_multiply_tiled(a, b, out)
        assert result is out

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            pointwise_multiply_naive(np.zeros(10), np.zeros(3))
        with pytest.raises(ValueError):
            pointwise_multiply_reshaped(np.zeros(10), np.zeros(3))

    @given(m=st.integers(1, 16), reps=st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_property_equivalence(self, m, reps):
        rng = np.random.default_rng(m * 31 + reps)
        a = rng.standard_normal(m * reps)
        b = rng.standard_normal(m)
        np.testing.assert_allclose(
            pointwise_multiply_reshaped(a, b),
            pointwise_multiply_naive(a, b),
        )


class TestAdvectionVariants:
    @pytest.fixture
    def inputs(self, rng):
        shape = (7, 9, 2)
        return (
            rng.standard_normal(shape),
            rng.standard_normal(shape),
            rng.standard_normal(shape),
            1e5 * (1 + rng.random(7)),
            1.1e5,
        )

    @pytest.mark.parametrize("name", list(ALL_VARIANTS))
    def test_variant_matches_reference(self, inputs, name):
        f, u, v, dx, dy = inputs
        ref = reference_advection(f, u, v, dx, dy)
        got = ALL_VARIANTS[name](f, u, v, dx, dy)
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_workspace_reuse(self, inputs):
        f, u, v, dx, dy = inputs
        ws = AdvectionWorkspace(f.shape)
        a = advection_optimized(f, u, v, dx, dy, ws).copy()
        b = advection_optimized(f, u, v, dx, dy, ws)
        np.testing.assert_array_equal(a, b)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_vectorized_property(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(3, 8)), int(rng.integers(4, 10)), 2)
        f = rng.standard_normal(shape)
        u = rng.standard_normal(shape)
        v = rng.standard_normal(shape)
        dx = 1e5 * (1 + rng.random(shape[0]))
        np.testing.assert_allclose(
            ALL_VARIANTS["vectorized"](f, u, v, dx, 1e5),
            reference_advection(f, u, v, dx, 1e5),
            atol=1e-10,
        )
