"""Tests for the tridiagonal solver and implicit vertical diffusion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dynamics.implicit import implicit_vertical_diffusion
from repro.solvers import diffusion_system, solve_tridiagonal


def _dense_tridiagonal(lower, diag, upper):
    n = diag.size
    a = np.diag(diag)
    for k in range(1, n):
        a[k, k - 1] = lower[k]
        a[k - 1, k] = upper[k - 1]
    return a


class TestTridiagonal:
    @given(n=st.integers(2, 12), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_solve(self, n, seed):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-0.4, 0.4, n)
        upper = rng.uniform(-0.4, 0.4, n)
        diag = 1.0 + rng.uniform(0.2, 1.0, n)  # diagonally dominant
        rhs = rng.standard_normal(n)
        x = solve_tridiagonal(lower, diag, upper, rhs)
        a = _dense_tridiagonal(lower, diag, upper)
        np.testing.assert_allclose(a @ x, rhs, atol=1e-10)

    def test_batched_matches_loop(self, rng):
        n, batch = 6, 10
        lower = rng.uniform(-0.3, 0.3, (batch, n))
        upper = rng.uniform(-0.3, 0.3, (batch, n))
        diag = 1.5 + rng.random((batch, n))
        rhs = rng.standard_normal((batch, n))
        x = solve_tridiagonal(lower, diag, upper, rhs)
        for b in range(batch):
            xb = solve_tridiagonal(lower[b], diag[b], upper[b], rhs[b])
            np.testing.assert_allclose(x[b], xb)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_tridiagonal(np.zeros(3), np.ones(4), np.zeros(3), np.ones(3))

    def test_diffusion_system_validation(self):
        with pytest.raises(ValueError):
            diffusion_system(1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            diffusion_system(4, -1.0, 1.0, 1.0)


class TestVerticalDiffusion:
    def test_conserves_column_integral(self, rng):
        field = rng.standard_normal((5, 6, 8)) + 10.0
        out = implicit_vertical_diffusion(field, dt=1e4, kappa=10.0, dz=500.0)
        np.testing.assert_allclose(
            out.sum(axis=2), field.sum(axis=2), rtol=1e-10
        )

    def test_smooths_profiles(self, rng):
        field = np.zeros((2, 2, 10))
        field[..., 5] = 1.0  # a spike
        out = implicit_vertical_diffusion(field, dt=1e5, kappa=100.0, dz=500.0)
        assert out[..., 5].max() < 1.0
        assert out.min() >= -1e-12

    def test_stable_for_huge_dt(self):
        """Unconditional stability — the whole point of going implicit."""
        field = np.random.default_rng(0).standard_normal((3, 4, 6))
        out = implicit_vertical_diffusion(field, dt=1e9, kappa=1e3, dz=100.0)
        assert np.isfinite(out).all()
        assert np.abs(out).max() <= np.abs(field).max() + 1e-9

    def test_single_layer_noop(self, rng):
        field = rng.standard_normal((3, 4, 1))
        out = implicit_vertical_diffusion(field, dt=100.0, kappa=1.0)
        np.testing.assert_array_equal(out, field)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            implicit_vertical_diffusion(np.zeros((3, 4)), 1.0, 1.0)
