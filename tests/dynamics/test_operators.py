"""Tests for finite-difference operators on padded arrays."""

import numpy as np
import pytest

from repro.dynamics.operators import laplacian5, u_at_v_points, v_at_u_points


class TestDerivatives:
    def test_laplacian_of_constant_zero(self):
        p = np.full((6, 7), 4.2)
        np.testing.assert_allclose(laplacian5(p, np.ones(4), 1.0), 0.0)

    def test_laplacian_of_quadratic(self):
        x = np.arange(8, dtype=float)
        f = np.ones((5, 1)) * x[None, :] ** 2
        p = np.pad(f, 1, mode="reflect", reflect_type="odd")
        # d2/dx2 of x^2 = 2 (interior columns away from the odd reflection)
        out = laplacian5(p, np.ones(5), 1e9)  # dy huge: y-term negligible
        np.testing.assert_allclose(out[:, 1:-1], 2.0, atol=1e-6)


class TestAverages:
    def test_avg_operators_on_constant(self):
        p = np.full((5, 6), 3.0)
        np.testing.assert_allclose(u_at_v_points(p), 3.0)
        np.testing.assert_allclose(v_at_u_points(p), 3.0)

    def test_v_at_u_stagger_geometry(self, rng):
        """v_at_u averages the four v points around each u point."""
        p = rng.standard_normal((5, 6))
        out = v_at_u_points(p)
        j, i = 1, 2  # interior indices of the padded array
        expected = 0.25 * (p[j, i] + p[j, i + 1] + p[j - 1, i] + p[j - 1, i + 1])
        assert out[j - 1, i - 1] == pytest.approx(expected)

    def test_u_at_v_stagger_geometry(self, rng):
        p = rng.standard_normal((5, 6))
        out = u_at_v_points(p)
        j, i = 2, 3
        expected = 0.25 * (p[j, i] + p[j, i - 1] + p[j + 1, i] + p[j + 1, i - 1])
        assert out[j - 1, i - 1] == pytest.approx(expected)
