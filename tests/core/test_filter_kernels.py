"""Tests for the convolution (eq. 2) and FFT (eq. 1) filtering kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.convolution import (
    circulant_matrix,
    convolution_filter_rows,
    convolve_line,
)
from repro.core.fft import fft_filter_flop_count, fft_filter_line, fft_filter_rows
from repro.core.spectral import strong_filter, weak_filter
from repro.grid.sphere import SphericalGrid
from repro.verify import tolerances


class TestCirculant:
    def test_identity_kernel(self):
        kernel = np.zeros(5)
        kernel[0] = 1.0
        np.testing.assert_allclose(circulant_matrix(kernel), np.eye(5))

    def test_shift_kernel(self, rng):
        kernel = np.zeros(6)
        kernel[1] = 1.0  # circular shift by one
        line = rng.standard_normal(6)
        np.testing.assert_allclose(
            convolve_line(line, kernel), np.roll(line, 1)
        )

    def test_matches_numpy_convolve(self, rng):
        kernel = rng.standard_normal(8)
        line = rng.standard_normal(8)
        ours = convolve_line(line, kernel)
        ref = np.real(
            np.fft.ifft(np.fft.fft(kernel) * np.fft.fft(line))
        )
        np.testing.assert_allclose(ours, ref, atol=tolerances.SPECTRAL_ATOL)

    def test_multilayer_lines(self, rng):
        kernel = rng.standard_normal(8)
        lines = rng.standard_normal((8, 3))
        out = convolve_line(lines, kernel)
        for k in range(3):
            np.testing.assert_allclose(
                out[:, k], convolve_line(lines[:, k], kernel)
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            convolve_line(np.zeros(4), np.zeros(5))


class TestFilterRows:
    def test_unfiltered_rows_untouched(self, small_grid, rng):
        field = rng.standard_normal((small_grid.nlat, small_grid.nlon))
        f = strong_filter(small_grid)
        out = fft_filter_rows(field, f)
        untouched = ~f.latitude_mask()
        np.testing.assert_array_equal(out[untouched], field[untouched])

    def test_fft_equals_convolution_full_field(self, small_grid, rng):
        field = rng.standard_normal((small_grid.nlat, small_grid.nlon, 4))
        for pfilter in (strong_filter(small_grid), weak_filter(small_grid)):
            a = fft_filter_rows(field, pfilter)
            b = convolution_filter_rows(field, pfilter)
            np.testing.assert_allclose(a, b, atol=tolerances.FILTER_ATOL)

    def test_filter_is_projection_like(self, small_grid, rng):
        """Applying twice damps at least as much as once, never amplifies."""
        field = rng.standard_normal((small_grid.nlat, small_grid.nlon))
        f = strong_filter(small_grid)
        once = fft_filter_rows(field, f)
        twice = fft_filter_rows(once, f)
        j = int(f.latitude_indices()[0])
        def power(x):
            spec = np.fft.rfft(x[j])
            return np.abs(spec[1:])
        assert np.all(power(twice) <= power(once) + tolerances.SPECTRAL_ATOL)
        assert np.all(power(once) <= power(field) + tolerances.SPECTRAL_ATOL)

    def test_zonal_mean_preserved(self, small_grid, rng):
        """Mass conservation through the filter (s = 0 untouched)."""
        field = rng.standard_normal((small_grid.nlat, small_grid.nlon))
        out = fft_filter_rows(field, strong_filter(small_grid))
        np.testing.assert_allclose(
            out.mean(axis=1), field.mean(axis=1), atol=tolerances.SPECTRAL_ATOL
        )

    def test_explicit_row_selection(self, small_grid, rng):
        field = rng.standard_normal((small_grid.nlat, small_grid.nlon))
        f = strong_filter(small_grid)
        out = fft_filter_rows(field, f, lat_indices=[0])
        np.testing.assert_array_equal(out[1:], field[1:])
        assert not np.allclose(out[0], field[0])

    def test_empty_selection_noop(self, small_grid, rng):
        field = rng.standard_normal((small_grid.nlat, small_grid.nlon))
        out = fft_filter_rows(field, strong_filter(small_grid), lat_indices=[])
        np.testing.assert_array_equal(out, field)

    def test_wrong_nlon(self, small_grid):
        f = strong_filter(small_grid)
        with pytest.raises(ValueError):
            fft_filter_rows(np.zeros((4, 99)), f)
        with pytest.raises(ValueError):
            convolution_filter_rows(np.zeros((4, 99)), f)

    def test_transfer_bin_mismatch(self):
        with pytest.raises(ValueError):
            fft_filter_line(np.zeros(16), np.ones(4))

    @given(seed=st.integers(0, 500), nlat=st.integers(8, 16),
           nlon=st.sampled_from([12, 16, 24]))
    @settings(max_examples=15, deadline=None)
    def test_equivalence_property(self, seed, nlat, nlon):
        grid = SphericalGrid(nlat, nlon)
        field = np.random.default_rng(seed).standard_normal((nlat, nlon))
        f = weak_filter(grid)
        np.testing.assert_allclose(
            fft_filter_rows(field, f),
            convolution_filter_rows(field, f),
            atol=tolerances.FILTER_ATOL,
        )


class TestFlopCounts:
    def test_fft_count_scales(self):
        assert fft_filter_flop_count(144, 2, 3) == pytest.approx(
            6 * fft_filter_flop_count(144, 1, 1)
        )

    def test_fft_n_log_n(self):
        f1 = fft_filter_flop_count(128, 1)
        f2 = fft_filter_flop_count(256, 1)
        # doubling N slightly more than doubles the cost
        assert 2.0 < f2 / f1 < 2.4

    def test_fft_trivial_line(self):
        assert fft_filter_flop_count(1, 5, 9) == 0.0
