"""Tests for the polar filter definitions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.spectral import PolarFilter, strong_filter, weak_filter
from repro.grid.sphere import SphericalGrid


class TestTransferProperties:
    def test_zonal_mean_never_damped(self, paper_grid):
        f = strong_filter(paper_grid)
        for j in f.latitude_indices():
            assert f.transfer(int(j))[0] == 1.0

    def test_transfer_bounded(self, paper_grid):
        f = strong_filter(paper_grid)
        for j in range(paper_grid.nlat):
            t = f.transfer(j)
            assert np.all(t >= 0.0) and np.all(t <= 1.0)

    def test_no_damping_equatorward(self, paper_grid):
        f = strong_filter(paper_grid)
        equator_row = paper_grid.nlat // 2
        np.testing.assert_array_equal(f.transfer(equator_row), 1.0)

    def test_damping_monotone_in_wavenumber(self, paper_grid):
        """Shorter waves are damped at least as much."""
        f = strong_filter(paper_grid)
        polar_row = paper_grid.nlat - 1
        t = f.transfer(polar_row)
        assert np.all(np.diff(t[1:]) <= 1e-12)

    def test_damping_grows_poleward(self, paper_grid):
        f = strong_filter(paper_grid)
        rows = f.latitude_indices()
        north = [int(j) for j in rows if paper_grid.lat_deg[j] > 0]
        damp = [1.0 - f.transfer(j)[-1] for j in north]
        assert all(b >= a - 1e-12 for a, b in zip(damp, damp[1:]))

    def test_weak_filter_damps_less(self, paper_grid):
        s, w = strong_filter(paper_grid), weak_filter(paper_grid)
        j = paper_grid.nlat - 1  # northernmost row, both filters active
        assert w.transfer(j)[-1] > s.transfer(j)[-1]

    def test_transfer_caching_returns_readonly(self, paper_grid):
        t = strong_filter(paper_grid).transfer(0)
        with pytest.raises(ValueError):
            t[0] = 0.5


def _rows_per_hemisphere(f):
    """(southern, northern) counts of filtered latitude rows."""
    mask = f.latitude_mask()
    return (int(mask[f.grid.lat_deg < 0].sum()),
            int(mask[f.grid.lat_deg > 0].sum()))


class TestLatitudeBands:
    def test_strong_covers_about_half(self, paper_grid):
        """Strong filtering: poles to 45 deg, ~half of each hemisphere."""
        south, north = _rows_per_hemisphere(strong_filter(paper_grid))
        half = paper_grid.nlat // 4  # half a hemisphere
        assert south == north
        assert abs(south - half) <= 1

    def test_weak_covers_about_third(self, paper_grid):
        """Weak filtering: poles to 60 deg, ~one third of each hemisphere."""
        south, north = _rows_per_hemisphere(weak_filter(paper_grid))
        third = paper_grid.nlat // 6
        assert abs(south - third) <= 1

    def test_mask_matches_indices(self, small_grid):
        f = strong_filter(small_grid)
        mask = f.latitude_mask()
        np.testing.assert_array_equal(np.nonzero(mask)[0], f.latitude_indices())

    def test_invalid_critical_latitude(self, small_grid):
        with pytest.raises(ValueError):
            PolarFilter(small_grid, critical_lat_deg=90.0, name="bad")


class TestKernelEquivalence:
    def test_kernel_sums_to_one(self, small_grid):
        """DC preservation: circular kernel sums to T(0) = 1 -> conserves
        the zonal mean (and hence global mass)."""
        f = strong_filter(small_grid)
        for j in f.latitude_indices():
            assert f.kernel(int(j)).sum() == pytest.approx(1.0)

    def test_kernel_is_irfft_of_transfer(self, small_grid):
        f = strong_filter(small_grid)
        j = int(f.latitude_indices()[0])
        spec = np.fft.rfft(f.kernel(j))
        np.testing.assert_allclose(spec.real, f.transfer(j), atol=1e-12)
        np.testing.assert_allclose(spec.imag, 0.0, atol=1e-12)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_fft_equals_convolution_property(self, seed):
        """The convolution theorem — the identity the whole optimisation
        story rests on — on random lines."""
        grid = SphericalGrid(10, 16)
        f = strong_filter(grid)
        j = int(f.latitude_indices()[-1])
        line = np.random.default_rng(seed).standard_normal(grid.nlon)
        via_fft = np.fft.irfft(np.fft.rfft(line) * f.transfer(j), n=grid.nlon)
        kernel = f.kernel(j)
        idx = (np.arange(grid.nlon)[:, None] - np.arange(grid.nlon)) % grid.nlon
        via_conv = kernel[idx] @ line
        np.testing.assert_allclose(via_fft, via_conv, atol=1e-10)

    def test_damped_bin_count_grows_poleward(self, paper_grid):
        f = strong_filter(paper_grid)
        rows = [int(j) for j in f.latitude_indices()
                if paper_grid.lat_deg[j] > 0]
        counts = [f.damped_bin_count(j) for j in rows]
        assert counts[-1] > counts[0]
        assert counts[-1] <= paper_grid.nlon // 2

    def test_no_bins_damped_at_equator(self, paper_grid):
        assert strong_filter(paper_grid).damped_bin_count(45) == 0
