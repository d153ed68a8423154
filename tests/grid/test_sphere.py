"""Tests for the spherical grid geometry."""

import math

import numpy as np
import pytest

from repro import constants as c
from repro.dynamics.geometry import LocalGeometry
from repro.grid.sphere import SphericalGrid


class TestCoordinates:
    def test_paper_resolution_dims(self):
        grid = SphericalGrid(90, 144)
        assert grid.dlat_deg == pytest.approx(2.0)
        assert grid.dlon_deg == pytest.approx(2.5)

    def test_latitudes_symmetric_and_ordered(self, paper_grid):
        lat = paper_grid.lat_deg
        assert lat[0] == pytest.approx(-89.0)
        assert lat[-1] == pytest.approx(89.0)
        np.testing.assert_allclose(lat, -lat[::-1])
        assert np.all(np.diff(lat) > 0)

    def test_no_point_at_poles(self, paper_grid):
        assert np.abs(paper_grid.lat_deg).max() < 90.0

    def test_longitudes_start_at_zero(self, small_grid):
        assert small_grid.lon_deg[0] == 0.0
        assert small_grid.lon_deg[-1] < 360.0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            SphericalGrid(0, 10)
        with pytest.raises(ValueError):
            SphericalGrid(10, 10, radius=-1)


class TestMetrics:
    def test_zonal_spacing_collapses_poleward(self, paper_grid):
        """The fact that forces the polar filter to exist."""
        dx = paper_grid.dlon_m
        mid = paper_grid.nlat // 2
        assert dx[0] < dx[mid] / 10
        assert dx[-1] < dx[mid] / 10

    def test_zonal_spacing_value_at_equator(self):
        grid = SphericalGrid(90, 144)
        # ~2.5 deg at cos(1 deg): a * cos * dlon
        expected = c.EARTH_RADIUS * math.cos(math.radians(1.0)) * math.radians(2.5)
        assert grid.dlon_m[45] == pytest.approx(expected)

    def test_meridional_spacing_uniform(self, paper_grid):
        expected = c.EARTH_RADIUS * math.radians(2.0)
        assert paper_grid.dlat_m == pytest.approx(expected)

    def test_coriolis_sign_and_magnitude(self, paper_grid):
        f = LocalGeometry.from_grid(paper_grid).f_c[1:-1]
        assert f[0] < 0 < f[-1]
        assert abs(f).max() == pytest.approx(2 * c.EARTH_OMEGA, rel=1e-3)

    def test_total_area_is_sphere(self, small_grid):
        assert small_grid.cell_area.sum() * small_grid.nlon == pytest.approx(
            4 * math.pi * c.EARTH_RADIUS**2, rel=1e-10
        )

    def test_cell_area_positive(self, small_grid):
        assert np.all(small_grid.cell_area > 0)

    def test_describe(self):
        s = SphericalGrid(90, 144).describe()
        assert "2" in s and "2.5" in s
