"""Tests for solar geometry."""

import math

import numpy as np
import pytest

from repro.physics.solar import (
    cos_zenith,
    declination,
    hour_angle,
)


class TestDeclination:
    def test_bounded_by_obliquity(self):
        days = np.arange(0, 360, 10)
        decls = [declination(d) for d in days]
        assert max(abs(d) for d in decls) <= math.radians(23.45) + 1e-12

    def test_solstice_sign(self):
        assert declination(171) > 0  # boreal summer
        assert declination(351) < 0


class TestZenith:
    def test_half_globe_daylight_at_equinox(self):
        lat = np.linspace(-math.pi / 2, math.pi / 2, 50)
        lon = np.linspace(0, 2 * math.pi, 72, endpoint=False)
        lat2, lon2 = [a.ravel() for a in np.meshgrid(lat, lon)]
        frac = (cos_zenith(lat2, lon2, time_frac=0.3) > 0).mean()
        assert frac == pytest.approx(0.5, abs=0.03)

    def test_noon_at_antisolar_longitude(self):
        """At time_frac=0.5 the sun is overhead at longitude 0."""
        mu = cos_zenith(np.array([0.0]), np.array([0.0]), 0.5)
        assert mu[0] == pytest.approx(1.0)

    def test_midnight_dark(self):
        mu = cos_zenith(np.array([0.0]), np.array([0.0]), 0.0)
        assert mu[0] == 0.0

    def test_terminator_moves_west(self):
        """The daylight pattern shifts with time — the moving physics load."""
        lon = np.linspace(0, 2 * math.pi, 36, endpoint=False)
        lat = np.zeros(36)
        m1 = cos_zenith(lat, lon, 0.25) > 0
        m2 = cos_zenith(lat, lon, 0.35) > 0
        assert not np.array_equal(m1, m2)

    def test_polar_day_with_declination(self):
        """High-latitude summer: daylight all around the circle."""
        lon = np.linspace(0, 2 * math.pi, 24, endpoint=False)
        lat = np.full(24, math.radians(85.0))
        mu = cos_zenith(lat, lon, 0.0, decl=math.radians(23.0))
        assert (mu > 0).all()

    def test_never_negative(self):
        lat = np.linspace(-1.5, 1.5, 20)
        mu = cos_zenith(lat, np.zeros(20), 0.1)
        assert np.all(mu >= 0)

    def test_hour_angle_shape(self):
        h = hour_angle(np.zeros(5), 0.25)
        assert h.shape == (5,)
