"""Spherical longitude-latitude grid geometry.

The UCLA AGCM uses a uniform longitude-latitude grid (the horizontal part
of the Arakawa C-mesh).  The key geometric fact driving the whole paper is
that the *physical* zonal grid spacing ``a cos(phi) dlambda`` shrinks
toward the poles, violating the CFL condition there for a fixed time step
— which is why the polar spectral filter exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro import constants as c
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class SphericalGrid:
    """A uniform lat-lon grid on the sphere.

    Latitude cell centres run from ``-90 + dlat/2`` to ``90 - dlat/2``
    (no grid point exactly at the poles, matching the C-grid thermodynamic
    points); longitudes run from 0 with spacing ``dlon``.

    Parameters
    ----------
    nlat, nlon:
        Number of latitude and longitude cell centres.
    radius:
        Sphere radius [m].
    """

    nlat: int
    nlon: int
    radius: float = c.EARTH_RADIUS

    def __post_init__(self) -> None:
        check_positive_int(self.nlat, "nlat")
        check_positive_int(self.nlon, "nlon")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    # -- coordinates ---------------------------------------------------
    @property
    def dlat_deg(self) -> float:
        """Latitude spacing [degrees]."""
        return 180.0 / self.nlat

    @property
    def dlon_deg(self) -> float:
        """Longitude spacing [degrees]."""
        return 360.0 / self.nlon

    @cached_property
    def lat_deg(self) -> np.ndarray:
        """Latitude of cell centres [degrees], south to north, shape (nlat,)."""
        d = self.dlat_deg
        return -90.0 + d / 2 + d * np.arange(self.nlat)

    @cached_property
    def lon_deg(self) -> np.ndarray:
        """Longitude of cell centres [degrees], shape (nlon,)."""
        return self.dlon_deg * np.arange(self.nlon)

    @cached_property
    def lat_rad(self) -> np.ndarray:
        """Latitudes in radians."""
        return self.lat_deg * c.DEG2RAD

    @cached_property
    def lon_rad(self) -> np.ndarray:
        """Longitudes in radians."""
        return self.lon_deg * c.DEG2RAD

    @cached_property
    def cos_lat(self) -> np.ndarray:
        """cos(latitude) at cell centres (the map factor), shape (nlat,)."""
        return np.cos(self.lat_rad)

    # -- metric terms ---------------------------------------------------
    @property
    def dlat_m(self) -> float:
        """Meridional grid spacing [m] (uniform)."""
        return self.radius * self.dlat_deg * c.DEG2RAD

    @cached_property
    def dlon_m(self) -> np.ndarray:
        """Zonal grid spacing [m] at each latitude, shape (nlat,).

        This is the quantity that collapses toward the poles and forces
        the polar filter.
        """
        return self.radius * self.cos_lat * self.dlon_deg * c.DEG2RAD

    @cached_property
    def cell_area(self) -> np.ndarray:
        """Exact spherical cell areas [m^2], shape (nlat,).

        ``a^2 dlambda (sin(phi_n) - sin(phi_s))`` per cell; identical for
        every longitude at a given latitude.
        """
        d = self.dlat_deg * c.DEG2RAD
        edges = np.concatenate(
            ([-np.pi / 2], (self.lat_rad[:-1] + self.lat_rad[1:]) / 2, [np.pi / 2])
        )
        band = np.sin(edges[1:]) - np.sin(edges[:-1])
        return self.radius**2 * (self.dlon_deg * c.DEG2RAD) * band

    # -- convenience ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """(nlat, nlon) — the horizontal array shape used everywhere."""
        return (self.nlat, self.nlon)

    def describe(self) -> str:
        """Resolution label in the paper's convention, e.g. '2 x 2.5 deg'."""
        return f"{self.dlat_deg:g} x {self.dlon_deg:g} deg ({self.nlat} x {self.nlon})"
