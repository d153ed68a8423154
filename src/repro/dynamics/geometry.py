"""Local (per-subdomain) metric arrays for the dynamics kernels.

The tendency kernels need latitude-dependent metrics both at cell centres
and at the staggered face points, *including* the ghost rows of the
halo-padded arrays.  :class:`LocalGeometry` precomputes them for an
arbitrary latitude block, so exactly the same kernel code serves the
serial model (block = whole globe) and every parallel subdomain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from repro import constants as c
from repro.grid.sphere import SphericalGrid


@dataclass(frozen=True)
class LocalGeometry:
    """Padded-row metric arrays for one latitude block ``[lat0, lat1)``.

    All per-row arrays have length ``nlat_local + 2`` and correspond to
    the rows of a halo-1 padded array (index 0 is the southern ghost row).
    Face arrays refer to the *northern* face of each padded row; face
    latitudes are clipped to the poles, which makes ``cos(face)`` vanish
    there and closes the meridional mass flux through the poles for free.

    One instance may serve many callers (every rank of a processor row
    in a simulated run), so its arrays are read-only.
    """

    lat0: int
    lat1: int
    dy: float
    lat_c: np.ndarray      # centre latitudes [rad], padded rows
    cos_c: np.ndarray      # cos(lat) at centres (floored away from zero)
    dx_c: np.ndarray       # zonal spacing [m] at centres
    f_c: np.ndarray        # Coriolis parameter at centres
    cos_n: np.ndarray      # cos(lat) at northern faces (0 at the poles)
    f_n: np.ndarray        # Coriolis at northern faces
    dx_n: np.ndarray       # zonal spacing [m] at northern faces
    diff_scale: np.ndarray # latitude scaling of the diffusion coefficient

    @classmethod
    def from_grid(cls, grid: SphericalGrid, lat0: int = 0, lat1: int | None = None,
                  cos_floor: float = 0.02) -> "LocalGeometry":
        """Build the metrics for latitude rows ``[lat0, lat1)`` of ``grid``.

        ``cos_floor`` keeps ``1/cos`` and ``1/dx`` finite at the rows
        nearest the poles — the standard polar-cap regularisation (the
        physical singularity is exactly what the spectral filter exists
        to tame, but the metric itself must stay finite).
        """
        if lat1 is None:
            lat1 = grid.nlat
        if not 0 <= lat0 < lat1 <= grid.nlat:
            raise ValueError(f"bad latitude block [{lat0}, {lat1})")
        dlat = grid.dlat_deg
        # Padded centre latitudes: ghost rows extend beyond the block.
        rows = np.arange(lat0 - 1, lat1 + 1)
        raw_c_deg = -90.0 + dlat / 2 + dlat * rows
        lat_c_deg = np.clip(raw_c_deg, -90.0, 90.0)
        lat_c = lat_c_deg * c.DEG2RAD
        cos_c = np.maximum(np.cos(lat_c), cos_floor)
        dlon_rad = grid.dlon_deg * c.DEG2RAD
        dx_c = grid.radius * cos_c * dlon_rad
        f_c = 2.0 * c.EARTH_OMEGA * np.sin(lat_c)
        # Northern faces of each padded row, from the *unclipped* centres
        # so that the face between the southern ghost row and row 0 of the
        # global grid lands exactly on the pole (cos = 0 closes the mass
        # flux through both poles — conservation depends on this).
        face_deg = np.clip(raw_c_deg + dlat / 2, -90.0, 90.0)
        face = face_deg * c.DEG2RAD
        cos_n = np.cos(face)
        cos_n[np.abs(face_deg) >= 90.0 - 1e-9] = 0.0
        f_n = 2.0 * c.EARTH_OMEGA * np.sin(face)
        dx_n = grid.radius * np.maximum(cos_n, cos_floor) * dlon_rad
        # Diffusion must satisfy nu * dt / dx^2 <= const at *every* row;
        # scaling nu by (dx / dx_45)^2 (capped at 1) keeps the zonal
        # diffusion number latitude-uniform even where dx collapses —
        # the spectral filter handles the wave CFL, this handles the
        # diffusive one.
        dx_ref = grid.radius * math.cos(math.radians(45.0)) * dlon_rad
        diff_scale = np.minimum(1.0, (dx_c / dx_ref) ** 2)
        for arr in (lat_c, cos_c, dx_c, f_c, cos_n, f_n, dx_n, diff_scale):
            arr.setflags(write=False)
        return cls(
            lat0=lat0,
            lat1=lat1,
            dy=grid.dlat_m,
            lat_c=lat_c,
            cos_c=cos_c,
            dx_c=dx_c,
            f_c=f_c,
            cos_n=cos_n,
            f_n=f_n,
            dx_n=dx_n,
            diff_scale=diff_scale,
        )

    # Convenience interior views (without ghost rows), reshaped to column
    # vectors for broadcasting over (nlat, nlon[, K]) interiors.
    def col(self, padded_row_array: np.ndarray, ndim: int = 2) -> np.ndarray:
        """Interior rows of a padded-row metric, shaped for broadcasting."""
        v = padded_row_array[1:-1]
        return v.reshape(v.shape[0], *([1] * (ndim - 1)))

    @cached_property
    def stencil(self) -> SimpleNamespace:
        """Row coefficients of the tendency kernel, formed once.

        Read-only ``(nlat_local, 1, 1)`` columns (``cos_n`` one row
        longer: the north faces of padded rows ``0 .. nlat_local``) that
        broadcast over ``(nlat, nlon, K)`` interiors, each computed with
        the expression the kernel would otherwise evaluate on every call.
        ``polar`` indexes the interior rows whose north face is a pole.
        """
        def col(rows: np.ndarray) -> np.ndarray:
            return self.col(rows, 3)

        dx_c, dx_n = col(self.dx_c), col(self.dx_n)
        cols = SimpleNamespace(
            dx_c=dx_c, two_dx_c=2.0 * dx_c, dx_c_sq=dx_c ** 2,
            dx_n=dx_n, two_dx_n=2.0 * dx_n, dx_n_sq=dx_n ** 2,
            cos_dy=col(self.cos_c) * self.dy,
            cos_n=self.cos_n[:-1].reshape(-1, 1, 1),
            f_c=col(self.f_c), neg_f_n=-col(self.f_n),
            diff_scale=col(self.diff_scale),
            polar=np.flatnonzero(self.cos_n[1:-1] <= 0.0),
        )
        for arr in vars(cols).values():
            arr.setflags(write=False)
        return cols
