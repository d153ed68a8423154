"""Arakawa C-grid staggering on the sphere.

The C-grid (Arakawa & Lamb 1977) places the velocity components on cell
faces and the thermodynamic variables at cell centres::

        +----v(i,j+1/2)----+
        |                  |
    u(i-1/2,j)   h(i,j)  u(i+1/2,j)
        |                  |
        +----v(i,j-1/2)----+

In array terms we adopt the convention (axis 0 = latitude j, axis 1 =
longitude i, axis 2 = layer k):

* ``h[j, i]``  — mass/thermodynamic point at the cell centre;
* ``u[j, i]``  — zonal wind on the *eastern* face of cell (j, i);
* ``v[j, i]``  — meridional wind on the *northern* face of cell (j, i)
  (so ``v[nlat-1, :]`` sits at the north polar cap edge and is pinned to
  zero, as is the implicit southern face of row 0).

Longitude is periodic; latitude is closed by the polar caps.
The averaging/stagger operators below are the building blocks of the
finite-difference dynamics.
"""

from __future__ import annotations

import numpy as np

from repro.grid.sphere import SphericalGrid


def to_u_points(h: np.ndarray) -> np.ndarray:
    """Average a centre field to u points (eastern faces).

    ``u_pt[j, i] = (h[j, i] + h[j, i+1]) / 2`` with periodic longitude.
    """
    return 0.5 * (h + np.roll(h, -1, axis=1))


def to_v_points(h: np.ndarray) -> np.ndarray:
    """Average a centre field to v points (northern faces).

    ``v_pt[j, i] = (h[j, i] + h[j+1, i]) / 2``; the northernmost row has
    no neighbour and is returned as the row value itself (polar cap).
    """
    out = np.empty_like(h)
    out[:-1] = 0.5 * (h[:-1] + h[1:])
    out[-1] = h[-1]
    return out


def u_to_centers(u: np.ndarray) -> np.ndarray:
    """Average u-point values back to cell centres (periodic)."""
    return 0.5 * (u + np.roll(u, 1, axis=1))


def v_to_centers(v: np.ndarray) -> np.ndarray:
    """Average v-point values back to cell centres.

    Row 0's southern face is the south polar cap (value 0 by convention).
    """
    out = np.empty_like(v)
    out[1:] = 0.5 * (v[1:] + v[:-1])
    out[0] = 0.5 * v[0]
    return out


def enforce_polar_v(v: np.ndarray) -> np.ndarray:
    """Pin the meridional wind at the polar cap edge to zero, in place.

    The northern face of the last latitude row is the pole; no mass may
    flow through it.  Returns ``v`` for chaining.
    """
    v[-1, ...] = 0.0
    return v


class ArakawaCGrid:
    """A C-staggered variable set on a :class:`SphericalGrid`.

    Bundles the geometry with the staggering conventions and exposes the
    metric arrays shaped for broadcasting over (nlat, nlon[, nlayers])
    fields.
    """

    def __init__(self, grid: SphericalGrid, nlayers: int = 1):
        if nlayers <= 0:
            raise ValueError("nlayers must be positive")
        self.grid = grid
        self.nlayers = nlayers

    @property
    def shape2d(self) -> tuple[int, int]:
        """Horizontal field shape (nlat, nlon)."""
        return self.grid.shape

    @property
    def shape3d(self) -> tuple[int, int, int]:
        """Full field shape (nlat, nlon, nlayers)."""
        return (*self.grid.shape, self.nlayers)

    def zeros3d(self) -> np.ndarray:
        """A zero-filled 3-D field."""
        return np.zeros(self.shape3d)

    @property
    def cos_lat_col(self) -> np.ndarray:
        """cos(lat) shaped (nlat, 1) for broadcasting over longitude."""
        return self.grid.cos_lat[:, None]

    @property
    def dx(self) -> np.ndarray:
        """Zonal spacing [m] shaped (nlat, 1)."""
        return self.grid.dlon_m[:, None]

    @property
    def dy(self) -> float:
        """Meridional spacing [m] (uniform scalar)."""
        return self.grid.dlat_m

    @property
    def coriolis_col(self) -> np.ndarray:
        """Coriolis parameter shaped (nlat, 1)."""
        return self.grid.coriolis[:, None]
