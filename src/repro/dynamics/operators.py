"""Finite-difference operators on halo-padded lat-lon arrays.

All dynamics kernels operate on arrays padded with one ghost ring
(``halo = 1``): serial code pads with :func:`repro.grid.pad_with_halo`,
parallel code with :func:`repro.grid.exchange_halos`, and the *same*
kernels run in both — that is how the test suite proves the parallel
model bit-matches the serial one.

Array convention: axis 0 = latitude (south to north), axis 1 = longitude,
optional axis 2 = layer.  ``P`` denotes a padded array, interior =
``P[1:-1, 1:-1]``.

The streaming kernel in :mod:`repro.dynamics.tendencies` inlines these
operators; they are kept in expression form as the oracle its tests
compare it with byte for byte.
"""

from __future__ import annotations

import numpy as np


def v_at_u_points(v_padded: np.ndarray) -> np.ndarray:
    """Four-point average of C-grid v onto interior u points.

    ``v[j, i]`` sits on the north face of cell (j, i); the u point of cell
    (j, i) is its east face, surrounded by the four v points
    (j, i), (j, i+1), (j-1, i), (j-1, i+1).
    """
    return 0.25 * (
        v_padded[1:-1, 1:-1]
        + v_padded[1:-1, 2:]
        + v_padded[:-2, 1:-1]
        + v_padded[:-2, 2:]
    )


def u_at_v_points(u_padded: np.ndarray) -> np.ndarray:
    """Four-point average of C-grid u onto interior v points."""
    return 0.25 * (
        u_padded[1:-1, 1:-1]
        + u_padded[1:-1, :-2]
        + u_padded[2:, 1:-1]
        + u_padded[2:, :-2]
    )


def laplacian5(padded: np.ndarray, dx: np.ndarray, dy: float) -> np.ndarray:
    """Five-point horizontal Laplacian at interior points (diffusion)."""
    d2x = (padded[1:-1, 2:] - 2 * padded[1:-1, 1:-1] + padded[1:-1, :-2])
    d2y = (padded[2:, 1:-1] - 2 * padded[1:-1, 1:-1] + padded[:-2, 1:-1])
    return d2x / _col(dx, d2x.ndim) ** 2 + d2y / dy**2


def _col(dx: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a (nlat,) metric vector for broadcasting over (nlat, nlon[, K])."""
    dx = np.asarray(dx)
    if dx.ndim == 0:
        return dx
    return dx.reshape(dx.shape[0], *([1] * (ndim - 1)))
