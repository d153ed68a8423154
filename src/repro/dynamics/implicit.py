"""Implicit vertical diffusion — the paper's implicit-scheme extension.

Paper Section 5 lists parallel solvers for implicit time-differencing
among the GCM components worth building.  The model runs one: with
``AGCMConfig.vertical_diffusion > 0`` every step applies
:func:`implicit_vertical_diffusion`, backward-Euler column diffusion via
batched tridiagonal solves (communication-free under the 2-D horizontal
decomposition, and on the 3-D pillar path once a column is whole).
"""

from __future__ import annotations

import numpy as np

from repro.solvers.tridiagonal import diffusion_system, solve_tridiagonal


def implicit_vertical_diffusion(
    field: np.ndarray, dt: float, kappa: float, dz: float = 1000.0
) -> np.ndarray:
    """Backward-Euler vertical diffusion of a (nlat, nlon, K) field.

    Solves ``(I - dt K d2/dz2) f_new = f`` independently in every column
    (no-flux top and bottom).  Unconditionally stable: any ``dt`` works,
    unlike the explicit form.
    """
    if field.ndim != 3:
        raise ValueError(f"expected (nlat, nlon, K), got shape {field.shape}")
    nz = field.shape[2]
    if nz == 1:
        return field.copy()  # a single layer cannot diffuse vertically
    lower, diag, upper = diffusion_system(nz, dt, kappa, dz)
    shape = field.shape
    batch = field.reshape(-1, nz)
    out = solve_tridiagonal(
        np.broadcast_to(lower, batch.shape),
        np.broadcast_to(diag, batch.shape),
        np.broadcast_to(upper, batch.shape),
        batch,
    )
    return out.reshape(shape)
