"""Tridiagonal solvers for implicit column (vertical) operators.

Paper Section 5 lists "fast (parallel) linear system solvers for implicit
time-differencing schemes" among the reusable GCM components worth
building.  Column-implicit schemes such as
vertical diffusion reduce to many independent tridiagonal systems — one
per grid column — so the natural "parallelisation" under the AGCM's
horizontal decomposition is simply batching: every rank solves its own
columns with no communication at all.

:func:`solve_tridiagonal` is the Thomas algorithm, vectorised over a
batch of systems and validated against dense solves in the test suite;
:func:`diffusion_system` builds the bands of backward-Euler vertical
diffusion.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _check_bands(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if not (lower.shape == diag.shape == upper.shape == rhs.shape):
        raise ValueError(
            "lower, diag, upper, rhs must share a shape; got "
            f"{lower.shape}, {diag.shape}, {upper.shape}, {rhs.shape}"
        )
    if diag.shape[-1] < 2:
        raise ValueError("systems must have at least 2 unknowns")
    return lower, diag, upper, rhs


def solve_tridiagonal(
    lower: np.ndarray,
    diag: np.ndarray,
    upper: np.ndarray,
    rhs: np.ndarray,
) -> np.ndarray:
    """Solve batched tridiagonal systems with the Thomas algorithm.

    All arrays have shape ``(..., n)``: the last axis is the system, any
    leading axes are independent batch dimensions (grid columns).
    ``lower[..., 0]`` and ``upper[..., -1]`` are ignored.

    The Thomas algorithm is stable for the diagonally dominant matrices
    implicit diffusion produces; no pivoting is performed.
    """
    lower, diag, upper, rhs = _check_bands(lower, diag, upper, rhs)
    n = diag.shape[-1]
    cp = np.empty_like(diag)   # modified upper band
    dp = np.empty_like(rhs)    # modified rhs
    cp[..., 0] = upper[..., 0] / diag[..., 0]
    dp[..., 0] = rhs[..., 0] / diag[..., 0]
    for k in range(1, n):
        denom = diag[..., k] - lower[..., k] * cp[..., k - 1]
        cp[..., k] = upper[..., k] / denom
        dp[..., k] = (rhs[..., k] - lower[..., k] * dp[..., k - 1]) / denom
    out = np.empty_like(rhs)
    out[..., -1] = dp[..., -1]
    for k in range(n - 2, -1, -1):
        out[..., k] = dp[..., k] - cp[..., k] * out[..., k + 1]
    return out


def diffusion_system(
    nz: int, dt: float, kappa: float, dz: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bands of the backward-Euler vertical-diffusion operator.

    ``(I - dt K d2/dz2)`` with Neumann (no-flux) boundaries; returns
    ``(lower, diag, upper)`` of shape (nz,) ready to broadcast over a
    column batch.
    """
    if nz < 2 or dt <= 0 or kappa < 0 or dz <= 0:
        raise ValueError("invalid diffusion system parameters")
    r = dt * kappa / dz**2
    lower = np.full(nz, -r)
    upper = np.full(nz, -r)
    diag = np.full(nz, 1.0 + 2.0 * r)
    # No-flux boundaries: the missing neighbour folds into the diagonal.
    diag[0] = 1.0 + r
    diag[-1] = 1.0 + r
    lower[0] = 0.0
    upper[-1] = 0.0
    return lower, diag, upper
