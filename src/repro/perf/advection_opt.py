"""The advection-routine optimisation study (paper Section 3.4).

The paper selected the Dynamics advection routine for single-node tuning
and reduced its execution time ~35% through machine-independent
restructuring: eliminating redundant calculations in nested loops,
replacing hand-coded loops with BLAS-style primitives, loop unrolling and
splitting very large loops.

Three implementations of the same flux-form advection tendency are
provided, each semantically identical (asserted by tests) and
progressively restructured:

``advection_naive``
    Straight transliteration of the original Fortran: triple scalar loop,
    metric terms and averages recomputed inside the innermost loop — the
    redundant work the paper eliminates first.
``advection_vectorized``
    Whole-array numpy expressions (the analogue of letting the compiler /
    library vectorise), but allocating temporaries freely.
``advection_optimized``
    Vectorised with preallocated scratch arrays, in-place ufuncs and the
    flux arrays shared between the x- and y-passes — the analogue of the
    BLAS + unrolling + loop-splitting end state.

The restructuring study prices these kernels, plus a "hoisted" stage
between naive and vectorized (loop invariants and the east-face flux
computed once per cell, the paper's "eliminating or minimising redundant
calculations in nested loops"), as loop descriptions on the node model:
:data:`repro.perf.access_patterns.ADVECTION_STAGES`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


def advection_naive(
    f: np.ndarray, u: np.ndarray, v: np.ndarray,
    dx: np.ndarray, dy: float,
) -> np.ndarray:
    """Naive scalar-loop flux-form advection tendency.

    ``f, u, v``: (nlat, nlon, K) padded-free periodic fields (longitude
    wraps, latitude edges one-sided).  Returns ``-div(f * (u, v))``.
    """
    nlat, nlon, k = f.shape
    out = np.zeros_like(f)
    for j in range(nlat):
        for i in range(nlon):
            for kk in range(k):
                ip = (i + 1) % nlon
                im = (i - 1) % nlon
                jp = min(j + 1, nlat - 1)
                jm = max(j - 1, 0)
                # Redundant recomputation, exactly as the original code:
                # face averages and metric divisions done per (i, j, k).
                fe = 0.5 * (f[j, i, kk] + f[j, ip, kk])
                fw = 0.5 * (f[j, im, kk] + f[j, i, kk])
                fn = 0.5 * (f[j, i, kk] + f[jp, i, kk])
                fs = 0.5 * (f[jm, i, kk] + f[j, i, kk])
                fx = (u[j, i, kk] * fe - u[j, im, kk] * fw) / dx[j]
                fy = (v[j, i, kk] * fn - v[jm, i, kk] * fs) / dy
                out[j, i, kk] = -(fx + fy)
    return out


def advection_vectorized(
    f: np.ndarray, u: np.ndarray, v: np.ndarray,
    dx: np.ndarray, dy: float,
) -> np.ndarray:
    """Whole-array numpy expressions (temporaries allocated freely)."""
    fe = 0.5 * (f + np.roll(f, -1, axis=1))
    flux_x = u * fe
    div_x = (flux_x - np.roll(flux_x, 1, axis=1)) / dx[:, None, None]

    # North-face average: interior rows average with the row above, the
    # top row degenerates to itself (one-sided edge convention).
    f_n = np.concatenate([0.5 * (f[:-1] + f[1:]), f[-1:]], axis=0)
    flux_y = v * f_n
    # The south face of row j is the north face of row j-1; the bottom
    # row's south flux uses v[0] and its own value (matching the scalar
    # variants' jm = max(j-1, 0) clamp).
    flux_y_south = np.concatenate([(v[0] * f[0])[None], flux_y[:-1]], axis=0)
    div_y = (flux_y - flux_y_south) / dy
    return -(div_x + div_y)


class AdvectionWorkspace:
    """Preallocated scratch arrays for :func:`advection_optimized`."""

    def __init__(self, shape):
        self.fe = np.empty(shape)
        self.flux = np.empty(shape)
        self.acc = np.empty(shape)
        self.out = np.empty(shape)


def advection_optimized(
    f: np.ndarray, u: np.ndarray, v: np.ndarray,
    dx: np.ndarray, dy: float,
    ws: Optional[AdvectionWorkspace] = None,
) -> np.ndarray:
    """Restructured vectorised form: in-place ufuncs, shared scratch.

    No per-call allocations when a workspace is supplied; the flux array
    is reused between the x and y passes (the paper's loop splitting +
    BLAS substitution end state).
    """
    if ws is None:
        ws = AdvectionWorkspace(f.shape)
    fe, flux, acc, out = ws.fe, ws.flux, ws.acc, ws.out

    # x pass: fe = 0.5 * (f + roll(f, -1)); flux = u * fe
    np.add(f, np.roll(f, -1, axis=1), out=fe)
    fe *= 0.5
    np.multiply(u, fe, out=flux)
    np.subtract(flux, np.roll(flux, 1, axis=1), out=acc)
    acc /= dx[:, None, None]
    np.negative(acc, out=out)

    # y pass reusing fe/flux as scratch.
    fe[:-1] = f[:-1]
    fe[:-1] += f[1:]
    fe[:-1] *= 0.5
    fe[-1] = f[-1]
    np.multiply(v, fe, out=flux)
    acc[1:] = flux[1:]
    acc[1:] -= flux[:-1]
    acc[0] = flux[0]
    acc[0] -= v[0] * f[0]
    acc /= dy
    out -= acc
    return out


def reference_advection(
    f: np.ndarray, u: np.ndarray, v: np.ndarray,
    dx: np.ndarray, dy: float,
) -> np.ndarray:
    """The semantics oracle all variants are tested against."""
    return advection_naive(f, u, v, dx, dy)


ALL_VARIANTS: Dict[str, callable] = {
    "naive": advection_naive,
    "vectorized": advection_vectorized,
    "optimized": advection_optimized,
}
