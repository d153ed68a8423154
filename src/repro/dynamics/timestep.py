"""Time integration: leapfrog with Robert-Asselin filtering.

The UCLA AGCM uses explicit time differencing (hence the CFL constraint
and the polar filter).  We integrate with the standard leapfrog scheme
plus a Robert-Asselin time filter to suppress the computational mode::

    next  = prev + 2 dt * F(now)
    now'  = now + alpha * (prev - 2 now + next)

The first step is a forward (Euler) half-step.  Polar spectral filtering
is applied to the prognostic fields *before* the finite-difference
tendencies are evaluated, matching the paper's "the spectral filtering is
performed at each time step before the finite-difference procedures are
called" (Section 3.3).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.dynamics.state import ModelState, PROGNOSTIC_NAMES

#: Robert-Asselin filter coefficient.
DEFAULT_RA_COEFF = 0.06


def euler_step(state: ModelState, tendencies: Dict[str, np.ndarray],
               dt: float) -> ModelState:
    """Forward-Euler update (used to start the leapfrog)."""
    new = state.copy()
    for name in PROGNOSTIC_NAMES:
        getattr(new, name)[...] += dt * tendencies[name]
    new.time = state.time + dt
    return new


def leapfrog_step(
    prev: ModelState,
    now: ModelState,
    tendencies: Dict[str, np.ndarray],
    dt: float,
    ra_coeff: float = DEFAULT_RA_COEFF,
) -> ModelState:
    """One leapfrog step; applies the Robert-Asselin filter to ``now``.

    Returns the new state at ``now.time + dt``; mutates ``now`` in place
    with the RA correction (as production leapfrog codes do).
    """
    nxt = prev.copy()
    for name in PROGNOSTIC_NAMES:
        arr = getattr(nxt, name)
        arr[...] = getattr(prev, name) + 2.0 * dt * tendencies[name]
    nxt.time = now.time + dt
    if ra_coeff > 0:
        for name in PROGNOSTIC_NAMES:
            n_arr = getattr(now, name)
            n_arr[...] += ra_coeff * (
                getattr(prev, name) - 2.0 * n_arr + getattr(nxt, name)
            )
    return nxt


def pin_polar_v(v: np.ndarray, is_north_edge_block: bool) -> None:
    """Zero the meridional wind on the north-polar cap face, in place.

    On the global grid (or the northernmost subdomain block) the last
    latitude row's v points sit on the pole; no mass crosses it.
    """
    if is_north_edge_block:
        v[-1, ...] = 0.0
