"""Physics workload estimation — what the load balancer reasons about.

:func:`column_flops` is the *exact* per-column cost of a physics call,
obtained from the same counters the driver uses (for analysis and tests).
It expresses the structure the paper describes: a base cost everywhere,
a shortwave surcharge on the daylight half, and a convection surcharge
concentrated where the atmosphere is conditionally unstable.

The module also holds the AGCM-3DLF leap schedules.
"""

from __future__ import annotations

import numpy as np

from repro.physics import clouds as cl
from repro.physics import condensation as cond
from repro.physics import convection as conv
from repro.physics import pbl
from repro.physics import radiation as rad
from repro.physics import solar
from repro.physics.driver import ColumnSet, PhysicsParams


def column_flops(
    cols: ColumnSet,
    time_frac: float,
    step: int,
    params: PhysicsParams = PhysicsParams(),
) -> np.ndarray:
    """Exact per-column flop counts without computing any tendencies.

    Evaluates only the cheap *cost triggers* (daylight mask, cloudy-layer
    count, instability iterations), mirroring what an estimating pass in
    the real code would do.
    """
    k = cols.nlayers
    mu = solar.cos_zenith(
        cols.lat_rad, cols.lon_rad, time_frac, params.declination
    )
    cf = cl.cloud_fraction(
        cols.pt, cols.q, cols.lat_rad, cols.lon_rad, step,
        noise_amp=params.cloud_noise,
    )
    cloudy = cl.cloudy_layer_count(cf)
    iters = conv.instability_iterations(cols.pt)
    wet = cond.supersaturated_layers(cols.pt, cols.q)
    lw = rad.LW_BASE + rad.LW_PER_LAYER * k + rad.LW_CLOUD_PER_LAYER * cloudy
    sw = np.where(mu > 0, rad.SW_BASE + rad.SW_PER_LAYER * k, 0.0)
    cv = conv.CONV_TRIGGER + conv.CONV_PER_ITER_LAYER * k * iters
    lsc = cond.COND_TRIGGER + cond.COND_PER_WET_LAYER * wet
    return lw + sw + cv + lsc + pbl.PBL_FLOPS


# ----------------------------------------------------------------------
# 3-D decomposition (AGCM-3DLF): leap schedules
# ----------------------------------------------------------------------

def leap_schedule(nchunks: int, klev: int) -> list:
    """The leap-format processing order of ``nchunks`` work chunks for
    vertical rank ``klev``: the identity sweep rotated by ``klev``.

    Rotating each vertical rank's sweep start means the pillar's ranks
    touch *different* latitude chunks (and therefore different transpose
    partners and filter rows) at any instant — dependent latitude sweeps
    overlap across the vertical instead of serialising on the same rows.
    """
    if nchunks <= 0:
        raise ValueError("nchunks must be positive")
    start = klev % nchunks
    return [(start + i) % nchunks for i in range(nchunks)]
