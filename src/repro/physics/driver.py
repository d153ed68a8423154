"""The column-physics driver: runs every parameterisation on a column set.

AGCM/Physics "consists of a large amount of local computations with no
interprocessor communication" (paper Section 3.4): every column is
independent, so a rank can process any set of columns — which is exactly
what makes physics load balancing by column movement possible.

The driver returns both the physical tendencies and the per-column flop
counts; the virtual machine charges the sum, and the load balancer feeds
on per-rank totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.physics import clouds as cl
from repro.physics import condensation as cond
from repro.physics import convection as conv
from repro.physics import pbl
from repro.physics import radiation as rad
from repro.physics import solar


@dataclass(frozen=True)
class PhysicsParams:
    """Configuration of the physics package."""

    #: Solar declination [rad] (0 = equinox).
    declination: float = 0.0
    #: Amplitude of the pseudo-random cloud component.
    cloud_noise: float = 0.15
    #: Interval between physics calls [s] — increments are divided by it
    #: to produce tendencies.
    interval: float = 1800.0


@dataclass
class ColumnSet:
    """A batch of physics columns (flattened from a lat-lon block).

    All arrays share the leading ``ncol`` axis; profile arrays are
    (ncol, K).
    """

    pt: np.ndarray
    q: np.ndarray
    lat_rad: np.ndarray
    lon_rad: np.ndarray

    def __post_init__(self) -> None:
        ncol = self.pt.shape[0]
        if self.q.shape != self.pt.shape:
            raise ValueError("pt and q must have identical shapes")
        if self.lat_rad.shape != (ncol,) or self.lon_rad.shape != (ncol,):
            raise ValueError("lat/lon must be (ncol,)")

    @property
    def ncol(self) -> int:
        return self.pt.shape[0]

    @property
    def nlayers(self) -> int:
        return self.pt.shape[1]

    @classmethod
    def from_block(
        cls,
        pt_block: np.ndarray,
        q_block: np.ndarray,
        lat_rad: np.ndarray,
        lon_rad: np.ndarray,
    ) -> "ColumnSet":
        """Flatten a (nlat, nlon, K) block into columns (lat-major order)."""
        nlat, nlon, k = pt_block.shape
        lat2d = np.repeat(np.asarray(lat_rad), nlon)
        lon2d = np.tile(np.asarray(lon_rad), nlat)
        return cls(
            pt=pt_block.reshape(nlat * nlon, k).copy(),
            q=q_block.reshape(nlat * nlon, k).copy(),
            lat_rad=lat2d,
            lon_rad=lon2d,
        )


@dataclass
class PhysicsResult:
    """Tendencies plus the cost accounting of one physics call."""

    tend_pt: np.ndarray  # (ncol, K) [1/s]
    tend_q: np.ndarray   # (ncol, K) [1/s]
    flops: np.ndarray    # (ncol,) arithmetic cost per column
    precip: np.ndarray = None  # (ncol,) precipitation per call [q units]

    @property
    def total_flops(self) -> float:
        return float(self.flops.sum())


def run_physics(
    cols: ColumnSet,
    time_frac: float,
    step: int,
    params: PhysicsParams = PhysicsParams(),
    metrics=None,
) -> PhysicsResult:
    """Run the full physics suite on a column set.

    Components: solar geometry -> clouds -> longwave -> shortwave ->
    convective adjustment -> large-scale condensation -> PBL fluxes.
    Deterministic given (columns, time_frac, step).

    ``metrics`` is an optional :class:`repro.obs.MetricsRegistry`;
    when given, per-component flop counts are accumulated under
    ``physics.flops.*`` so profiles can break the physics cost down
    without the paper's instrumented rebuild.
    """
    mu = solar.cos_zenith(
        cols.lat_rad, cols.lon_rad, time_frac, params.declination
    )
    cf = cl.cloud_fraction(
        cols.pt, cols.q, cols.lat_rad, cols.lon_rad, step,
        noise_amp=params.cloud_noise,
    )
    lw_heat, lw_flops = rad.longwave_heating(cols.pt, cf)
    sw_heat, sw_flops = rad.shortwave_heating(mu, cols.q)
    conv_dpt, conv_dq, conv_flops = conv.convective_adjustment(cols.pt, cols.q)
    cond_dpt, cond_dq, precip, cond_flops = cond.large_scale_condensation(
        cols.pt, cols.q
    )
    pbl_dpt, pbl_dq, pbl_flops = pbl.surface_fluxes(cols.pt, cols.q, mu)

    inv_dt = 1.0 / params.interval
    tend_pt = lw_heat + sw_heat + (conv_dpt + cond_dpt) * inv_dt + pbl_dpt
    tend_q = (conv_dq + cond_dq) * inv_dt + pbl_dq
    flops = lw_flops + sw_flops + conv_flops + cond_flops + pbl_flops
    if metrics is not None:
        metrics.counter("physics.calls").inc()
        metrics.counter("physics.columns").inc(cols.ncol)
        for comp, comp_flops in (
            ("longwave", lw_flops), ("shortwave", sw_flops),
            ("convection", conv_flops), ("condensation", cond_flops),
            ("pbl", pbl_flops),
        ):
            metrics.counter(f"physics.flops.{comp}").inc(
                float(np.asarray(comp_flops).sum())
            )
    return PhysicsResult(tend_pt=tend_pt, tend_q=tend_q, flops=flops,
                         precip=precip)


def block_physics(
    pt_block: np.ndarray,
    q_block: np.ndarray,
    lat_rad: np.ndarray,
    lon_rad: np.ndarray,
    time_frac: float,
    step: int,
    params: PhysicsParams = PhysicsParams(),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physics on a (nlat, nlon, K) block; returns block-shaped tendencies.

    Returns (tend_pt, tend_q, flops2d) with flops2d shaped (nlat, nlon).
    """
    nlat, nlon, k = pt_block.shape
    cols = ColumnSet.from_block(pt_block, q_block, lat_rad, lon_rad)
    result = run_physics(cols, time_frac, step, params)
    return (
        result.tend_pt.reshape(nlat, nlon, k),
        result.tend_q.reshape(nlat, nlon, k),
        result.flops.reshape(nlat, nlon),
    )
