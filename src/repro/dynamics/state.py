"""Prognostic model state of the shallow-primitive AGCM core.

The reproduction's dynamical core is a multi-layer rotating
shallow-water ("shallow-primitive") system on the Arakawa C-grid — the
same *computational* structure as the UCLA AGCM's primitive-equation
solver (staggered finite differences, fast gravity waves that violate the
polar CFL condition, flux-form mass transport), which is what the paper's
performance analysis actually depends on.  See DESIGN.md for the
substitution note.

Prognostic variables (names follow the AGCM convention):

========  ===========================  ======================
name      meaning here                 filter set (paper)
========  ===========================  ======================
``u``     zonal wind [m/s]             strong
``v``     meridional wind [m/s]        strong
``pt``    layer mass field             strong
          (potential-temperature-like
          thickness proxy, ~theta0)
``ps``    surface-pressure proxy [Pa]  weak
``q``     specific-humidity tracer     weak
========  ===========================  ======================

All fields are (nlat, nlon, nlayers); ``ps`` carries a single layer so
that every filtered variable shares one array rank (a requirement of the
row-redistribution machinery, and incidentally of the paper's own
"filter all weakly filtered variables concurrently" reorganisation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro import constants as c
from repro.grid.sphere import SphericalGrid

#: Reference value of the ``pt`` mass field; geopotential is
#: ``PHI_SCALE * pt / PT_REFERENCE`` so gravity waves travel at
#: ``sqrt(PHI_SCALE)`` ~ 200 m/s when ``pt ~ PT_REFERENCE``.
PT_REFERENCE = 300.0
PHI_SCALE = c.GRAVITY * 4000.0

PROGNOSTIC_NAMES = ("u", "v", "pt", "ps", "q")


@dataclass
class ModelState:
    """The five prognostic fields plus simulation time."""

    u: np.ndarray
    v: np.ndarray
    pt: np.ndarray
    ps: np.ndarray
    q: np.ndarray
    time: float = 0.0  # seconds since start

    # -- construction ----------------------------------------------------
    @classmethod
    def zeros(cls, nlat: int, nlon: int, nlayers: int) -> "ModelState":
        """An all-zero state (pt set to the reference value)."""
        shape = (nlat, nlon, nlayers)
        return cls(
            u=np.zeros(shape),
            v=np.zeros(shape),
            pt=np.full(shape, PT_REFERENCE),
            ps=np.full((nlat, nlon, 1), c.P_REFERENCE),
            q=np.full(shape, 1e-3),
        )

    @classmethod
    def baroclinic_test(
        cls, grid: SphericalGrid, nlayers: int, seed: int = 7,
        amplitude: float = 1.0,
    ) -> "ModelState":
        """A balanced-ish zonal jet plus a reproducible perturbation.

        Mid-latitude westerly jets with a small wavenumber-4 thermal
        perturbation: enough structure to exercise advection, gravity
        waves and the polar filter without blowing up.  Every value is a
        pure function of (lat, lon, layer, seed), so a parallel rank can
        construct exactly its own subdomain — see
        :func:`initial_fields_block`.
        """
        state = cls.zeros(grid.nlat, grid.nlon, nlayers)
        fields = initial_fields_block(
            grid.lat_rad, grid.lon_rad, nlayers, seed=seed, amplitude=amplitude
        )
        for name in PROGNOSTIC_NAMES:
            getattr(state, name)[...] = fields[name]
        return state

    # -- views --------------------------------------------------------------
    def fields(self) -> Dict[str, np.ndarray]:
        """Name -> array mapping (shared memory, not copies)."""
        return {"u": self.u, "v": self.v, "pt": self.pt, "ps": self.ps, "q": self.q}

    def copy(self) -> "ModelState":
        """Deep copy."""
        return ModelState(
            u=self.u.copy(),
            v=self.v.copy(),
            pt=self.pt.copy(),
            ps=self.ps.copy(),
            q=self.q.copy(),
            time=self.time,
        )

    @property
    def shape(self) -> Tuple[int, int, int]:
        """(nlat, nlon, nlayers) of the 3-D fields."""
        return self.u.shape

    # -- diagnostics ---------------------------------------------------------
    def total_mass(self, grid: SphericalGrid) -> float:
        """Area-weighted global integral of ``pt`` (conserved quantity).

        The flux-form continuity equation conserves it exactly (up to
        time-discretisation), and the polar filter preserves it too
        because the zonal-mean (s = 0) component is never damped —
        a property test pins both facts down.
        """
        w = grid.cell_area[:, None, None]
        return float((self.pt * w).sum())

    def max_wind(self) -> float:
        """Maximum wind component magnitude [m/s] (stability monitor)."""
        return float(max(np.abs(self.u).max(), np.abs(self.v).max()))

    def is_finite(self) -> bool:
        """True if every prognostic field is finite."""
        return all(
            np.isfinite(a).all() for a in (self.u, self.v, self.pt, self.ps, self.q)
        )


def initial_fields_block(
    lat_rad: np.ndarray,
    lon_rad: np.ndarray,
    nlayers: int,
    seed: int = 7,
    amplitude: float = 1.0,
) -> Dict[str, np.ndarray]:
    """Baroclinic-test initial fields for an arbitrary lat-lon block.

    A pure pointwise function of coordinates, layer and ``seed`` (the
    perturbation "noise" is a trigonometric position hash, not an RNG
    stream), so serial and parallel initialisations agree bit-for-bit on
    every subdomain — the foundation of the serial-vs-parallel
    equivalence tests.
    """
    lat = np.asarray(lat_rad)[:, None, None]
    lon = np.asarray(lon_rad)[None, :, None]
    k = (np.arange(nlayers) + 1)[None, None, :] / nlayers
    nlat, nlon = lat.shape[0], lon.shape[1]

    u = 15.0 * amplitude * np.sin(2 * lat) ** 2 * np.cos(lat) * k
    u = np.broadcast_to(u, (nlat, nlon, nlayers)).copy()
    v = np.zeros((nlat, nlon, nlayers))

    bump = np.exp(-((np.abs(lat) - np.pi / 4) ** 2) / 0.08)
    pt = PT_REFERENCE + 2.0 * amplitude * bump * np.cos(4 * lon) * k
    # Deterministic pointwise "noise" (position hash) instead of an RNG,
    # formed in place: each step is the elementwise operation of
    # ``0.05 * amplitude * np.sin(43758.5453 * np.sin(phase))`` on the
    # same operands, so the bits are those of the expression.  ``pt`` has
    # its full shape already (``k`` spans the layers).
    noise = 127.1 * lat + 311.7 * lon + 97.3 * k
    noise += 0.618 * (seed + 1)
    np.sin(noise, out=noise)
    noise *= 43758.5453
    np.sin(noise, out=noise)
    noise *= 0.05 * amplitude
    pt += noise
    del noise

    q = np.broadcast_to(
        1e-2 * np.cos(lat) ** 2 * (1.0 - 0.8 * k), (nlat, nlon, nlayers)
    ).copy()
    ps = np.full((nlat, nlon, 1), c.P_REFERENCE)
    return {"u": u, "v": v, "pt": pt, "ps": ps, "q": q}


def scatter_initial_fields(
    decomp, grid: SphericalGrid, nlayers: int, seed: int = 7,
) -> List[Dict[str, np.ndarray]]:
    """Every rank's block of the initial fields, once per decomposition.

    The fields are a pointwise function of the coordinates, so they are
    computed once on the whole grid and cut up by ``decomp.scatter`` (on
    any mesh), not once per rank; each global array is
    dropped as soon as it is scattered, so the caller holds one copy.
    The blocks are the ranks' own memory, bit-identical to what
    :func:`initial_fields_block` gives on each rank's coordinates.  Runs
    whose cost does not depend on field values (the three backend runs
    of a filtering table's mesh) share one set of blocks.
    """
    fields = initial_fields_block(
        grid.lat_rad, grid.lon_rad, nlayers, seed=seed)
    blocks: List[Dict[str, np.ndarray]] = [
        {} for _ in range(decomp.mesh.size)
    ]
    for name in list(fields):
        for block, part in zip(blocks, decomp.scatter(fields.pop(name))):
            block[name] = part
    return blocks
