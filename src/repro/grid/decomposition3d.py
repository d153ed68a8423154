"""3-D domain decomposition of the AGCM grid (AGCM-3DLF style).

The classic UCLA decomposition (:mod:`repro.grid.decomposition`) splits
only the horizontal plane, because column physics couples the vertical
too strongly to split it naively.  AGCM-3DLF (arXiv:2103.10114) breaks
that cap: each rank owns a ``(nlat_loc, nlon_loc, nlev_loc)`` *slab*,
and whenever a computation genuinely couples the vertical (column
physics, the implicit vertical diffusion solve, the surface-pressure
closure) the pillar of ranks sharing one horizontal tile transposes to
*column space* — every pillar rank ends up with a horizontal subset of
the tile's columns carrying **all** model layers — computes there, and
transposes back.  Horizontal operators (finite differences, polar
filtering, halo exchange) run unchanged on each vertical slab, which is
why :meth:`Decomposition3D.slab` hands back a
:class:`~repro.grid.decomposition.Decomposition2D`-shaped view whose
mesh speaks *global* 3-D ranks — the existing halo/filter code runs on a
3-D mesh without modification.

Single-level fields (``ps``) cannot be split vertically; they are
replicated across each pillar and evolve identically on every replica
(the surface-pressure tendency is made pillar-consistent by summing the
full-K layer mean in global layer order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.grid.decomposition import Subdomain
from repro.parallel.topology import ProcessorMesh
from repro.util.partition import block_bounds, owner_of


@dataclass(frozen=True)
class Subdomain3D:
    """The rectangular slab of the global grid owned by one rank.

    ``lat0:lat1``, ``lon0:lon1`` and ``lev0:lev1`` are half-open global
    index ranges (axis 0 = latitude, axis 1 = longitude, axis 2 = model
    layer, ordered bottom to top).
    """

    rank: int
    ilat_proc: int
    jlon_proc: int
    klev_proc: int
    lat0: int
    lat1: int
    lon0: int
    lon1: int
    lev0: int
    lev1: int

    @property
    def nlat(self) -> int:
        return self.lat1 - self.lat0

    @property
    def nlon(self) -> int:
        return self.lon1 - self.lon0

    @property
    def nlev(self) -> int:
        return self.lev1 - self.lev0

    @property
    def lat_slice(self) -> slice:
        return slice(self.lat0, self.lat1)

    @property
    def lon_slice(self) -> slice:
        return slice(self.lon0, self.lon1)

    @property
    def lev_slice(self) -> slice:
        return slice(self.lev0, self.lev1)

    @property
    def shape(self) -> Tuple[int, int, int]:
        """Local slab shape (nlat, nlon, nlev)."""
        return (self.nlat, self.nlon, self.nlev)

    def horizontal(self) -> Subdomain:
        """The 2-D (horizontal) subdomain of this slab, same rank id."""
        return Subdomain(
            self.rank, self.ilat_proc, self.jlon_proc,
            self.lat0, self.lat1, self.lon0, self.lon1,
        )


class SlabMesh:
    """A 2-D mesh adapter over one vertical level of a 3-D mesh.

    Exposes the :class:`~repro.parallel.topology.ProcessorMesh` surface
    the horizontal code (halo exchange, filter backends) needs, but in
    terms of **global 3-D ranks**: ``rank_of(i, j)`` returns the global
    rank at ``(i, j, klev)`` and ``coords_of`` accepts a global rank.
    Because the filter backends place mesh ranks directly into
    the ``Exchange`` schedules they yield, this is the property that
    lets them run per-slab on the world communicator unmodified.
    """

    def __init__(self, mesh: ProcessorMesh, klev: int):
        if not 0 <= klev < mesh.nlev_procs:
            raise IndexError(f"klev {klev} outside mesh {mesh.describe()}")
        self._mesh = mesh
        self.klev = klev
        self.nlat_procs = mesh.nlat_procs
        self.nlon_procs = mesh.nlon_procs

    @property
    def size(self) -> int:
        """Ranks in this slab (one per horizontal tile)."""
        return self.nlat_procs * self.nlon_procs

    def rank_of(self, ilat: int, jlon: int) -> int:
        return self._mesh.rank_of(ilat, jlon, self.klev)

    def coords_of(self, rank: int) -> Tuple[int, int]:
        return self._mesh.coords_of(rank)

    def row_ranks(self, ilat: int) -> List[int]:
        return self._mesh.row_ranks(ilat, self.klev)

    def col_ranks(self, jlon: int) -> List[int]:
        return self._mesh.col_ranks(jlon, self.klev)

    # Horizontal neighbours preserve klev on the parent mesh, so the
    # slab can simply delegate.
    def neighbours(self, rank: int):
        return self._mesh.neighbours(rank)

    def describe(self) -> str:
        return (f"{self.nlat_procs} x {self.nlon_procs}"
                f" [slab k={self.klev}]")


class SlabDecomposition:
    """Decomposition2D-shaped view of one vertical level of a 3-D decomp.

    ``subdomain(rank)`` is keyed by *global* rank and returns the 2-D
    horizontal block, so ``exchange_halos`` and every filter backend
    accept this object in place of a real ``Decomposition2D``.
    """

    def __init__(self, parent: "Decomposition3D", klev: int):
        self._parent = parent
        self.nlat = parent.nlat
        self.nlon = parent.nlon
        self.mesh = SlabMesh(parent.mesh, klev)
        self.klev = klev
        self._subdomains: Dict[int, Subdomain] = {}
        for sub3 in parent.subdomains():
            if sub3.klev_proc == klev:
                self._subdomains[sub3.rank] = sub3.horizontal()

    def subdomain(self, rank: int) -> Subdomain:
        return self._subdomains[rank]

    def subdomains(self) -> List[Subdomain]:
        return [self._subdomains[r] for r in sorted(self._subdomains)]

    def lat_bounds_of_proc_row(self, ilat_proc: int) -> Tuple[int, int]:
        return self._parent.lat_bounds_of_proc_row(ilat_proc)

    def lon_bounds_of_proc_col(self, jlon_proc: int) -> Tuple[int, int]:
        return self._parent.lon_bounds_of_proc_col(jlon_proc)


class Decomposition3D:
    """Block decomposition of an ``nlat x nlon x nlev`` grid over a
    3-D processor mesh."""

    def __init__(self, nlat: int, nlon: int, nlev: int, mesh: ProcessorMesh):
        if (nlat < mesh.nlat_procs or nlon < mesh.nlon_procs
                or nlev < mesh.nlev_procs):
            raise ValueError(
                f"grid {nlat}x{nlon}x{nlev} too small for mesh "
                f"{mesh.describe()}"
            )
        self.nlat = nlat
        self.nlon = nlon
        self.nlev = nlev
        self.mesh = mesh
        self._lat_bounds = block_bounds(nlat, mesh.nlat_procs)
        self._lon_bounds = block_bounds(nlon, mesh.nlon_procs)
        self._lev_bounds = block_bounds(nlev, mesh.nlev_procs)
        self._subdomains: List[Subdomain3D] = []
        for rank in range(mesh.size):
            i, j, k = mesh.coords3_of(rank)
            lat0, lat1 = self._lat_bounds[i]
            lon0, lon1 = self._lon_bounds[j]
            lev0, lev1 = self._lev_bounds[k]
            self._subdomains.append(
                Subdomain3D(rank, i, j, k, lat0, lat1, lon0, lon1,
                            lev0, lev1)
            )
        self._slabs: Dict[int, SlabDecomposition] = {}

    # -- lookup --------------------------------------------------------
    def subdomain(self, rank: int) -> Subdomain3D:
        return self._subdomains[rank]

    def subdomains(self) -> List[Subdomain3D]:
        return list(self._subdomains)

    def owner_of_point(self, glat: int, glon: int, glev: int = 0) -> int:
        i = owner_of(glat, self.nlat, self.mesh.nlat_procs)
        j = owner_of(glon, self.nlon, self.mesh.nlon_procs)
        k = owner_of(glev, self.nlev, self.mesh.nlev_procs)
        return self.mesh.rank_of(i, j, k)

    def lat_bounds_of_proc_row(self, ilat_proc: int) -> Tuple[int, int]:
        return self._lat_bounds[ilat_proc]

    def lon_bounds_of_proc_col(self, jlon_proc: int) -> Tuple[int, int]:
        return self._lon_bounds[jlon_proc]

    def lev_bounds_of_proc(self, klev_proc: int) -> Tuple[int, int]:
        """Global layer range owned by vertical processor ``klev_proc``."""
        return self._lev_bounds[klev_proc]

    def slab(self, klev: int) -> SlabDecomposition:
        """The 2-D-compatible view of vertical level ``klev`` (cached)."""
        if klev not in self._slabs:
            self._slabs[klev] = SlabDecomposition(self, klev)
        return self._slabs[klev]

    # -- scatter / gather (serial reference; used by tests & drivers) ---
    def scatter(self, global_field: np.ndarray) -> List[np.ndarray]:
        """Split a global ``(nlat, nlon, K, ...)`` array into per-rank
        slabs.

        A single-level field (``K == 1``, e.g. surface pressure) cannot
        be split vertically: every rank of a pillar receives the full
        horizontal block, replicated.
        """
        if global_field.shape[:2] != (self.nlat, self.nlon):
            raise ValueError(
                f"field shape {global_field.shape[:2]} does not match "
                f"grid ({self.nlat}, {self.nlon})"
            )
        single = global_field.ndim > 2 and global_field.shape[2] == 1
        out = []
        for s in self._subdomains:
            block = global_field[s.lat_slice, s.lon_slice]
            if global_field.ndim > 2 and not single:
                block = block[:, :, s.lev_slice]
            out.append(np.ascontiguousarray(block))
        return out

    def gather(self, blocks: List[np.ndarray],
               single_level: bool | None = None) -> np.ndarray:
        """Reassemble per-rank slabs into a global array.

        Replicated single-level fields (``ps``) take the copy from the
        ``klev == 0`` rank of each pillar (all replicas are equal by
        construction).  When ``single_level`` is None it is inferred
        from shape — layer extent 1 on a rank whose slab has more —
        but that heuristic is ambiguous when the vertical split leaves
        one layer per rank, so callers gathering ``ps`` on such meshes
        must pass ``single_level=True`` explicitly.
        """
        if len(blocks) != self.mesh.size:
            raise ValueError(
                f"need {self.mesh.size} blocks, got {len(blocks)}"
            )
        first = blocks[0]
        if single_level is None:
            single_level = (first.ndim > 2 and first.shape[2] == 1
                            and self._subdomains[0].nlev != 1)
        single = bool(single_level)
        nk = 1 if single else self.nlev
        trailing = first.shape[3:] if first.ndim > 2 else ()
        shape = (self.nlat, self.nlon, nk, *trailing) if first.ndim > 2 \
            else (self.nlat, self.nlon)
        out = np.empty(shape, dtype=first.dtype)
        for sub, block in zip(self._subdomains, blocks):
            if single:
                if sub.klev_proc != 0:
                    continue
                out[sub.lat_slice, sub.lon_slice] = block
            elif first.ndim > 2:
                out[sub.lat_slice, sub.lon_slice, sub.lev_slice] = block
            else:
                if sub.klev_proc != 0:
                    continue
                out[sub.lat_slice, sub.lon_slice] = block
        return out

    def counts(self) -> Dict[int, int]:
        """Points per rank — used for load-distribution diagnostics."""
        return {s.rank: s.nlat * s.nlon * s.nlev for s in self._subdomains}
