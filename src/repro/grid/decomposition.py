"""Block domain decomposition of the AGCM grid over a processor mesh.

The parallel UCLA AGCM partitions the horizontal plane over an ``M x N``
processor mesh (paper Section 2): each rank owns a rectangular lat-lon
block containing *all* vertical layers, because column physics couples the
vertical too strongly to split it.  Grid extents are generally not
divisible by the mesh (the paper's own 8x30 mesh over a 90 x 144 grid is
not), so blocks use the front-loaded partition of
:func:`repro.util.partition.block_partition`.

AGCM-3DLF (arXiv:2103.10114) also splits the vertical: on an
``M x N x K`` mesh each rank owns a ``(nlat_loc, nlon_loc, nlev_loc)``
slab, and vertically coupled work transposes to column space over the
pillar of ranks sharing one tile (:mod:`repro.model.parallel_agcm`).  The
paper's layout is the ``K == 1`` case of the same :class:`Decomposition`.
Horizontal operators (halo exchange, polar filtering) run on one vertical
level at a time, :meth:`Decomposition.slab`; an unsplit decomposition is
its own only slab.

Single-level fields (``ps``) cannot be split vertically; they are
replicated across each pillar and evolve identically on every replica
(the surface-pressure tendency is made pillar-consistent by summing the
full-K layer mean in global layer order).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.topology import ProcessorMesh
from repro.util.partition import block_bounds


@dataclass(frozen=True)
class Subdomain:
    """The rectangular block of the global grid owned by one rank.

    ``lat0:lat1``, ``lon0:lon1`` and ``lev0:lev1`` are half-open global
    index ranges (axis 0 = latitude, axis 1 = longitude, axis 2 = model
    layer, bottom to top).  On an unsplit mesh the block covers the whole
    column: ``lev1`` is the layer count, or ``None`` when the
    decomposition was not given one.
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
    lev1: Optional[int]

    @property
    def nlat(self) -> int:
        """Local latitude extent."""
        return self.lat1 - self.lat0

    @property
    def nlon(self) -> int:
        """Local longitude extent."""
        return self.lon1 - self.lon0

    @property
    def nlev(self) -> Optional[int]:
        """Local layer extent (``None``: the whole, uncounted column)."""
        return None if self.lev1 is None else self.lev1 - self.lev0

    @property
    def lat_slice(self) -> slice:
        """Global latitude slice of this block."""
        return slice(self.lat0, self.lat1)

    @property
    def lon_slice(self) -> slice:
        """Global longitude slice of this block."""
        return slice(self.lon0, self.lon1)

    @property
    def lev_slice(self) -> slice:
        """Global layer slice of this block."""
        return slice(self.lev0, self.lev1)

    @property
    def shape(self) -> Tuple[int, int]:
        """Local horizontal shape (nlat, nlon)."""
        return (self.nlat, self.nlon)


class SlabMesh:
    """The horizontal mesh of one vertical level of a split mesh.

    Exposes the :class:`~repro.parallel.topology.ProcessorMesh` surface
    the horizontal code (halo exchange, filter backends) needs, but in
    terms of **global ranks**: ``rank_of(i, j)`` returns the global rank
    at ``(i, j, klev)`` and ``coords_of`` accepts a global rank.  Because
    the filter backends place mesh ranks directly into the ``Exchange``
    schedules they yield, this is what lets them run per slab on the
    world communicator unmodified.
    """

    nlev_procs = 1

    def __init__(self, mesh: ProcessorMesh, klev: int):
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

    # Horizontal neighbours preserve klev on the parent mesh, so the
    # slab can simply delegate.
    def neighbours(self, rank: int):
        return self._mesh.neighbours(rank)

    def describe(self) -> str:
        return (f"{self.nlat_procs} x {self.nlon_procs}"
                f" [slab k={self.klev}]")


class Decomposition:
    """Block decomposition of an ``nlat x nlon (x nlev)`` grid over a
    processor mesh of any ``nlev_procs``.

    ``nlev`` (the model's layer count) is required only when the mesh
    splits the vertical (``nlev_procs > 1``).
    """

    def __init__(self, nlat: int, nlon: int, mesh: ProcessorMesh,
                 nlev: Optional[int] = None):
        if nlev is None and mesh.nlev_procs > 1:
            raise ValueError(
                f"mesh {mesh.describe()} splits the vertical: give the "
                f"layer count nlev"
            )
        if (nlat < mesh.nlat_procs or nlon < mesh.nlon_procs
                or (nlev is not None and nlev < mesh.nlev_procs)):
            raise ValueError(
                f"grid {nlat}x{nlon}{'' if nlev is None else f'x{nlev}'} "
                f"too small for mesh {mesh.describe()}"
            )
        self.nlat = nlat
        self.nlon = nlon
        self.nlev = nlev
        self.mesh = mesh
        self._lat_bounds = block_bounds(nlat, mesh.nlat_procs)
        self._lon_bounds = block_bounds(nlon, mesh.nlon_procs)
        self._lev_bounds = (
            [(0, None)] if nlev is None else block_bounds(nlev, mesh.nlev_procs)
        )
        #: Keyed by global rank, in rank order (a slab holds one level's).
        self._subdomains: Dict[int, Subdomain] = {}
        for rank in range(mesh.size):
            i, j, k = mesh.coords3_of(rank)
            self._subdomains[rank] = Subdomain(
                rank, i, j, k, *self._lat_bounds[i], *self._lon_bounds[j],
                *self._lev_bounds[k],
            )
        self._slabs: Dict[int, Decomposition] = {}

    # -- lookup --------------------------------------------------------
    def subdomain(self, rank: int) -> Subdomain:
        """The :class:`Subdomain` owned by global rank ``rank``."""
        return self._subdomains[rank]

    def subdomains(self) -> List[Subdomain]:
        """All subdomains in rank order."""
        return list(self._subdomains.values())

    def lat_bounds_of_proc_row(self, ilat_proc: int) -> Tuple[int, int]:
        """Global latitude range owned by processor row ``ilat_proc``."""
        return self._lat_bounds[ilat_proc]

    def lon_bounds_of_proc_col(self, jlon_proc: int) -> Tuple[int, int]:
        """Global longitude range owned by processor column ``jlon_proc``."""
        return self._lon_bounds[jlon_proc]

    def lev_bounds_of_proc(self, klev_proc: int) -> Tuple[int, Optional[int]]:
        """Global layer range owned by vertical processor ``klev_proc``."""
        return self._lev_bounds[klev_proc]

    def slab(self, klev: int) -> "Decomposition":
        """The horizontal decomposition of vertical level ``klev``.

        An unsplit decomposition is its own only slab.  On a split mesh
        the slab is this decomposition over a :class:`SlabMesh`, holding
        the level's subdomains keyed by global rank, so
        ``exchange_halos`` and every filter backend run on it unchanged
        (built once per level).
        """
        if not 0 <= klev < self.mesh.nlev_procs:
            raise IndexError(f"klev {klev} outside mesh {self.mesh.describe()}")
        if self.mesh.nlev_procs == 1:
            return self
        view = self._slabs.get(klev)
        if view is None:
            view = self._slabs[klev] = copy.copy(self)
            view.mesh = SlabMesh(self.mesh, klev)
            view._subdomains = {
                rank: sub for rank, sub in self._subdomains.items()
                if sub.klev_proc == klev
            }
            view._slabs = {}
        return view

    # -- scatter / gather (serial reference; used by tests & drivers) ---
    def scatter(self, global_field: np.ndarray) -> List[np.ndarray]:
        """Split a global ``(nlat, nlon, ...)`` array into per-rank blocks.

        Returns copies (each rank owns its memory, as on a real machine).
        On a split mesh axis 2 is split by layer too, except for a
        single-level field (layer extent 1, e.g. ``ps``), which every
        rank of a pillar receives whole.
        """
        if global_field.shape[:2] != (self.nlat, self.nlon):
            raise ValueError(
                f"field shape {global_field.shape[:2]} does not match grid "
                f"({self.nlat}, {self.nlon})"
            )
        by_layer = (self.mesh.nlev_procs > 1 and global_field.ndim > 2
                    and global_field.shape[2] != 1)
        return [
            np.ascontiguousarray(
                global_field[s.lat_slice, s.lon_slice, s.lev_slice]
                if by_layer else global_field[s.lat_slice, s.lon_slice]
            )
            for s in self._subdomains.values()
        ]

    def gather(self, blocks: List[np.ndarray],
               single_level: Optional[bool] = None) -> np.ndarray:
        """Reassemble per-rank blocks into a global array.

        On a split mesh, layered blocks are joined along axis 2 too;
        replicated fields (``ps``, or blocks without a layer axis) take
        the copy of each pillar's ``klev == 0`` rank (all replicas are
        equal by construction).  When ``single_level`` is None it is
        inferred from shape — layer extent 1 on a rank whose slab has
        more — but that heuristic is ambiguous when the split leaves one
        layer per rank, so callers gathering ``ps`` on such meshes must
        pass ``single_level=True``.
        """
        if len(blocks) != self.mesh.size:
            raise ValueError(
                f"need {self.mesh.size} blocks, got {len(blocks)}"
            )
        first = blocks[0]
        split = self.mesh.nlev_procs > 1
        subs = self.subdomains()
        by_layer = split and first.ndim > 2
        if by_layer and single_level is None:
            single_level = first.shape[2] == 1 and subs[0].nlev != 1
        by_layer = by_layer and not single_level
        shape = (self.nlat, self.nlon, *first.shape[2:])
        if by_layer:
            shape = (self.nlat, self.nlon, self.nlev, *first.shape[3:])
        out = np.empty(shape, dtype=first.dtype)
        for sub, block in zip(subs, blocks):
            if block.shape[:2] != sub.shape:
                raise ValueError(
                    f"rank {sub.rank}: block shape {block.shape[:2]} != "
                    f"subdomain {sub.shape}"
                )
            if by_layer:
                out[sub.lat_slice, sub.lon_slice, sub.lev_slice] = block
            elif not split or sub.klev_proc == 0:
                out[sub.lat_slice, sub.lon_slice] = block
        return out


#: The ``(nlat, nlon, mesh)`` spelling ``bench/probes.py`` imports; it
#: goes when ROADMAP item 1 brings ``bench/`` level with the tree.
Decomposition2D = Decomposition
