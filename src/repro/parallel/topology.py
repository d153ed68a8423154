"""Processor-mesh topology for the 2-D/3-D AGCM decompositions.

The parallel UCLA AGCM places its ranks on an ``M x N`` logical mesh with
``M`` processors along latitude and ``N`` along longitude (paper Section
3.3).  Longitude is periodic (the sphere wraps around), latitude is not
(rows end at the poles).

Following AGCM-3DLF (arXiv:2103.10114) the mesh optionally extends into
the vertical: an ``M x N x K`` mesh adds ``nlev_procs`` processors along
the model-layer direction.  The vertical is neither periodic nor polar —
pillars simply end at the top and bottom layers.  A 2-D mesh is exactly
the ``nlev_procs == 1`` special case, and rank numbering is chosen so
that the 2-D layout is bit-for-bit unchanged in that case:

    rank = (ilat * nlon_procs + jlon) * nlev_procs + klev
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class ProcessorMesh:
    """An ``nlat_procs x nlon_procs x nlev_procs`` logical processor mesh.

    Rank numbering is row-major with the vertical fastest:
    rank = ``(i * nlon_procs + j) * nlev_procs + k`` where ``i`` indexes
    the latitude direction (0 = southernmost processor row), ``j`` the
    longitude direction and ``k`` the vertical (0 = lowest layer block).
    With ``nlev_procs == 1`` (the default) this reduces to the classic
    2-D numbering ``rank = i * nlon_procs + j``.
    """

    nlat_procs: int
    nlon_procs: int
    nlev_procs: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.nlat_procs, "nlat_procs")
        check_positive_int(self.nlon_procs, "nlon_procs")
        check_positive_int(self.nlev_procs, "nlev_procs")

    @property
    def size(self) -> int:
        """Total number of ranks in the mesh."""
        return self.nlat_procs * self.nlon_procs * self.nlev_procs

    @property
    def is_3d(self) -> bool:
        """Whether the mesh has vertical extent (``nlev_procs > 1``)."""
        return self.nlev_procs > 1

    def rank_of(self, ilat: int, jlon: int, klev: int = 0) -> int:
        """Rank at mesh coordinates ``(ilat, jlon[, klev])``."""
        if not (0 <= ilat < self.nlat_procs
                and 0 <= jlon < self.nlon_procs
                and 0 <= klev < self.nlev_procs):
            raise IndexError(
                f"coords ({ilat}, {jlon}, {klev}) outside mesh {self}"
            )
        return (ilat * self.nlon_procs + jlon) * self.nlev_procs + klev

    def coords_of(self, rank: int) -> Tuple[int, int]:
        """Horizontal mesh coordinates ``(ilat, jlon)`` of a rank.

        Kept 2-D for backwards compatibility with every horizontal-only
        caller; use :meth:`coords3_of` for the full triple.
        """
        i, j, _k = self.coords3_of(rank)
        return i, j

    def coords3_of(self, rank: int) -> Tuple[int, int, int]:
        """Full mesh coordinates ``(ilat, jlon, klev)`` of a rank."""
        if not 0 <= rank < self.size:
            raise IndexError(f"rank {rank} outside mesh of size {self.size}")
        horiz, k = divmod(rank, self.nlev_procs)
        i, j = divmod(horiz, self.nlon_procs)
        return i, j, k

    def row_ranks(self, ilat: int, klev: int = 0) -> List[int]:
        """All ranks in processor row ``ilat`` (constant latitude band)
        at vertical level ``klev``."""
        return [self.rank_of(ilat, j, klev) for j in range(self.nlon_procs)]

    def pillar_ranks(self, ilat: int, jlon: int) -> List[int]:
        """All ranks sharing the horizontal tile ``(ilat, jlon)``, bottom
        to top.  A pillar has one rank per vertical level; on a 2-D mesh
        every pillar is a singleton."""
        return [self.rank_of(ilat, jlon, k) for k in range(self.nlev_procs)]

    def east_of(self, rank: int) -> int:
        """Periodic eastern neighbour (longitude wraps around)."""
        i, j, k = self.coords3_of(rank)
        return self.rank_of(i, (j + 1) % self.nlon_procs, k)

    def west_of(self, rank: int) -> int:
        """Periodic western neighbour."""
        i, j, k = self.coords3_of(rank)
        return self.rank_of(i, (j - 1) % self.nlon_procs, k)

    def north_of(self, rank: int) -> Optional[int]:
        """Northern neighbour or ``None`` at the north-pole processor row."""
        i, j, k = self.coords3_of(rank)
        return None if i == self.nlat_procs - 1 else self.rank_of(i + 1, j, k)

    def south_of(self, rank: int) -> Optional[int]:
        """Southern neighbour or ``None`` at the south-pole processor row."""
        i, j, k = self.coords3_of(rank)
        return None if i == 0 else self.rank_of(i - 1, j, k)

    def neighbours(
        self, rank: int,
    ) -> Tuple[int, int, Optional[int], Optional[int]]:
        """``(east_of, west_of, north_of, south_of)`` of a rank.

        Read from a table built once per mesh, so the halo exchange's
        per-field lookups cost one index instead of four coordinate
        round trips.
        """
        if not 0 <= rank < self.size:
            raise IndexError(f"rank {rank} outside mesh of size {self.size}")
        return _neighbour_table(self)[rank]

    def up_of(self, rank: int) -> Optional[int]:
        """Neighbour one vertical level up, or ``None`` at the top block.

        The vertical is not periodic: the atmosphere ends at the model
        top, so pillars do not wrap."""
        i, j, k = self.coords3_of(rank)
        return None if k == self.nlev_procs - 1 else self.rank_of(i, j, k + 1)

    def down_of(self, rank: int) -> Optional[int]:
        """Neighbour one vertical level down, or ``None`` at the bottom
        block."""
        i, j, k = self.coords3_of(rank)
        return None if k == 0 else self.rank_of(i, j, k - 1)

    def buddy_of(self, rank: int) -> Optional[int]:
        """The partner holding ``rank``'s diskless checkpoint replica.

        The next rank around a ring: the periodic eastern neighbour when
        the mesh has longitudinal extent, otherwise the next rank along
        the latitude column (wrapping).  On a 3-D mesh the ring runs over
        the flat rank numbering instead, which stays a bijection for any
        extents.  ``None`` on a 1-rank mesh — there is nobody to
        replicate to, and :mod:`repro.guard` falls back to the disk
        checkpoint.  ``buddy_of`` is a bijection, so every rank guards
        exactly one other rank (its :meth:`ward_of`).
        """
        if self.size == 1:
            return None
        if self.is_3d:
            return (rank + 1) % self.size
        if self.nlon_procs > 1:
            return self.east_of(rank)
        i, j = self.coords_of(rank)
        return self.rank_of((i + 1) % self.nlat_procs, j)

    def ward_of(self, rank: int) -> Optional[int]:
        """The rank whose replica ``rank`` holds (inverse of
        :meth:`buddy_of`), or ``None`` on a 1-rank mesh."""
        if self.size == 1:
            return None
        if self.is_3d:
            return (rank - 1) % self.size
        if self.nlon_procs > 1:
            return self.west_of(rank)
        i, j = self.coords_of(rank)
        return self.rank_of((i - 1) % self.nlat_procs, j)

    def describe(self) -> str:
        """Paper-style mesh label, e.g. ``"8 x 30"`` (``"8 x 30 x 2"``
        when the mesh is 3-D)."""
        if self.is_3d:
            return (f"{self.nlat_procs} x {self.nlon_procs}"
                    f" x {self.nlev_procs}")
        return f"{self.nlat_procs} x {self.nlon_procs}"


@lru_cache(maxsize=32)
def _neighbour_table(
    mesh: ProcessorMesh,
) -> Tuple[Tuple[int, int, Optional[int], Optional[int]], ...]:
    """Every rank's horizontal neighbours, keyed by the (frozen) mesh.

    Kept beside the mesh rather than on it so a mesh's pickle and
    ``vars()`` stay its three extents.
    """
    return tuple(
        (mesh.east_of(r), mesh.west_of(r), mesh.north_of(r), mesh.south_of(r))
        for r in range(mesh.size)
    )
