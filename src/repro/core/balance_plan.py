"""Generic load-balancing module for parallel filtering (paper Section 3.3).

Given an ``M x N`` processor mesh (``M`` processors along latitude, ``N``
along longitude) and ``L`` variables with ``R_j`` filtered rows each, the
paper's module redistributes the data rows so that after redistribution
each processor holds approximately ``ceil(sum_j R_j / n)`` rows (eq. 3),
*regardless* of how many rows each hemisphere contributes — the property
that makes the same module serve both the strong and the weak filter.

We realise this in two stages, matching Figures 2 and 3:

* **Stage A — latitudinal redistribution** (Figure 2): row units are
  reassigned from their owning processor *rows* (only the high-latitude
  rows own filtered units) to target processor rows so that all ``M``
  rows hold a balanced share.  Data moves column-wise: rank ``(r1, j)``
  ships its longitude segment of a moved unit to rank ``(r2, j)``.
* **Stage B — row transpose** (Figure 3): within each processor row the
  balanced units are partitioned over the ``N`` columns and an
  all-to-all assembles *complete* longitude lines on their owning column,
  so the FFT can run on whole lines locally (Section 3.2's "local FFT
  after a data transpose").

Both stages are described by a :class:`FilterAssignment`, computed once at
setup from globally known information (no communication needed — every
rank derives the identical plan deterministically, which is how we keep
the paper's "substantial bookkeeping" a one-time cost).

The *unbalanced* FFT filter uses the same machinery with the identity
stage-A map (:func:`natural_assignment`), making load balancing a genuine
single-toggle ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.masks import FilterPlan, RowUnit
from repro.grid.decomposition import Decomposition
from repro.util.partition import block_bounds, owner_of


@dataclass(frozen=True)
class FilterAssignment:
    """Immutable description of where every row unit lives at each stage.

    Attributes
    ----------
    plan:
        The :class:`FilterPlan` whose units are being placed.
    decomp:
        The 2-D domain decomposition.
    owner_row:
        ``owner_row[u]`` — processor row natively owning unit ``u``'s
        latitude.
    target_row:
        ``target_row[u]`` — processor row holding the unit after stage A.
    line_col:
        ``line_col[u]`` — processor column owning the *complete line*
        after the stage-B transpose.
    """

    plan: FilterPlan
    decomp: Decomposition
    owner_row: Tuple[int, ...]
    target_row: Tuple[int, ...]
    line_col: Tuple[int, ...]

    # -- derived views ---------------------------------------------------
    # The assignment is immutable, so each view is computed once, on first
    # use, and every later call is a lookup.  cached_property writes the
    # instance __dict__ directly, which a frozen dataclass permits.
    @cached_property
    def _units_by_target_row(self) -> Tuple[Tuple[int, ...], ...]:
        rows: List[List[int]] = [[] for _ in range(self.decomp.mesh.nlat_procs)]
        for u, r in enumerate(self.target_row):
            rows[r].append(u)
        return tuple(tuple(units) for units in rows)

    @cached_property
    def _lines_by_row_and_col(self) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        n_cols = self.decomp.mesh.nlon_procs
        out = []
        for units in self._units_by_target_row:
            cols: List[List[int]] = [[] for _ in range(n_cols)]
            for u in units:
                cols[self.line_col[u]].append(u)
            out.append(tuple(tuple(c) for c in cols))
        return tuple(out)

    @cached_property
    def _stage_a_moves(self) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
        groups: Dict[Tuple[int, int], List[int]] = {}
        for u, (src, dst) in enumerate(zip(self.owner_row, self.target_row)):
            if src != dst:
                groups.setdefault((src, dst), []).append(u)
        return tuple(
            (src, dst, tuple(units))
            for (src, dst), units in sorted(groups.items())
        )

    def units_assigned_to_row(self, proc_row: int) -> Tuple[int, ...]:
        """Unit indices held by a processor row after stage A (ordered)."""
        return self._units_by_target_row[proc_row]

    def lines_on_rank(self, rank: int) -> Tuple[int, ...]:
        """Unit indices whose complete lines land on ``rank`` after stage B."""
        i, j = self.decomp.mesh.coords_of(rank)
        return self._lines_by_row_and_col[i][j]

    def rows_moved(self) -> int:
        """Number of units whose stage-A target differs from their owner."""
        return sum(
            1 for o, t in zip(self.owner_row, self.target_row) if o != t
        )

    def lines_per_rank(self) -> np.ndarray:
        """Complete lines per rank after stage B — the balance diagnostic.

        For a balanced assignment, ``max - min <= 1`` within every
        processor row and the total spread over the mesh is small; for the
        natural assignment, low-latitude rows show zeros (the imbalance
        the paper's Figure 1 blames).
        """
        mesh = self.decomp.mesh
        counts = np.zeros(mesh.size, dtype=int)
        for rank in range(mesh.size):
            counts[rank] = len(self.lines_on_rank(rank))
        return counts

    # -- stage-A move lists (per processor column; identical across cols) --
    def stage_a_moves(self) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
        """Grouped stage-A moves: (src_row, dst_row, unit indices).

        One entry per (src, dst) pair with at least one unit; each entry
        becomes exactly one message per processor column, which is how the
        implementation keeps the message count linear in the mesh size.
        """
        return self._stage_a_moves


def _owner_rows(plan: FilterPlan, decomp: Decomposition) -> List[int]:
    """Native owning processor row of each unit's latitude."""
    m = decomp.mesh.nlat_procs
    return [owner_of(u.lat, decomp.nlat, m) for u in plan.units]


def _assign_line_cols(
    target_row: Sequence[int], nunits: int, decomp: Decomposition
) -> List[int]:
    """Stage-B column owner for each unit: block partition per processor row."""
    n = decomp.mesh.nlon_procs
    line_col = [0] * nunits
    for row in range(decomp.mesh.nlat_procs):
        members = [u for u in range(nunits) if target_row[u] == row]
        bounds = block_bounds(len(members), n)
        for col, (a, b) in enumerate(bounds):
            for u in members[a:b]:
                line_col[u] = col
    return line_col


def natural_assignment(
    plan: FilterPlan, decomp: Decomposition
) -> FilterAssignment:
    """No load balancing: units stay on their native processor rows.

    This is the paper's "FFT without load balance" configuration — the
    transpose still runs (FFTs need whole lines) but only the
    high-latitude processor rows do any work.
    """
    owner = _owner_rows(plan, decomp)
    line_col = _assign_line_cols(owner, len(plan.units), decomp)
    return FilterAssignment(
        plan=plan,
        decomp=decomp,
        owner_row=tuple(owner),
        target_row=tuple(owner),
        line_col=tuple(line_col),
    )


def balanced_assignment(
    plan: FilterPlan, decomp: Decomposition
) -> FilterAssignment:
    """Eq. (3): spread all row units evenly over the processor rows.

    Unit ``u`` (in the plan's deterministic order) goes to processor row
    ``floor(u * M / U)`` — a block partition that gives every row
    ``ceil/floor(U / M)`` units while keeping consecutive (same-variable,
    adjacent-latitude) units together to localise stage-A traffic.

    The balance guarantee holds regardless of how many rows each
    hemisphere or each filter contributes, which is why one generic
    module serves both the strong and the weak filtering (Section 3.3).
    """
    owner = _owner_rows(plan, decomp)
    m = decomp.mesh.nlat_procs
    nunits = len(plan.units)
    bounds = block_bounds(nunits, m)
    target = [0] * nunits
    for row, (a, b) in enumerate(bounds):
        for u in range(a, b):
            target[u] = row
    line_col = _assign_line_cols(target, nunits, decomp)
    return FilterAssignment(
        plan=plan,
        decomp=decomp,
        owner_row=tuple(owner),
        target_row=tuple(target),
        line_col=tuple(line_col),
    )
