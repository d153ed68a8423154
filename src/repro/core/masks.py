"""Filter plans: which variables' latitude rows each filter touches.

Paper Section 3.3: weak and strong filterings are performed on *different
sets of physical variables*; the optimised code filters all weakly
filtered variables concurrently, and likewise all strongly filtered ones
(there is no data dependency within a set).  A :class:`FilterPlan`
enumerates the resulting *row units* — one filtered latitude row of one
variable, carrying all vertical layers — which are the indivisible items
the load balancer redistributes (eq. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.spectral import PolarFilter, strong_filter, weak_filter
from repro.grid.sphere import SphericalGrid


@dataclass(frozen=True)
class RowUnit:
    """One filtered latitude row of one variable (all K layers together).

    Attributes
    ----------
    var:
        Variable name.
    lat:
        Global latitude index of the row.
    filter_name:
        Which filter ("strong"/"weak") applies.
    """

    var: str
    lat: int
    filter_name: str


@dataclass(frozen=True)
class FilterPlan:
    """The full set of row units for one filtering pass.

    Built once at setup (the paper stresses the setup is one-time and
    problem-size independent in cost); reused every time step.
    """

    grid: SphericalGrid
    strong: PolarFilter
    weak: PolarFilter
    strong_vars: Tuple[str, ...]
    weak_vars: Tuple[str, ...]
    units: Tuple[RowUnit, ...]

    @property
    def total_rows(self) -> int:
        """The paper's ``sum_j R_j`` — total row units to filter."""
        return len(self.units)

    def filter_for(self, unit: RowUnit) -> PolarFilter:
        """The PolarFilter instance that applies to a row unit."""
        return self.strong if unit.filter_name == "strong" else self.weak


#: Default variable assignment, mirroring the AGCM's convention that the
#: wind tendencies need the strong filter and the thermodynamic variables
#: the weak one.
DEFAULT_STRONG_VARS = ("u", "v", "pt")
DEFAULT_WEAK_VARS = ("ps", "q")


def make_filter_plan(
    grid: SphericalGrid,
    strong_vars: Sequence[str] = DEFAULT_STRONG_VARS,
    weak_vars: Sequence[str] = DEFAULT_WEAK_VARS,
) -> FilterPlan:
    """Construct the filter plan for a grid and variable assignment.

    Row units are ordered by (filter, variable, latitude) — a fixed
    deterministic order every rank can compute locally without
    communication, which is what keeps the setup bookkeeping cheap.
    """
    overlap = set(strong_vars) & set(weak_vars)
    if overlap:
        raise ValueError(f"variables in both filter sets: {sorted(overlap)}")
    s_filter = strong_filter(grid)
    w_filter = weak_filter(grid)
    units: List[RowUnit] = []
    for var in strong_vars:
        for lat in s_filter.latitude_indices():
            units.append(RowUnit(var, int(lat), "strong"))
    for var in weak_vars:
        for lat in w_filter.latitude_indices():
            units.append(RowUnit(var, int(lat), "weak"))
    return FilterPlan(
        grid=grid,
        strong=s_filter,
        weak=w_filter,
        strong_vars=tuple(strong_vars),
        weak_vars=tuple(weak_vars),
        units=tuple(units),
    )
