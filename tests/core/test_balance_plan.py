"""Tests for the generic row-redistribution load balancer (eq. 3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.balance_plan import balanced_assignment, natural_assignment
from repro.core.masks import make_filter_plan
from repro.grid.decomposition import Decomposition
from repro.grid.sphere import SphericalGrid
from repro.parallel.topology import ProcessorMesh


def _setup(nlat=18, nlon=24, m=3, n=4):
    grid = SphericalGrid(nlat, nlon)
    decomp = Decomposition(nlat, nlon, ProcessorMesh(m, n))
    plan = make_filter_plan(grid)
    return grid, decomp, plan


class TestNaturalAssignment:
    def test_targets_equal_owners(self):
        _, decomp, plan = _setup()
        a = natural_assignment(plan, decomp)
        assert a.target_row == a.owner_row
        assert a.rows_moved() == 0
        assert a.stage_a_moves() == ()

    def test_owner_rows_match_latitudes(self):
        _, decomp, plan = _setup()
        a = natural_assignment(plan, decomp)
        for u, unit in enumerate(plan.units):
            lo, hi = decomp.lat_bounds_of_proc_row(a.owner_row[u])
            assert lo <= unit.lat < hi

    def test_low_latitude_rows_idle(self):
        """The load imbalance the paper's Figure 1 blames."""
        _, decomp, plan = _setup(m=3)
        a = natural_assignment(plan, decomp)
        # Middle processor row owns no filtered rows on this grid.
        assert a.units_assigned_to_row(1) == ()
        lines = a.lines_per_rank()
        assert (lines == 0).sum() > 0


class TestBalancedAssignment:
    def test_every_unit_assigned_exactly_once(self):
        _, decomp, plan = _setup()
        a = balanced_assignment(plan, decomp)
        seen = []
        for row in range(decomp.mesh.nlat_procs):
            seen.extend(a.units_assigned_to_row(row))
        assert sorted(seen) == list(range(len(plan.units)))

    def test_rows_balanced_eq3(self):
        """Each processor row gets ceil/floor(sum R_j / M) units."""
        _, decomp, plan = _setup()
        a = balanced_assignment(plan, decomp)
        counts = [
            len(a.units_assigned_to_row(r))
            for r in range(decomp.mesh.nlat_procs)
        ]
        assert sum(counts) == plan.total_rows
        assert max(counts) - min(counts) <= 1

    def test_lines_balanced_per_rank(self):
        _, decomp, plan = _setup()
        a = balanced_assignment(plan, decomp)
        lines = a.lines_per_rank()
        assert lines.sum() == plan.total_rows
        assert lines.max() - lines.min() <= 1
        assert (lines == 0).sum() == 0

    def test_stage_a_moves_consistent(self):
        _, decomp, plan = _setup()
        a = balanced_assignment(plan, decomp)
        moved = sum(len(units) for _, _, units in a.stage_a_moves())
        assert moved == a.rows_moved()
        for src, dst, units in a.stage_a_moves():
            assert src != dst
            for u in units:
                assert a.owner_row[u] == src
                assert a.target_row[u] == dst

    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 6),
        nlat=st.sampled_from([12, 18, 30]),
    )
    @settings(max_examples=20, deadline=None)
    def test_balance_property(self, m, n, nlat):
        if nlat < m or 16 < n:
            return
        grid = SphericalGrid(nlat, 16)
        decomp = Decomposition(nlat, 16, ProcessorMesh(m, n))
        plan = make_filter_plan(grid)
        a = balanced_assignment(plan, decomp)
        lines = a.lines_per_rank()
        assert lines.sum() == plan.total_rows
        # Per processor row, columns are within one line of each other.
        for row in range(m):
            row_lines = [
                len(a.lines_on_rank(decomp.mesh.rank_of(row, j)))
                for j in range(n)
            ]
            assert max(row_lines) - min(row_lines) <= 1

    def test_paper_mesh(self):
        """The paper's production mesh: 8 x 30 over the 90 x 144 grid."""
        grid = SphericalGrid(90, 144)
        decomp = Decomposition(90, 144, ProcessorMesh(8, 30))
        plan = make_filter_plan(grid)
        nat = natural_assignment(plan, decomp)
        bal = balanced_assignment(plan, decomp)
        assert nat.lines_per_rank().max() >= 2 * bal.lines_per_rank().max()
        assert bal.lines_per_rank().min() >= 0
        assert (nat.lines_per_rank() == 0).sum() >= decomp.mesh.size // 3
