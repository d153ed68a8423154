"""Tests for filter plans and row units."""

import collections

import pytest

from repro.core.masks import (
    DEFAULT_STRONG_VARS,
    DEFAULT_WEAK_VARS,
    make_filter_plan,
)


class TestPlanConstruction:
    def test_default_variable_sets(self, paper_grid):
        plan = make_filter_plan(paper_grid)
        assert plan.strong_vars == DEFAULT_STRONG_VARS
        assert plan.weak_vars == DEFAULT_WEAK_VARS

    def test_total_rows(self, paper_grid):
        plan = make_filter_plan(paper_grid)
        s_rows = int(plan.strong.latitude_mask().sum())
        w_rows = int(plan.weak.latitude_mask().sum())
        expected = s_rows * len(DEFAULT_STRONG_VARS) + w_rows * len(
            DEFAULT_WEAK_VARS
        )
        assert plan.total_rows == expected

    def test_rows_per_variable(self, paper_grid):
        plan = make_filter_plan(paper_grid)
        counts = collections.Counter(u.var for u in plan.units)
        assert counts["u"] == counts["v"] == counts["pt"]
        assert counts["ps"] == counts["q"]
        assert counts["u"] > counts["q"]  # strong band is wider

    def test_overlapping_sets_rejected(self, paper_grid):
        with pytest.raises(ValueError):
            make_filter_plan(paper_grid, strong_vars=("u",), weak_vars=("u",))

    def test_deterministic_order(self, paper_grid):
        p1 = make_filter_plan(paper_grid)
        p2 = make_filter_plan(paper_grid)
        assert p1.units == p2.units

    def test_filter_for_unit(self, paper_grid):
        plan = make_filter_plan(paper_grid)
        for unit in plan.units[:5]:
            assert plan.filter_for(unit).name == unit.filter_name

