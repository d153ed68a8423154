"""Tests for the physics column-flow planning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model.physics_balance import (
    ColumnFlowPlan,
    Run,
    _pop_tail,
    plan_column_flow,
)


class TestPopTail:
    def test_within_one_run(self):
        runs = [Run(0, 0, 10)]
        taken = _pop_tail(runs, 4)
        assert runs == [Run(0, 0, 6)]
        assert taken == [Run(0, 6, 4)]

    def test_across_runs(self):
        runs = [Run(0, 0, 5), Run(1, 0, 3)]
        taken = _pop_tail(runs, 4)
        assert runs == [Run(0, 0, 4)]
        assert taken == [Run(0, 4, 1), Run(1, 0, 3)]

    def test_exact_run_boundary(self):
        runs = [Run(0, 0, 5), Run(1, 0, 3)]
        taken = _pop_tail(runs, 3)
        assert runs == [Run(0, 0, 5)]
        assert taken == [Run(1, 0, 3)]

    def test_overdraw(self):
        with pytest.raises(ValueError):
            _pop_tail([Run(0, 0, 2)], 5)


def _column_multiset(plan: ColumnFlowPlan, ncols):
    """Every (origin, index) column across all holdings."""
    seen = []
    for runs in plan.holdings:
        for run in runs:
            for idx in range(run.start, run.start + run.count):
                seen.append((run.origin, idx))
    return sorted(seen)


class TestPlanInvariants:
    @given(
        loads=st.lists(st.floats(0.1, 100.0), min_size=2, max_size=16),
        seed=st.integers(0, 100),
        passes=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_column_exactly_once(self, loads, seed, passes):
        rng = np.random.default_rng(seed)
        ncols = rng.integers(1, 50, size=len(loads)).tolist()
        plan = plan_column_flow(loads, ncols, max_passes=passes)
        expected = sorted(
            (r, i) for r in range(len(loads)) for i in range(ncols[r])
        )
        assert _column_multiset(plan, ncols) == expected

    def test_balanced_loads_no_moves(self):
        plan = plan_column_flow([5.0, 5.0, 5.0], [10, 10, 10])
        assert plan.passes == []
        assert sum(m.ncols for p in plan.passes for m in p) == 0

    def test_heavy_rank_sheds_columns(self):
        plan = plan_column_flow([10.0, 1.0], [100, 100])
        assert plan.held_columns(0) < 100
        assert plan.held_columns(1) > 100

    def test_never_empties_a_rank(self):
        plan = plan_column_flow([100.0, 0.001], [10, 10], max_passes=3)
        assert plan.held_columns(0) >= 1

    def test_expected_returns_symmetry(self):
        plan = plan_column_flow([8.0, 2.0, 6.0, 4.0], [40, 40, 40, 40])
        for origin in range(4):
            expected = plan.expected_returns(origin)
            for holder, run in expected:
                assert run.origin == origin
                assert run in plan.holdings[holder]

    def test_guest_runs(self):
        plan = plan_column_flow([10.0, 1.0], [50, 50])
        guests = [r for r in plan.holdings[1] if r.origin != 1]
        assert guests and all(r.origin == 0 for r in guests)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            plan_column_flow([1.0, 2.0], [10])

    def test_quantised_amounts(self):
        """Integer weighting floors the transfers (Fig. 6 arithmetic)."""
        plan_int = plan_column_flow(
            [65, 24, 38, 15], [100, 100, 100, 100],
            max_passes=1, integer_amounts=True,
        )
        # 65 -> 15 moves floor(25/65 * 100) columns.
        move = plan_int.passes[0][0]
        assert move.src == 0 and move.dst == 3
        assert move.ncols == int(25 / 65 * 100)
