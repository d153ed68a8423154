"""Tests for the three physics load-balancing schemes (Figures 4-6)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.physics_lb import (
    BalanceResult,
    CyclicShuffleBalancer,
    Move,
    PairwiseExchangeBalancer,
    PreviousPassEstimator,
    SortedGreedyBalancer,
    apply_moves,
    imbalance,
    pairwise_pass,
)

PAPER_LOADS = [65.0, 24.0, 38.0, 15.0]

loads_strategy = st.lists(
    st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40,
)


class TestImbalanceMetric:
    def test_paper_definition(self):
        """(max - mean) / mean, as defined above Tables 1-3."""
        loads = [11.0, 4.9]
        mean = (11.0 + 4.9) / 2
        assert imbalance(loads) == pytest.approx((11.0 - mean) / mean)

    def test_uniform_is_zero(self):
        assert imbalance([5, 5, 5]) == 0.0

    def test_empty_and_zero(self):
        assert imbalance([]) == 0.0
        assert imbalance([0, 0]) == 0.0


class TestApplyMoves:
    def test_simple_move(self):
        out = apply_moves([10, 0], [Move(0, 1, 4)])
        np.testing.assert_allclose(out, [6, 4])

    def test_conservation(self):
        out = apply_moves([10, 5, 3], [Move(0, 2, 2), Move(1, 0, 1)])
        assert out.sum() == pytest.approx(18)

    def test_overdraw_rejected(self):
        with pytest.raises(ValueError):
            apply_moves([1, 0], [Move(0, 1, 5)])

    def test_move_validation(self):
        with pytest.raises(ValueError):
            Move(0, 0, 1.0)
        with pytest.raises(ValueError):
            Move(0, 1, -1.0)


class TestScheme1Cyclic:
    def test_perfect_balance(self):
        res = CyclicShuffleBalancer().balance(PAPER_LOADS)
        np.testing.assert_allclose(res.loads_after, 35.5)
        assert res.imbalance_after == pytest.approx(0.0)

    def test_quadratic_messages(self):
        """The O(N^2) communication the paper rejects it for."""
        res = CyclicShuffleBalancer().balance([1.0] * 8)
        assert res.message_count == 8 * 7

    def test_single_rank_noop(self):
        res = CyclicShuffleBalancer().balance([5.0])
        assert res.moves == []

    @given(loads=loads_strategy)
    @settings(max_examples=30, deadline=None)
    def test_always_exact_mean(self, loads):
        res = CyclicShuffleBalancer().balance(loads)
        np.testing.assert_allclose(
            res.loads_after, np.mean(loads), atol=1e-9 * (1 + np.mean(loads))
        )


class TestScheme2Sorted:
    def test_paper_example_balances(self):
        res = SortedGreedyBalancer().balance(PAPER_LOADS)
        assert res.imbalance_after < 1e-9

    def test_linear_messages(self):
        """O(N) moves — the paper's improvement over scheme 1."""
        rng = np.random.default_rng(0)
        loads = rng.random(20) * 10
        res = SortedGreedyBalancer().balance(loads)
        assert res.message_count <= len(loads) - 1

    def test_moves_go_surplus_to_deficit(self):
        loads = np.array(PAPER_LOADS)
        res = SortedGreedyBalancer().balance(loads)
        mean = loads.mean()
        for m in res.moves:
            assert loads[m.src] > mean
            assert loads[m.dst] < mean

    @given(loads=loads_strategy)
    @settings(max_examples=30, deadline=None)
    def test_never_worse(self, loads):
        res = SortedGreedyBalancer().balance(loads)
        assert res.imbalance_after <= res.imbalance_before + 1e-9

    def test_tolerance_skips_small_transfers(self):
        res = SortedGreedyBalancer(tolerance=100.0).balance(PAPER_LOADS)
        assert res.moves == []


class TestScheme3Pairwise:
    def test_figure6_worked_example(self):
        """The paper's Figure 6 numbers, exactly."""
        balancer = PairwiseExchangeBalancer(max_passes=2, integer_amounts=True)
        history = balancer.balance_history(PAPER_LOADS)
        np.testing.assert_allclose(history[0], [65, 24, 38, 15])
        np.testing.assert_allclose(history[1], [40, 31, 31, 40])
        np.testing.assert_allclose(history[2], [36, 35, 35, 36])

    def test_pairwise_messages_per_pass(self):
        moves = pairwise_pass([8.0, 1.0, 6.0, 2.0, 7.0, 3.0])
        assert len(moves) <= 3  # floor(P/2) pairwise exchanges

    def test_heaviest_pairs_with_lightest(self):
        moves = pairwise_pass(PAPER_LOADS)
        first = moves[0]
        assert first.src == 0 and first.dst == 3  # 65 pairs with 15

    def test_pair_tolerance(self):
        moves = pairwise_pass([10.0, 9.5], pair_tolerance=1.0)
        assert moves == []

    def test_early_stop_on_tolerance(self):
        balancer = PairwiseExchangeBalancer(
            max_passes=10, imbalance_tolerance=0.15
        )
        res = balancer.balance(PAPER_LOADS)
        assert res.imbalance_after <= 0.15

    @given(loads=loads_strategy)
    @settings(max_examples=40, deadline=None)
    def test_pass_never_increases_imbalance(self, loads):
        """The convergence property the paper relies on."""
        loads = np.asarray(loads)
        moves = pairwise_pass(loads)
        after = apply_moves(loads, moves)
        assert imbalance(after) <= imbalance(loads) + 1e-9

    @given(loads=loads_strategy, passes=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_monotone_over_passes(self, loads, passes):
        balancer = PairwiseExchangeBalancer(max_passes=passes)
        history = balancer.balance_history(loads)
        imbs = [imbalance(h) for h in history]
        assert all(b <= a + 1e-9 for a, b in zip(imbs, imbs[1:]))

    @given(loads=loads_strategy)
    @settings(max_examples=40, deadline=None)
    def test_load_conserved(self, loads):
        res = PairwiseExchangeBalancer(max_passes=3).balance(loads)
        assert res.loads_after.sum() == pytest.approx(
            np.sum(loads), rel=1e-9, abs=1e-6
        )

    def test_two_passes_reach_paper_band(self):
        """Tables 1-3: two passes bring ~40% imbalance under ~8%."""
        rng = np.random.default_rng(42)
        loads = 1.0 + 0.8 * rng.random(64)
        balancer = PairwiseExchangeBalancer(max_passes=2)
        res = balancer.balance(loads)
        assert res.imbalance_before > 0.10
        assert res.imbalance_after < 0.08

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PairwiseExchangeBalancer(max_passes=0)
        with pytest.raises(ValueError):
            PairwiseExchangeBalancer(imbalance_tolerance=-1)


class TestEstimator:
    def test_uniform_before_history(self):
        est = PreviousPassEstimator(4)
        assert est._estimate is None
        np.testing.assert_allclose(est.estimate(), 1.0)

    def test_previous_pass_returned(self):
        est = PreviousPassEstimator(3)
        est.record([1.0, 2.0, 3.0])
        np.testing.assert_allclose(est.estimate(), [1, 2, 3])

    def test_smoothing(self):
        est = PreviousPassEstimator(2, alpha=0.5)
        est.record([0.0, 0.0])
        est.record([2.0, 4.0])
        np.testing.assert_allclose(est.estimate(), [1.0, 2.0])

    def test_shape_checked(self):
        est = PreviousPassEstimator(2)
        with pytest.raises(ValueError):
            est.record([1.0, 2.0, 3.0])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PreviousPassEstimator(0)
        with pytest.raises(ValueError):
            PreviousPassEstimator(2, alpha=0.0)
