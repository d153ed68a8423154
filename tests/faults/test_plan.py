"""Unit tests for the seeded fault plan (pure functions, no simulator)."""

import math

import pytest

from repro.faults import (
    ANY,
    FaultPlan,
    FaultSpec,
    LinkFault,
    RankFailure,
    RetryPolicy,
    SlowdownWindow,
)


class TestFromSpec:
    def test_same_seed_same_plan(self):
        spec = FaultSpec(stragglers=2, drop_rate=0.02, failures=1)
        a = FaultPlan.from_spec(spec, nranks=8, seed=7, horizon=3.0)
        b = FaultPlan.from_spec(spec, nranks=8, seed=7, horizon=3.0)
        assert a == b

    def test_different_seed_different_plan(self):
        spec = FaultSpec(stragglers=2, drop_rate=0.02, failures=1)
        a = FaultPlan.from_spec(spec, nranks=8, seed=7)
        b = FaultPlan.from_spec(spec, nranks=8, seed=8)
        assert a != b

    def test_straggler_and_failure_ranks_disjoint(self):
        spec = FaultSpec(stragglers=3, failures=3)
        plan = FaultPlan.from_spec(spec, nranks=6, seed=0)
        slow = {w.rank for w in plan.slowdowns}
        dead = {f.rank for f in plan.failures}
        assert len(slow) == 3 and len(dead) == 3
        assert not slow & dead

    def test_windows_scale_with_horizon(self):
        spec = FaultSpec(failures=1, failure_window=(0.4, 0.7))
        plan = FaultPlan.from_spec(spec, nranks=4, seed=1, horizon=10.0)
        assert 4.0 <= plan.failures[0].at <= 7.0

    def test_too_many_faulty_ranks_rejected(self):
        with pytest.raises(ValueError, match="only 2 ranks"):
            FaultPlan.from_spec(
                FaultSpec(stragglers=2, failures=1), nranks=2, seed=0
            )


class TestDelivery:
    def test_no_link_faults_is_clean(self):
        plan = FaultPlan(seed=0)
        d = plan.plan_delivery(0, 1, seq=0, t_send=2.0, message_time=0.5)
        assert d.drop_times == () and d.arrival == 2.5

    def test_deterministic_schedule(self):
        plan = FaultPlan(seed=3, link_faults=(LinkFault(drop_rate=0.5),))
        a = [plan.plan_delivery(0, 1, s, 1.0, 0.1) for s in range(200)]
        b = [plan.plan_delivery(0, 1, s, 1.0, 0.1) for s in range(200)]
        assert a == b
        assert any(d.drop_times for d in a)  # 50% drops must hit sometimes

    def test_final_attempt_always_delivers(self):
        retry = RetryPolicy(timeout=0.01, backoff=2.0, max_attempts=4)
        plan = FaultPlan(
            seed=0, link_faults=(LinkFault(drop_rate=0.999),), retry=retry
        )
        for seq in range(50):
            d = plan.plan_delivery(0, 1, seq, 0.0, 0.2)
            assert math.isfinite(d.arrival)
            assert d.retransmissions <= retry.max_attempts - 1

    def test_backoff_spacing(self):
        retry = RetryPolicy(timeout=0.01, backoff=2.0, max_attempts=5)
        plan = FaultPlan(
            seed=1, link_faults=(LinkFault(drop_rate=0.999),), retry=retry
        )
        d = plan.plan_delivery(0, 1, 0, 0.0, 0.0)
        times = list(d.drop_times) + [d.inject_time]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps == pytest.approx([0.01 * 2.0**k for k in range(len(gaps))])

    def test_extra_delay_added(self):
        plan = FaultPlan(seed=0, link_faults=(LinkFault(extra_delay=0.25),))
        d = plan.plan_delivery(0, 1, 0, 1.0, 0.5)
        assert d.arrival == pytest.approx(1.75)

    def test_link_fault_matching(self):
        lf = LinkFault(src=2, dst=ANY, t0=1.0, t1=2.0, drop_rate=0.1)
        assert lf.matches(2, 5, 1.5)
        assert not lf.matches(3, 5, 1.5)
        assert not lf.matches(2, 5, 2.0)  # window is half-open


class TestStretchCompute:
    def test_no_windows_identity(self):
        assert FaultPlan(seed=0).stretch_compute(0, 5.0, 1.5) == 1.5

    def test_fully_inside_window(self):
        plan = FaultPlan(
            seed=0, slowdowns=(SlowdownWindow(0, 0.0, math.inf, 3.0),)
        )
        assert plan.stretch_compute(0, 1.0, 2.0) == pytest.approx(6.0)
        assert plan.stretch_compute(1, 1.0, 2.0) == 2.0  # other rank untouched

    def test_straddles_window_end(self):
        # window ends at t=2: one nominal second runs 2x slow until the
        # edge (0.5 nominal done by t=2), the rest at full speed.
        plan = FaultPlan(seed=0, slowdowns=(SlowdownWindow(0, 0.0, 2.0, 2.0),))
        assert plan.stretch_compute(0, 1.0, 1.0) == pytest.approx(1.5)

    def test_starts_before_window(self):
        plan = FaultPlan(seed=0, slowdowns=(SlowdownWindow(0, 2.0, 4.0, 2.0),))
        # 1s of work starting at t=1.5: 0.5 fast, then 0.5 nominal at 2x.
        assert plan.stretch_compute(0, 1.5, 1.0) == pytest.approx(1.5)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError, match="overlapping slowdown windows"):
            FaultPlan(
                seed=0,
                slowdowns=(
                    SlowdownWindow(0, 0.0, 10.0, 2.0),
                    SlowdownWindow(0, 0.0, 10.0, 5.0),
                ),
            )

    def test_same_span_on_different_ranks_allowed(self):
        plan = FaultPlan(
            seed=0,
            slowdowns=(
                SlowdownWindow(0, 0.0, 10.0, 2.0),
                SlowdownWindow(1, 0.0, 10.0, 5.0),
            ),
        )
        assert plan.stretch_compute(0, 0.0, 1.0) == pytest.approx(2.0)
        assert plan.stretch_compute(1, 0.0, 1.0) == pytest.approx(5.0)


class TestValidationAndRecoveryHelpers:
    def test_one_failure_per_rank(self):
        with pytest.raises(ValueError, match="one failure per rank"):
            FaultPlan(
                seed=0,
                failures=(RankFailure(1, 1.0), RankFailure(1, 2.0)),
            )

    def test_bad_retry_policy(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_bad_windows(self):
        with pytest.raises(ValueError):
            SlowdownWindow(0, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            SlowdownWindow(0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            LinkFault(drop_rate=1.0)
        with pytest.raises(ValueError):
            RankFailure(0, 1.0, mode="limp")

    def test_negative_rank_and_time_rejected(self):
        with pytest.raises(ValueError):
            SlowdownWindow(-1, 0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            SlowdownWindow(0, -0.5, 1.0, 2.0)
        with pytest.raises(ValueError):
            RankFailure(-3, 1.0)
        with pytest.raises(ValueError):
            LinkFault(src=-2, drop_rate=0.1)
        with pytest.raises(ValueError):
            LinkFault(t0=2.0, t1=1.0, drop_rate=0.1)

    def test_validate_ranks_actionable_messages(self):
        plan = FaultPlan(seed=0, slowdowns=(SlowdownWindow(7, 0.0, 1.0, 2.0),))
        with pytest.raises(ValueError, match=r"out of range for 4 ranks"):
            plan.validate_ranks(4)
        plan.validate_ranks(8)  # in range: no error
        bad = FaultPlan(seed=0, failures=(RankFailure(9, 1.0),))
        with pytest.raises(ValueError, match=r"valid: 0\.\.3"):
            bad.validate_ranks(4)
        link = FaultPlan(seed=0, link_faults=(LinkFault(dst=5, drop_rate=0.1),))
        with pytest.raises(ValueError, match="link-fault"):
            link.validate_ranks(4)

    def test_without_failure_consumes_only_that_rank(self):
        plan = FaultPlan(
            seed=0, failures=(RankFailure(1, 1.0), RankFailure(3, 2.0))
        )
        left = plan.without_failure(1)
        assert [f.rank for f in left.failures] == [3]
        assert left.without_failure(3).failures == ()

    def test_describe_mentions_every_fault(self):
        plan = FaultPlan(
            seed=5,
            slowdowns=(SlowdownWindow(2, 0.0, 1.0, 2.0),),
            link_faults=(LinkFault(drop_rate=0.01),),
            failures=(RankFailure(0, 0.5),),
        )
        text = plan.describe()
        assert "slowdown: rank 2" in text
        assert "drop 1%" in text
        assert "failure: rank 0" in text
