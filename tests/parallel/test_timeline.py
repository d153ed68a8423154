"""Tests for event recording and timeline analysis."""

import numpy as np
import pytest

from repro.parallel import GENERIC, Simulator
from repro.parallel.timeline import (
    busy_fraction,
    communication_matrix,
    render_gantt,
)


def _ring_program(ctx):
    yield from ctx.compute(seconds=0.01 * (ctx.rank + 1))
    yield from ctx.allgather(np.zeros(50))
    yield from ctx.barrier()
    return None


@pytest.fixture(scope="module")
def recorded():
    sim = Simulator(4, GENERIC, record_events=True)
    return sim.run(_ring_program)


class TestRecording:
    def test_default_no_events(self):
        res = Simulator(2, GENERIC).run(_ring_program)
        assert res.trace.events is None

    def test_events_collected(self, recorded):
        kinds = {e.kind for e in recorded.trace.events}
        assert {"compute", "send", "recv", "barrier"} <= kinds

    def test_events_ordered_within_rank(self, recorded):
        for rank in range(4):
            evs = [e for e in recorded.trace.events if e.rank == rank]
            # Events may interleave kinds but never run backwards.
            starts = [e.start for e in sorted(evs, key=lambda e: e.start)]
            assert starts == sorted(starts)

    def test_event_durations_nonnegative(self, recorded):
        assert all(e.duration >= 0 for e in recorded.trace.events)

    def test_compute_events_match_accounting(self, recorded):
        for rank in range(4):
            total = sum(
                e.duration
                for e in recorded.trace.events
                if e.rank == rank and e.kind == "compute"
            )
            assert total == pytest.approx(
                recorded.trace.ranks[rank].compute_time
            )


class TestCommunicationMatrix:
    def test_ring_pattern(self, recorded):
        """Allgather-ring: rank i only ever sends to (i+1) mod P."""
        cm = communication_matrix(recorded.trace)
        for i in range(4):
            for j in range(4):
                if j == (i + 1) % 4:
                    assert cm[i, j] > 0
                else:
                    assert cm[i, j] == 0

    def test_volume_matches_accounting(self, recorded):
        cm = communication_matrix(recorded.trace)
        assert cm.sum() == recorded.trace.total_bytes()

    def test_requires_events(self):
        res = Simulator(2, GENERIC).run(_ring_program)
        with pytest.raises(ValueError):
            communication_matrix(res.trace)


class TestGantt:
    def test_renders_all_ranks(self, recorded):
        text = render_gantt(recorded.trace, recorded.elapsed, width=40)
        for r in range(4):
            assert f"rank {r:4d}" in text

    def test_compute_glyphs_present(self, recorded):
        text = render_gantt(recorded.trace, recorded.elapsed, width=40)
        assert "#" in text

    def test_rank_subset_and_window(self, recorded):
        text = render_gantt(
            recorded.trace, recorded.elapsed, width=30,
            ranks=[1], t0=0.0, t1=recorded.elapsed / 2,
        )
        assert "rank    1" in text and "rank    0" not in text

    def test_inverted_window_rejected(self, recorded):
        with pytest.raises(ValueError):
            render_gantt(recorded.trace, recorded.elapsed, t0=1.0, t1=0.5)

    def test_zero_span_window_renders_idle_rows(self, recorded):
        text = render_gantt(recorded.trace, recorded.elapsed,
                            width=20, t0=1.0, t1=1.0)
        lines = text.splitlines()
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            assert line.endswith("|" + " " * 20 + "|")


def _idle_program(ctx):
    """A rank program that performs no priced operations at all."""
    return ctx.rank
    yield  # pragma: no cover - makes this a generator function


class TestEdgeCases:
    """Empty traces and single-rank runs (satellite task)."""

    @pytest.fixture(scope="class")
    def empty(self):
        return Simulator(3, GENERIC, record_events=True).run(_idle_program)

    @pytest.fixture(scope="class")
    def single(self):
        return Simulator(1, GENERIC, record_events=True).run(_ring_program)

    def test_empty_trace_comm_matrix_is_zero(self, empty):
        cm = communication_matrix(empty.trace)
        assert cm.shape == (3, 3)
        assert np.all(cm == 0)

    def test_empty_trace_gantt_renders(self, empty):
        assert empty.elapsed == 0.0
        text = render_gantt(empty.trace, empty.elapsed, width=16)
        assert text.splitlines()[0].startswith("virtual time")
        for r in range(3):
            assert f"rank {r:4d} |{' ' * 16}|" in text

    def test_empty_trace_summaries(self, empty):
        assert np.all(busy_fraction(empty.trace, empty.elapsed) == 0)

    def test_single_rank_comm_matrix(self, single):
        cm = communication_matrix(single.trace)
        assert cm.shape == (1, 1)
        # a 1-rank allgather needs no messages
        assert cm[0, 0] == 0

    def test_single_rank_gantt(self, single):
        text = render_gantt(single.trace, single.elapsed, width=24)
        assert "rank    0" in text
        assert "#" in text  # the compute op still shows


class TestSummaries:
    def test_busy_fraction_bounds(self, recorded):
        frac = busy_fraction(recorded.trace, recorded.elapsed)
        assert np.all(frac >= 0) and np.all(frac <= 1)
        # Rank 3 computed the longest.
        assert frac.argmax() == 3
