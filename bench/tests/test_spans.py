"""Span self time is the span minus what its direct children cover."""

import pytest

from spans import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_arithmetic():
    clock = FakeClock()
    rec = SpanRecorder("w", clock=clock)
    with rec.span("pass"):
        clock.now = 1.0
        with rec.span("unit:a"):
            clock.now = 4.0
            with rec.span("api.run"):
                clock.now = 6.0
            clock.now = 7.0
        with rec.span("unit:b"):
            clock.now = 9.0
        clock.now = 10.0
    by_name = {s["name"]: s for s in rec.dump()}
    assert by_name["pass"]["self"] == pytest.approx(2.0)      # 10 - 6 - 2
    assert by_name["unit:a"]["self"] == pytest.approx(4.0)    # 6 - 2
    assert by_name["api.run"]["self"] == pytest.approx(2.0)
    assert by_name["unit:b"]["self"] == pytest.approx(2.0)
    assert by_name["api.run"]["parent"] == by_name["unit:a"]["id"]
    assert by_name["pass"]["parent"] is None
    assert {s["workload"] for s in rec.dump()} == {"w"}
    # Self times partition the root span.
    assert sum(s["self"] for s in rec.dump()) == pytest.approx(10.0)
    assert rec.cover_fraction("pass") == pytest.approx(0.8)


def test_span_closes_when_the_body_raises():
    clock = FakeClock()
    rec = SpanRecorder("w", clock=clock)
    with pytest.raises(ValueError):
        with rec.span("outer"):
            clock.now = 2.0
            raise ValueError("boom")
    assert rec.spans[0].end == 2.0
    with rec.span("next"):
        pass
    assert rec.spans[1].parent is None


def test_disabled_recorder_records_nothing():
    rec = SpanRecorder("w", enabled=False)
    with rec.span("pass"):
        with rec.span("unit"):
            pass
    assert rec.spans == []
