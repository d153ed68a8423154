"""Core span/metrics semantics: recording, nesting, zero-cost-off."""

from __future__ import annotations

import pytest

from repro.model import AGCMConfig
from repro.obs import (
    NULL_OBSERVER,
    NULL_SPAN,
    MetricsRegistry,
    Observer,
    activate,
    get_active,
)
from repro.parallel import GENERIC, Simulator

pytestmark = pytest.mark.obs


def ping_pong(ctx):
    with ctx.region("talk"):
        if ctx.rank == 0:
            yield from ctx.send(1, payload="hi")
            reply = yield from ctx.recv(1)
        else:
            msg = yield from ctx.recv(0)
            yield from ctx.send(0, payload=msg + "!")
    with ctx.span("work", size=ctx.size):
        yield from ctx.compute(seconds=1.0)
    ctx.metrics.counter("pings").inc()
    return ctx.rank


def _named(obs, name):
    return [s for s in obs.spans if s.name == name]


class TestRecording:
    def test_spans_and_metrics_recorded(self):
        obs = Observer()
        res = Simulator(2, GENERIC, observer=obs).run(ping_pong)
        assert res.returns == [0, 1]
        assert len(obs.runs) == 1
        assert obs.runs[0].nranks == 2
        # one "talk" region span and one "work" span per rank
        assert len(_named(obs, "talk")) == 2
        work = _named(obs, "work")
        assert len(work) == 2
        for s in work:
            assert s.tags == {"size": 2}
            assert s.end is not None and s.duration == pytest.approx(1.0)
        assert obs.metrics.counter("pings").value == 2
        # run summary mirrored into sim.* counters
        assert obs.metrics.counter("sim.messages_sent").value == 2

    def test_spans_closed_even_on_failure(self):
        def dies(ctx):
            with ctx.region("doomed"):
                yield from ctx.compute(seconds=1.0)
                if ctx.rank == 0:
                    raise RuntimeError("boom")
            return None

        obs = Observer()
        with pytest.raises(RuntimeError, match="boom"):
            Simulator(2, GENERIC, observer=obs).run(dies)
        # the dangling region span was force-closed at run teardown
        for s in obs.spans:
            assert s.end is not None

    def test_instants_record_clock(self):
        def marker(ctx):
            yield from ctx.compute(seconds=2.0)
            ctx.instant("mark", step=3)
            return None

        obs = Observer()
        Simulator(1, GENERIC, observer=obs).run(marker)
        (inst,) = obs.instants
        assert inst.name == "mark"
        assert inst.t == pytest.approx(2.0)
        assert inst.tags == {"step": 3}


class TestNesting:
    def test_children_within_parent_same_rank(self):
        def nested(ctx):
            with ctx.span("outer"):
                yield from ctx.compute(seconds=1.0)
                with ctx.span("inner"):
                    yield from ctx.compute(seconds=2.0)
                yield from ctx.compute(seconds=0.5)
            return None

        obs = Observer()
        Simulator(2, GENERIC, observer=obs).run(nested)
        for outer in _named(obs, "outer"):
            kids = [s for s in obs.spans if s.parent == outer.sid]
            assert [k.name for k in kids] == ["inner"]
            for k in kids:
                assert k.rank == outer.rank
                assert outer.start <= k.start <= k.end <= outer.end

    def test_out_of_order_close_rejected(self):
        obs = Observer()
        obs.start_run(label="manual", nranks=1)
        a = obs.begin(0, "a", 0.0)
        obs.begin(0, "b", 1.0)
        with pytest.raises(RuntimeError):
            obs.end(0, a, 2.0)


class TestZeroCostOff:
    def test_null_observer_is_default_and_inert(self):
        res = Simulator(2, GENERIC).run(ping_pong)
        assert res.returns == [0, 1]
        assert not NULL_OBSERVER.enabled
        # the shared null sink never accumulates anything
        assert NULL_OBSERVER.metrics.counter("pings").value == 0

    def test_span_returns_shared_null_singleton_when_off(self):
        captured = []

        def probe(ctx):
            captured.append(ctx.span("x"))
            yield from ctx.compute(seconds=1.0)
            return None

        Simulator(1, GENERIC).run(probe)
        assert captured[0] is NULL_SPAN


class TestAmbient:
    def test_activate_makes_observer_ambient(self):
        obs = Observer()
        assert get_active() is None
        with activate(obs):
            assert get_active() is obs
            Simulator(2, GENERIC).run(ping_pong)
        assert get_active() is None
        assert len(obs.runs) == 1 and len(obs.spans) > 0

    def test_explicit_observer_wins_over_ambient(self):
        ambient, explicit = Observer(), Observer()
        with activate(ambient):
            Simulator(2, GENERIC, observer=explicit).run(ping_pong)
        assert len(explicit.runs) == 1
        assert len(ambient.runs) == 0


class TestMetricsRegistry:
    def test_counter_gauge_and_kind_conflict(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(2)
        reg.counter("n").inc(3)
        assert reg.counter("n").value == 5
        reg.gauge("g").set(1.5)
        with pytest.raises(TypeError):
            reg.gauge("n")
        with pytest.raises(ValueError):
            reg.counter("n").inc(-1)
        d = reg.as_dict()
        assert d["counters"]["n"] == 5
        assert d["gauges"]["g"] == 1.5


class TestConfigDeprecation:
    def test_positional_construction_is_a_type_error(self):
        with pytest.raises(TypeError, match="positional"):
            AGCMConfig(24, 36)

    def test_keyword_and_named_constructors_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            AGCMConfig(nlat=24, nlon=36)
            AGCMConfig.tiny(seed=3)
            AGCMConfig.paper_2x2_5(nlayers=15)
            AGCMConfig.from_preset("tiny", physics_every=2)
