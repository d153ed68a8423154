"""Tests for timing reports: per-day scaling and component breakdowns."""

import pytest

from repro.grid import Decomposition
from repro.model import ComponentBreakdown, make_config, per_day
from repro.model.parallel_agcm import agcm_rank_program
from repro.parallel import PARAGON, ProcessorMesh, Simulator


class TestPerDay:
    def test_scaling(self):
        cfg = make_config("tiny", dt=900.0)
        assert per_day(10.0, 5, cfg) == pytest.approx(2.0 * cfg.steps_per_day())

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            per_day(1.0, 0, make_config("tiny"))


class TestComponentBreakdown:
    @pytest.fixture(scope="class")
    def breakdown(self):
        cfg = make_config("tiny")
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        res = Simulator(4, PARAGON).run(agcm_rank_program, cfg, decomp, 8)
        return ComponentBreakdown.from_result(res, 8, cfg)

    def test_components_positive(self, breakdown):
        for key, value in breakdown.as_dict().items():
            if key in ("retry", "checkpoint", "guard", "transpose"):
                # fault/checkpoint/guard phases only appear when injected
                # or supervised, and pillar transposes only on a 3-D
                # mesh — a plain unguarded 2-D run must charge nothing
                assert value == 0.0, key
            else:
                assert value > 0, key

    def test_filtering_within_dynamics(self, breakdown):
        assert breakdown.filtering < breakdown.dynamics

    def test_fractions_bounded(self, breakdown):
        assert 0 < breakdown.dynamics_fraction < 1
        assert 0 < breakdown.filtering_fraction_of_dynamics < 1

