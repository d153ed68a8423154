"""Tests for AGCM configuration."""

import pytest

from repro import constants as c
from repro.model.config import (
    AGCMConfig,
    PAPER_9LAYER,
    PAPER_15LAYER,
    TINY,
    make_config,
)


class TestPresets:
    def test_paper_9layer_grid(self):
        assert (PAPER_9LAYER.nlat, PAPER_9LAYER.nlon, PAPER_9LAYER.nlayers) == (
            90, 144, 9,
        )

    def test_paper_15layer(self):
        assert PAPER_15LAYER.nlayers == 15

    def test_make_config_overrides(self):
        cfg = make_config("2x2.5x9", filter_backend="fft")
        assert cfg.filter_backend == "fft"
        assert cfg.nlat == 90

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            make_config("1x1x50")

    def test_describe_mentions_resolution(self):
        assert "2.5" in PAPER_9LAYER.describe()


class TestDerivedQuantities:
    def test_dt_from_cfl_at_45(self):
        """The CFL-derived dt respects the 45-degree bound with margin."""
        from repro.dynamics.cfl import max_stable_dt

        cfg = PAPER_9LAYER
        assert cfg.timestep() <= max_stable_dt(cfg.make_grid(), 45.0)

    def test_explicit_dt_honoured(self):
        cfg = PAPER_9LAYER.with_(dt=300.0)
        assert cfg.timestep() == 300.0

    def test_steps_per_day(self):
        cfg = PAPER_9LAYER.with_(dt=450.0)
        assert cfg.steps_per_day() == round(c.SECONDS_PER_DAY / 450.0)

    def test_physics_interval(self):
        cfg = PAPER_9LAYER.with_(dt=400.0, physics_every=4)
        assert cfg.physics_every * cfg.timestep() == pytest.approx(1600.0)

    def test_with_returns_new_object(self):
        cfg2 = TINY.with_(seed=99)
        assert cfg2.seed == 99 and TINY.seed != 99


class TestValidation:
    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            AGCMConfig(nlat=2, nlon=4)

    def test_bad_layers(self):
        with pytest.raises(ValueError):
            AGCMConfig(nlayers=0)

    def test_bad_physics_every(self):
        with pytest.raises(ValueError):
            AGCMConfig(physics_every=0)

    def test_bad_lb_passes(self):
        with pytest.raises(ValueError):
            AGCMConfig(lb_passes=0)
