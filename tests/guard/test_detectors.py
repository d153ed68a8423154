"""Detector unit tests + the NaN-detection property test (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.state import PROGNOSTIC_NAMES
from repro.grid import Decomposition
from repro.model import make_config
from repro.parallel import GENERIC, ProcessorMesh
from repro.guard import (
    NULL_GUARD,
    GuardConfig,
    NumericalHealthError,
    StateCorruption,
    StepGuard,
    run_agcm_guarded,
)
from repro.guard.detectors import CFL_EXEMPT_LAT_DEG, RankGuardState

pytestmark = pytest.mark.guard

NSTEPS = 6


def _setup(dims=(2, 2)):
    cfg = make_config("tiny", physics_every=2)
    mesh = ProcessorMesh(*dims)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    return cfg, mesh, decomp


def _rank_state(cfg, decomp, rank=0):
    grid = cfg.make_grid()
    sub = decomp.subdomain(rank)
    guard = StepGuard(GuardConfig())
    return RankGuardState(guard, rank, grid, sub, cfg.timestep()), grid, sub


def _local_fields(rng, cfg, sub):
    out = {}
    for name in PROGNOSTIC_NAMES:
        k = 1 if name == "ps" else cfg.nlayers
        out[name] = rng.standard_normal((sub.nlat, sub.nlon, k))
    return out


class TestNullGuard:
    def test_disabled_singleton(self):
        assert NULL_GUARD.enabled is False
        assert not hasattr(NULL_GUARD, "__dict__")  # __slots__: no state

    def test_step_guard_enabled(self):
        assert StepGuard(GuardConfig()).enabled is True


class TestCorruptionConsumption:
    def test_consumed_once(self):
        guard = StepGuard(
            GuardConfig(injections=(StateCorruption(3, 1, "pt"),))
        )
        assert guard.take_corruption(2, 1) is None
        assert guard.take_corruption(3, 0) is None
        inj = guard.take_corruption(3, 1)
        assert inj is not None and inj.field == "pt"
        # transiency: a rollback replaying step 3 must see it clean
        assert guard.take_corruption(3, 1) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="step"):
            StateCorruption(-1, 0)
        with pytest.raises(ValueError, match="rank"):
            StateCorruption(0, -1)
        with pytest.raises(ValueError, match="field"):
            StateCorruption(0, 0, field="temperature")


class TestNonfiniteScan:
    def test_clean_state_passes(self, rng):
        cfg, mesh, decomp = _setup()
        state, grid, sub = _rank_state(cfg, decomp)
        now = _local_fields(rng, cfg, sub)
        assert state._scan_nonfinite(now, 0) is None

    def test_nan_found_with_field_name(self, rng):
        cfg, mesh, decomp = _setup()
        state, grid, sub = _rank_state(cfg, decomp)
        now = _local_fields(rng, cfg, sub)
        now["q"][1, 2, 0] = np.inf
        verdict = state._scan_nonfinite(now, 4)
        assert verdict is not None
        assert verdict.detector == "nonfinite" and verdict.step == 4
        assert "'q'" in verdict.detail


class TestCflDetector:
    def test_calm_winds_pass(self, rng):
        cfg, mesh, decomp = _setup()
        state, grid, sub = _rank_state(cfg, decomp)
        now = _local_fields(rng, cfg, sub)
        assert state._check_cfl(now, 0) is None

    def test_violent_equatorial_wind_fires(self, rng):
        cfg, mesh, decomp = _setup()
        state, grid, sub = _rank_state(cfg, decomp)
        now = _local_fields(rng, cfg, sub)
        # A row near the equator is not filter-capped; an absurd wind
        # there must trip the effective-CFL alarm.
        lat = np.abs(grid.lat_deg[sub.lat_slice]).argmin()
        assert abs(grid.lat_deg[sub.lat_slice][lat]) < CFL_EXEMPT_LAT_DEG
        now["u"][lat, :, :] = 5.0e4
        verdict = state._check_cfl(now, 2)
        assert verdict is not None and verdict.detector == "cfl"

    def test_polar_rows_exempt(self, rng):
        cfg = make_config("tiny", physics_every=2)
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        # rank 0 owns the northernmost rows in a 2x2 split
        state, grid, sub = _rank_state(cfg, decomp, rank=0)
        now = _local_fields(np.random.default_rng(0), cfg, sub)
        polar = np.abs(grid.lat_deg[sub.lat_slice]).argmax()
        assert abs(grid.lat_deg[sub.lat_slice][polar]) >= CFL_EXEMPT_LAT_DEG
        now["u"][polar, :, :] = 5.0e4
        now["u"][now["u"] == 5.0e4] = 5.0e4  # only the polar row is wild
        verdict = state._check_cfl(now, 0)
        assert verdict is None


class TestDriftDetector:
    def test_first_check_sets_baseline(self, rng):
        cfg, mesh, decomp = _setup()
        state, grid, sub = _rank_state(cfg, decomp)
        now = _local_fields(rng, cfg, sub)
        totals = state._local_integrals(now)
        assert state._drift_verdict(totals, 0) is None  # no baseline yet

    def test_energy_jump_fires(self, rng):
        cfg, mesh, decomp = _setup()
        state, grid, sub = _rank_state(cfg, decomp)
        base = np.array([1.0, 1.0, 5.0])
        state._drift_base = base
        limit = state.guard.config.energy_drift_limit
        jumped = base * np.array([1.0 + 2.0 * limit, 1.0 + 2.0 * limit, 1.0])
        verdict = state._drift_verdict(jumped, 8)
        assert verdict is not None and verdict.detector == "drift"
        assert "energy" in verdict.detail

    def test_mass_jump_fires(self):
        cfg, mesh, decomp = _setup()
        state, grid, sub = _rank_state(cfg, decomp)
        state._drift_base = np.array([1.0, 1.0, 5.0])
        limit = state.guard.config.mass_drift_limit
        verdict = state._drift_verdict(
            np.array([1.0, 1.0, 5.0 * (1.0 + 2.0 * limit)]), 8
        )
        assert verdict is not None and "mass" in verdict.detail


class TestDetectionEndToEnd:
    @settings(max_examples=6, deadline=None)
    @given(
        step=st.integers(min_value=1, max_value=NSTEPS - 1),
        rank=st.integers(min_value=0, max_value=3),
        fieldidx=st.integers(min_value=0, max_value=len(PROGNOSTIC_NAMES) - 1),
    )
    def test_random_nan_detected_within_one_step(self, step, rank, fieldidx):
        """Property: any injected NaN trips the guard in the same step."""
        cfg, mesh, decomp = _setup()
        gcfg = GuardConfig(
            policy="halt",
            buddy_every=0,
            injections=(
                StateCorruption(step, rank % mesh.size,
                                PROGNOSTIC_NAMES[fieldidx]),
            ),
        )
        with pytest.raises(NumericalHealthError) as err:
            run_agcm_guarded(cfg, decomp, NSTEPS, GENERIC, guard=gcfg)
        assert err.value.verdict.detector == "nonfinite"
        assert err.value.step == step  # detected before the step ends
        assert err.value.rank == rank % mesh.size

    def test_detect_disabled_raises_only_at_end(self):
        cfg, mesh, decomp = _setup()
        gcfg = GuardConfig(
            policy="halt", detect=False, buddy_every=0,
            injections=(StateCorruption(2, 1),),
        )
        with pytest.raises(NumericalHealthError) as err:
            run_agcm_guarded(cfg, decomp, NSTEPS, GENERIC, guard=gcfg)
        assert err.value.step == NSTEPS  # end-of-run check, not step 2
        assert "disabled or skipped" in str(err.value)
