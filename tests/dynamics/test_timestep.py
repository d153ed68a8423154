"""Tests for the leapfrog time integration."""

import numpy as np
import pytest

from repro.dynamics.state import ModelState, PROGNOSTIC_NAMES
from repro.dynamics.timestep import (
    euler_step,
    leapfrog_step,
    pin_polar_v,
)
from repro.grid.sphere import SphericalGrid


def _constant_tendencies(state, value):
    return {
        name: np.full_like(getattr(state, name), value)
        for name in PROGNOSTIC_NAMES
    }


class TestEuler:
    def test_linear_update(self):
        state = ModelState.zeros(4, 6, 2)
        tend = _constant_tendencies(state, 2.0)
        new = euler_step(state, tend, dt=10.0)
        np.testing.assert_allclose(new.u, 20.0)
        assert new.time == pytest.approx(10.0)

    def test_original_untouched(self):
        state = ModelState.zeros(4, 6, 2)
        u0 = state.u.copy()
        euler_step(state, _constant_tendencies(state, 1.0), 1.0)
        np.testing.assert_array_equal(state.u, u0)


class TestLeapfrog:
    def test_two_dt_jump(self):
        prev = ModelState.zeros(4, 6, 1)
        now = euler_step(prev, _constant_tendencies(prev, 1.0), 1.0)
        tend = _constant_tendencies(now, 1.0)
        nxt = leapfrog_step(prev, now, tend, dt=1.0, ra_coeff=0.0)
        np.testing.assert_allclose(nxt.u, prev.u + 2.0)
        assert nxt.time == pytest.approx(2.0)

    def test_ra_filter_mutates_now(self):
        prev = ModelState.zeros(4, 6, 1)
        now = prev.copy()
        now.u[...] = 1.0  # a pure 2dt oscillation candidate
        tend = _constant_tendencies(now, 0.0)
        leapfrog_step(prev, now, tend, dt=1.0, ra_coeff=0.1)
        # RA pulls `now` toward the prev/next average.
        assert np.all(now.u < 1.0)

    def test_ra_damps_computational_mode(self):
        """The even/odd-step splitting of leapfrog decays under RA."""
        prev = ModelState.zeros(2, 4, 1)
        now = prev.copy()
        now.pt[...] += 1.0  # seed the 2-dt computational mode
        amplitude = [np.abs(now.pt - prev.pt).max()]
        for _ in range(30):
            tend = _constant_tendencies(now, 0.0)
            nxt = leapfrog_step(prev, now, tend, 1.0, ra_coeff=0.1)
            prev, now = now, nxt
            amplitude.append(np.abs(now.pt - prev.pt).max())
        assert amplitude[-1] < 0.1 * amplitude[0]


class TestPolarPinning:
    def test_pins_only_edge_blocks(self, rng):
        v = rng.standard_normal((5, 6, 2))
        keep = v.copy()
        pin_polar_v(v, is_north_edge_block=False)
        np.testing.assert_array_equal(v, keep)
        pin_polar_v(v, is_north_edge_block=True)
        np.testing.assert_allclose(v[-1], 0.0)
        np.testing.assert_array_equal(v[:-1], keep[:-1])


class TestInitialFields:
    def test_block_consistency(self, rng):
        """A rank's block of the initial condition equals the global slice
        — the foundation of serial/parallel equivalence."""
        from repro.dynamics.state import initial_fields_block

        grid = SphericalGrid(12, 16)
        full = initial_fields_block(grid.lat_rad, grid.lon_rad, 3, seed=9)
        block = initial_fields_block(
            grid.lat_rad[4:9], grid.lon_rad[2:11], 3, seed=9
        )
        for name, arr in block.items():
            np.testing.assert_array_equal(arr, full[name][4:9, 2:11])

    def test_seed_changes_fields(self):
        from repro.dynamics.state import initial_fields_block

        grid = SphericalGrid(8, 12)
        a = initial_fields_block(grid.lat_rad, grid.lon_rad, 2, seed=1)
        b = initial_fields_block(grid.lat_rad, grid.lon_rad, 2, seed=2)
        assert not np.allclose(a["pt"], b["pt"])

    def test_state_diagnostics(self):
        grid = SphericalGrid(8, 12)
        state = ModelState.baroclinic_test(grid, 2)
        assert state.is_finite()
        assert state.max_wind() > 0
        assert state.total_mass(grid) > 0
        assert state.shape == (8, 12, 2)

    def test_copy_independent(self):
        grid = SphericalGrid(8, 12)
        state = ModelState.baroclinic_test(grid, 2)
        cp = state.copy()
        cp.u[...] += 1
        assert not np.allclose(cp.u, state.u)


def _old_initial_fields_block(lat_rad, lon_rad, nlayers, seed=7, amplitude=1.0):
    """The expression form ``initial_fields_block`` had before its
    temperature noise was formed in place: the oracle for its bits."""
    from repro import constants as c
    from repro.dynamics.state import PT_REFERENCE

    lat = np.asarray(lat_rad)[:, None, None]
    lon = np.asarray(lon_rad)[None, :, None]
    k = (np.arange(nlayers) + 1)[None, None, :] / nlayers
    nlat, nlon = lat.shape[0], lon.shape[1]
    u = 15.0 * amplitude * np.sin(2 * lat) ** 2 * np.cos(lat) * k
    u = np.broadcast_to(u, (nlat, nlon, nlayers)).copy()
    v = np.zeros((nlat, nlon, nlayers))
    bump = np.exp(-((np.abs(lat) - np.pi / 4) ** 2) / 0.08)
    pt = PT_REFERENCE + 2.0 * amplitude * bump * np.cos(4 * lon) * k
    phase = 127.1 * lat + 311.7 * lon + 97.3 * k + 0.618 * (seed + 1)
    pt = pt + 0.05 * amplitude * np.sin(43758.5453 * np.sin(phase))
    pt = np.broadcast_to(pt, (nlat, nlon, nlayers)).copy()
    q = np.broadcast_to(
        1e-2 * np.cos(lat) ** 2 * (1.0 - 0.8 * k), (nlat, nlon, nlayers)
    ).copy()
    ps = np.full((nlat, nlon, 1), c.P_REFERENCE)
    return {"u": u, "v": v, "pt": pt, "ps": ps, "q": q}


@pytest.mark.parametrize(
    "nlat, nlon, nlayers, seed, amplitude",
    [(90, 144, 9, 7, 1.0), (16, 32, 1, 3, 0.5), (45, 72, 15, 11, 2.0)],
)
def test_initial_fields_match_the_expression_form_byte_for_byte(
    nlat, nlon, nlayers, seed, amplitude
):
    from repro.dynamics.state import initial_fields_block

    grid = SphericalGrid(nlat, nlon)
    new = initial_fields_block(
        grid.lat_rad, grid.lon_rad, nlayers, seed=seed, amplitude=amplitude)
    old = _old_initial_fields_block(
        grid.lat_rad, grid.lon_rad, nlayers, seed=seed, amplitude=amplitude)
    assert list(new) == list(old)
    for name in old:
        assert new[name].shape == old[name].shape == (
            nlat, nlon, 1 if name == "ps" else nlayers)
        assert new[name].flags.c_contiguous and new[name].flags.writeable
        assert new[name].tobytes() == old[name].tobytes(), name
