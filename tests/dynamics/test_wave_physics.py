"""Physical validation of the dynamical core against wave theory.

The whole CFL/polar-filter story rests on the model actually carrying
gravity waves at ``c = sqrt(PHI_SCALE)``; these tests measure the wave
speed in the running nonlinear core and check geostrophic adjustment
behaviour.
"""

import numpy as np
import pytest

from repro import constants as const
from repro.dynamics.geometry import LocalGeometry
from repro.dynamics.state import ModelState, PHI_SCALE, PT_REFERENCE
from repro.dynamics.tendencies import DynamicsParams, compute_tendencies
from repro.dynamics.timestep import euler_step, leapfrog_step
from repro.grid.halo import pad_with_halo
from repro.grid.sphere import SphericalGrid


def _step_model(grid, geom, state, prev, dt, params):
    padded = {n: pad_with_halo(a) for n, a in state.fields().items()}
    tend = compute_tendencies(padded, geom, params)
    if prev is None:
        nxt = euler_step(state, tend, dt)
    else:
        nxt = leapfrog_step(prev, state, tend, dt, ra_coeff=0.05)
    nxt.v[-1] = 0.0
    return state, nxt


class TestGravityWaveSpeed:
    def test_simple_wave_travels_at_c(self):
        """A rightward simple wave (u' = phi'/c) moves at ~sqrt(PHI_SCALE).

        Measured by the phase shift of the equatorial zonal wavenumber-2
        component over a short integration (short enough that curvature
        and Coriolis barely act at the equator).
        """
        grid = SphericalGrid(16, 64)
        geom = LocalGeometry.from_grid(grid)
        params = DynamicsParams(diffusion=0.0)
        c = np.sqrt(PHI_SCALE)
        # High zonal wavenumber + wide envelope keep k >> l, so the
        # dispersive meridional contribution (omega^2 = c^2 (k^2 + l^2))
        # barely inflates the zonal phase speed.
        k_wave = 6

        state = ModelState.zeros(grid.nlat, grid.nlon, 1)
        lon = grid.lon_rad[None, :, None]
        lat = grid.lat_rad[:, None, None]
        envelope = np.exp(-(lat / 0.6) ** 2)  # broad tropical band
        dpt = 0.5 * envelope * np.cos(k_wave * lon)
        state.pt += dpt
        # Simple-wave relation: u' = phi' / c with phi' = PHI_SCALE*pt'/ref.
        state.u += (PHI_SCALE / PT_REFERENCE / c) * dpt

        dt = 0.2 * grid.dlon_m[grid.nlat // 2] / c
        nsteps = 16
        prev = None
        now = state
        for _ in range(nsteps):
            prev, now = _step_model(grid, geom, now, prev, dt, params)

        eq = grid.nlat // 2
        phase0 = np.angle(np.fft.rfft(dpt[eq, :, 0])[k_wave])
        phase1 = np.angle(np.fft.rfft(now.pt[eq, :, 0] - PT_REFERENCE)[k_wave])
        dphase = (phase0 - phase1) % (2 * np.pi)  # eastward = decreasing
        distance = dphase / k_wave * grid.radius * np.cos(grid.lat_rad[eq])
        measured_c = distance / (nsteps * dt)
        assert measured_c == pytest.approx(c, rel=0.25)

    def test_wave_speed_scales_with_phi(self):
        """Quadrupling PHI doubles the measured propagation speed."""
        grid = SphericalGrid(12, 48)
        geom = LocalGeometry.from_grid(grid)
        k_wave = 6
        speeds = {}
        for phi_scale in (PHI_SCALE, PHI_SCALE / 4):
            params = DynamicsParams(diffusion=0.0, phi_scale=phi_scale)
            c = np.sqrt(phi_scale)
            state = ModelState.zeros(grid.nlat, grid.nlon, 1)
            lon = grid.lon_rad[None, :, None]
            lat = grid.lat_rad[:, None, None]
            dpt = 0.5 * np.exp(-(lat / 0.6) ** 2) * np.cos(k_wave * lon)
            state.pt += dpt
            state.u += (phi_scale / PT_REFERENCE / c) * dpt
            dt = 0.2 * grid.dlon_m[grid.nlat // 2] / np.sqrt(PHI_SCALE)
            prev, now = None, state
            for _ in range(12):
                prev, now = _step_model(grid, geom, now, prev, dt, params)
            eq = grid.nlat // 2
            p0 = np.angle(np.fft.rfft(dpt[eq, :, 0])[k_wave])
            p1 = np.angle(
                np.fft.rfft(now.pt[eq, :, 0] - PT_REFERENCE)[k_wave]
            )
            dphase = (p0 - p1) % (2 * np.pi)
            speeds[phi_scale] = dphase
        ratio = speeds[PHI_SCALE] / speeds[PHI_SCALE / 4]
        assert ratio == pytest.approx(2.0, rel=0.3)


class TestGeostrophicTendency:
    def test_balanced_jet_nearly_steady(self):
        """A geostrophically balanced zonal jet has much smaller initial
        tendencies than the same jet without its balancing mass field."""
        grid = SphericalGrid(24, 32)
        geom = LocalGeometry.from_grid(grid)
        params = DynamicsParams(diffusion=0.0)

        lat = grid.lat_rad[:, None, None]
        u_jet = 10.0 * np.exp(-(((lat - 0.8) / 0.25) ** 2))

        # Integrate f*u = -dPhi/dy meridionally for the balancing pt.
        f = geom.f_c[1:-1, None, None]  # the kernel's Coriolis parameter
        dphi_dy = -f * u_jet
        phi = np.cumsum(dphi_dy, axis=0) * grid.dlat_m
        pt_anom = phi * PT_REFERENCE / PHI_SCALE

        balanced = ModelState.zeros(grid.nlat, grid.nlon, 1)
        balanced.u += u_jet
        balanced.pt += pt_anom
        unbalanced = ModelState.zeros(grid.nlat, grid.nlon, 1)
        unbalanced.u += u_jet

        def v_tendency(state):
            padded = {n: pad_with_halo(a) for n, a in state.fields().items()}
            tend = compute_tendencies(padded, geom, params)
            # Compare away from the polar caps, where the metric floor acts.
            band = np.abs(grid.lat_deg) < 70
            return np.abs(tend["v"][band]).max()

        assert v_tendency(balanced) < 0.35 * v_tendency(unbalanced)
