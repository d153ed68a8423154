"""Tests for the finite-difference tendency kernel."""

import numpy as np
import pytest

from repro.dynamics.geometry import LocalGeometry
from repro.dynamics.operators import (
    laplacian5,
    u_at_v_points,
    v_at_u_points,
)
from repro.dynamics.state import ModelState, PT_REFERENCE
from repro.dynamics.tendencies import (
    DynamicsParams,
    TendencyWorkspace,
    compute_tendencies,
    dynamics_flops,
    dynamics_mem_bytes,
    surface_pressure_tendency,
)
from repro.grid.decomposition import Decomposition
from repro.grid.halo import pad_with_halo
from repro.grid.sphere import SphericalGrid
from repro.parallel.topology import ProcessorMesh


def _padded_state(state: ModelState):
    return {name: pad_with_halo(arr) for name, arr in state.fields().items()}


@pytest.fixture
def grid():
    return SphericalGrid(16, 24)


@pytest.fixture
def geom(grid):
    return LocalGeometry.from_grid(grid)


class TestRestState:
    def test_uniform_rest_state_stationary(self, grid, geom):
        """No winds, uniform pt: every tendency vanishes."""
        state = ModelState.zeros(grid.nlat, grid.nlon, 3)
        tend = compute_tendencies(_padded_state(state), geom)
        for name, t in tend.items():
            np.testing.assert_allclose(t, 0.0, atol=1e-12, err_msg=name)

    def test_pressure_gradient_accelerates(self, grid, geom):
        """A zonal pt gradient drives u (geostrophic adjustment begins)."""
        state = ModelState.zeros(grid.nlat, grid.nlon, 1)
        state.pt[...] = PT_REFERENCE + 1.0 * np.sin(
            2 * np.pi * np.arange(grid.nlon) / grid.nlon
        )[None, :, None]
        tend = compute_tendencies(
            _padded_state(state), geom, DynamicsParams(diffusion=0.0)
        )
        assert np.abs(tend["u"]).max() > 0
        np.testing.assert_allclose(tend["v"][:-1], 0.0, atol=1e-10)

    def test_coriolis_turns_wind(self, grid, geom):
        state = ModelState.zeros(grid.nlat, grid.nlon, 1)
        state.u[...] = 10.0
        tend = compute_tendencies(
            _padded_state(state), geom, DynamicsParams(diffusion=0.0)
        )
        # Northern-hemisphere rows: f > 0, u > 0 -> dv/dt = -f u < 0.
        north = grid.lat_deg > 10
        assert np.all(tend["v"][north][:-1] < 0)


class TestConservation:
    def test_mass_conserved_by_flux_form(self, grid, geom, rng):
        """The discrete mass integral (cos-weighted, the scheme's own
        measure) is conserved exactly: closed poles + periodic longitude
        + telescoping fluxes.  Diffusion uses replicated ghost rows, so
        it conserves too."""
        state = ModelState.baroclinic_test(grid, 3)
        state.v[...] = rng.standard_normal(state.v.shape)
        state.v[-1] = 0.0
        tend = compute_tendencies(
            _padded_state(state), geom, DynamicsParams(diffusion=0.0)
        )
        w = geom.cos_c[1:-1][:, None, None]  # the scheme's row weights
        weighted = (tend["pt"] * w).sum()
        scale = (np.abs(tend["pt"]) * w).sum()
        assert abs(weighted) < 1e-12 * max(scale, 1e-30)

    def test_diffusion_residual_small(self, grid, geom, rng):
        """The latitude-scaled diffusion is not exactly conservative, but
        its mass residual is negligible at default settings."""
        state = ModelState.baroclinic_test(grid, 3)
        state.v[...] = rng.standard_normal(state.v.shape)
        state.v[-1] = 0.0
        tend = compute_tendencies(_padded_state(state), geom)
        w = geom.cos_c[1:-1][:, None, None]
        ratio = abs((tend["pt"] * w).sum()) / (np.abs(tend["pt"]) * w).sum()
        assert ratio < 1e-6

    def test_polar_v_tendency_zero(self, grid, geom, rng):
        state = ModelState.baroclinic_test(grid, 2)
        tend = compute_tendencies(_padded_state(state), geom)
        np.testing.assert_allclose(tend["v"][-1], 0.0)

    def test_ps_tracks_layer_mean(self, grid, geom):
        state = ModelState.baroclinic_test(grid, 4)
        tend = compute_tendencies(_padded_state(state), geom)
        expected = tend["pt"].mean(axis=2, keepdims=True)
        np.testing.assert_allclose(
            tend["ps"],
            expected * (1.0e5 / PT_REFERENCE),
            rtol=1e-12,
        )


class TestAccounting:
    def test_flop_count_scale(self):
        assert dynamics_flops(1000, 9) == pytest.approx(1550.0 * 9000)

    def test_mem_bytes_positive(self):
        assert dynamics_mem_bytes(100, 9) > 100 * 9 * 8

    def test_tendencies_shapes(self, grid, geom):
        state = ModelState.baroclinic_test(grid, 3)
        tend = compute_tendencies(_padded_state(state), geom)
        assert tend["u"].shape == (grid.nlat, grid.nlon, 3)
        assert tend["ps"].shape == (grid.nlat, grid.nlon, 1)


def expression_form_tendencies(padded, geom, params=DynamicsParams()):
    """The kernel as it stood before the workspace rewrite, verbatim: one
    numpy expression (and one fresh temporary) per operator.  The oracle
    the streaming kernel must match byte for byte."""
    u, v, pt, q = padded["u"], padded["v"], padded["pt"], padded["q"]
    ndim = u.ndim
    dx_c = geom.col(geom.dx_c, ndim)
    cos_c = geom.col(geom.cos_c, ndim)
    f_c = geom.col(geom.f_c, ndim)
    dy = geom.dy
    # Latitude-scaled diffusion coefficient (see LocalGeometry.diff_scale).
    nu = params.diffusion * geom.col(geom.diff_scale, ndim)
    phi_fac = params.phi_scale / PT_REFERENCE

    # ---- continuity: flux-form mass transport -------------------------
    # Zonal flux at the east face of every padded column but the last.
    fx = u[:, :-1] * (0.5 * (pt[:, :-1] + pt[:, 1:]))
    div_x = (fx[1:-1, 1:] - fx[1:-1, :-1]) / dx_c
    # Meridional flux through the north face of every padded row but the
    # last, weighted by the face cosine (zero at the poles -> closed).
    cos_n_rows = geom.cos_n[:-1].reshape(-1, *([1] * (ndim - 1)))
    fy = v[:-1] * (0.5 * (pt[:-1] + pt[1:])) * cos_n_rows
    div_y = (fy[1:] - fy[:-1])[:, 1:-1] / (cos_c * dy)
    dpt = -(div_x + div_y)

    # ---- u momentum (u points = east faces) ----------------------------
    dphi_dx = phi_fac * (pt[1:-1, 2:] - pt[1:-1, 1:-1]) / dx_c
    v4 = v_at_u_points(v)
    u_c = u[1:-1, 1:-1]
    du_dx = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * dx_c)
    du_dy = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * dy)
    du = (
        f_c * v4
        - dphi_dx
        - (u_c * du_dx + v4 * du_dy)
        + nu * laplacian5(u, geom.dx_c[1:-1], dy)
    )

    # ---- v momentum (v points = north faces) ---------------------------
    f_n = geom.col(geom.f_n, ndim)
    dx_n = geom.col(geom.dx_n, ndim)
    dphi_dy = phi_fac * (pt[2:, 1:-1] - pt[1:-1, 1:-1]) / dy
    u4 = u_at_v_points(u)
    v_c = v[1:-1, 1:-1]
    dv_dx = (v[1:-1, 2:] - v[1:-1, :-2]) / (2.0 * dx_n)
    dv_dy = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * dy)
    dv = (
        -f_n * u4
        - dphi_dy
        - (u4 * dv_dx + v_c * dv_dy)
        + nu * laplacian5(v, geom.dx_n[1:-1], dy)
    )
    # No flow through the poles: zero the tendency where the face cosine
    # vanishes (the top row of the northernmost block).
    polar = geom.cos_n[1:-1] <= 0.0
    if polar.any():
        dv[polar] = 0.0

    # ---- humidity tracer (advective form at centres) --------------------
    u_ctr = 0.5 * (u[1:-1, 1:-1] + u[1:-1, :-2])
    v_ctr = 0.5 * (v[1:-1, 1:-1] + v[:-2, 1:-1])
    dq = -(
        u_ctr * (q[1:-1, 2:] - q[1:-1, :-2]) / (2.0 * dx_c)
        + v_ctr * (q[2:, 1:-1] - q[:-2, 1:-1]) / (2.0 * dy)
    ) + nu * laplacian5(q, geom.dx_c[1:-1], dy)

    # ---- pt diffusion (stabilises the mass field) ------------------------
    dpt = dpt + nu * laplacian5(pt, geom.dx_c[1:-1], dy)

    # ---- surface pressure proxy -------------------------------------------
    dps = surface_pressure_tendency(dpt)

    return {"u": du, "v": dv, "pt": dpt, "q": dq, "ps": dps}


def _blocks(nlat_procs, nlon_procs, nlayers):
    """(padded block, its geometry) for every tile of the paper grid cut
    ``nlat_procs x nlon_procs``, from one perturbed global state."""
    grid = SphericalGrid(90, 144)
    state = ModelState.baroclinic_test(grid, nlayers, seed=3)
    rng = np.random.default_rng(11)
    state.v[...] = 2.0 * rng.standard_normal(state.v.shape)
    state.q[...] += 1e-3 * rng.standard_normal(state.q.shape)
    full = _padded_state(state)
    decomp = Decomposition(grid.nlat, grid.nlon,
                             ProcessorMesh(nlat_procs, nlon_procs))
    out = []
    for sub in decomp.subdomains():
        window = (slice(sub.lat0, sub.lat1 + 2), slice(sub.lon0, sub.lon1 + 2))
        out.append((
            {name: np.ascontiguousarray(arr[window])
             for name, arr in full.items()},
            LocalGeometry.from_grid(grid, sub.lat0, sub.lat1),
        ))
    return out


def _bytes(tend):
    return {name: arr.tobytes() for name, arr in tend.items()}


class TestKernelOracle:
    """The streaming kernel against the expression form, ``tobytes()``."""

    # 1 x 1: the whole grid (both poles in one block); 4 x 4: the uneven
    # 90-over-4 rows (22 and 23) with south-polar, interior and
    # north-polar blocks; 8 x 8: the 11/12 x 18 tiles.
    @pytest.mark.parametrize("cut", [(1, 1), (4, 4), (8, 8)])
    @pytest.mark.parametrize("nlayers", [1, 3, 9, 15])
    def test_every_tile_matches_expression_form(self, cut, nlayers):
        shapes = set()
        polar_rows = 0
        for padded, geom in _blocks(*cut, nlayers):
            want = expression_form_tendencies(padded, geom)
            got = compute_tendencies(padded, geom)
            assert _bytes(got) == _bytes(want), (cut, geom.lat0)
            shapes.add(got["u"].shape[:2])
            polar_rows += geom.stencil.polar.size
        # The ``dv[polar] = 0`` branch ran: the north pole's face row.
        assert polar_rows == cut[1]
        if cut == (4, 4):
            assert shapes == {(22, 36), (23, 36)}
        if cut == (8, 8):
            assert shapes == {(11, 18), (12, 18)}

    def test_parameters_reach_the_kernel(self):
        params = DynamicsParams(diffusion=3.0e4, phi_scale=1.0e4)
        for padded, geom in _blocks(2, 1, 3):
            assert _bytes(compute_tendencies(padded, geom, params)) == _bytes(
                expression_form_tendencies(padded, geom, params))

    def test_workspace_history_does_not_matter(self):
        """Fresh, reused, and last used by another block of the shape."""
        blocks = [b for b in _blocks(4, 4, 9)
                  if b[0]["u"].shape == (25, 38, 9)]
        assert len(blocks) == 8  # two 23-row processor rows
        (first, geom_a), (other, geom_b) = blocks[0], blocks[-1]
        want = _bytes(compute_tendencies(first, geom_a))
        work = TendencyWorkspace(23, 36, 9)
        assert _bytes(compute_tendencies(first, geom_a, workspace=work)) == want
        assert _bytes(compute_tendencies(first, geom_a, workspace=work)) == want
        compute_tendencies(other, geom_b, workspace=work)
        assert _bytes(compute_tendencies(first, geom_a, workspace=work)) == want

    def test_outputs_are_the_callers_own(self):
        """The five results never alias the workspace or each other."""
        (padded, geom), = _blocks(1, 1, 3)
        work = TendencyWorkspace(90, 144, 3)
        first = compute_tendencies(padded, geom, workspace=work)
        kept = _bytes(first)
        second = compute_tendencies(padded, geom, workspace=work)
        assert _bytes(first) == kept
        held = list(work.scratch) + [work.fx, work.fy]
        for arr in list(first.values()) + list(second.values()):
            assert not any(np.shares_memory(arr, h) for h in held)

    def test_wrong_shape_workspace_is_refused(self):
        (padded, geom), = _blocks(1, 1, 3)
        with pytest.raises(ValueError, match="workspace of shape"):
            compute_tendencies(padded, geom,
                               workspace=TendencyWorkspace(90, 144, 2))
