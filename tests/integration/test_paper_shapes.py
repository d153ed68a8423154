"""Integration tests of the paper's qualitative claims at reduced scale.

The full-resolution table regenerations live under ``benchmarks/``; these
tests pin the same *shape* claims on smaller grids so the ordinary test
suite stays fast.
"""

import numpy as np
import pytest

from repro.core import make_filter_plan, prepare_filter_backend
from repro.dynamics.state import initial_fields_block
from repro.grid import Decomposition, SphericalGrid
from repro.model import ComponentBreakdown, make_config
from repro.model.parallel_agcm import agcm_rank_program
from repro.parallel import PARAGON, T3D, ProcessorMesh, Simulator


def _filter_program(decomp, backend, grid, nlayers):
    def program(ctx):
        sub = decomp.subdomain(ctx.rank)
        fields = initial_fields_block(
            grid.lat_rad[sub.lat_slice], grid.lon_rad[sub.lon_slice], nlayers
        )
        yield from ctx.barrier()
        with ctx.region("filter"):
            yield from backend.apply(ctx, fields)
        return None

    return program


@pytest.fixture(scope="module")
def filter_times():
    """Isolated filter times per backend on a mid-size mesh, both machines."""
    grid = SphericalGrid(30, 48)
    plan = make_filter_plan(grid)
    mesh = ProcessorMesh(5, 4)
    decomp = Decomposition(grid.nlat, grid.nlon, mesh)
    out = {}
    for machine in (PARAGON, T3D):
        for name in ("convolution-ring", "convolution-tree", "fft", "fft-lb"):
            backend = prepare_filter_backend(name, plan, decomp)
            res = Simulator(mesh.size, machine).run(
                _filter_program(decomp, backend, grid, 6)
            )
            out[(machine.name, name)] = res.trace.phase_max("filter")
    return out


class TestFilteringOrdering:
    def test_convolution_slowest_fft_lb_fastest(self, filter_times):
        """Tables 8-11's column ordering: conv > fft > fft-lb."""
        for machine in ("paragon", "t3d"):
            conv = filter_times[(machine, "convolution-ring")]
            fft = filter_times[(machine, "fft")]
            lb = filter_times[(machine, "fft-lb")]
            assert conv > fft > lb, machine

    def test_fft_lb_large_factor_over_convolution(self, filter_times):
        """Paper: ~3.5-5x depending on mesh."""
        ratio = (
            filter_times[("paragon", "convolution-ring")]
            / filter_times[("paragon", "fft-lb")]
        )
        assert ratio > 2.0

    def test_t3d_faster_than_paragon(self, filter_times):
        for name in ("convolution-ring", "fft", "fft-lb"):
            assert filter_times[("t3d", name)] < filter_times[("paragon", name)]


@pytest.fixture(scope="module")
def agcm_runs():
    """Tiny AGCM runs across meshes and backends on the Paragon model."""
    cfg = make_config("tiny")
    out = {}
    for backend in ("convolution-ring", "fft-lb"):
        for dims in ((1, 1), (3, 4)):
            mesh = ProcessorMesh(*dims)
            decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
            res = Simulator(mesh.size, PARAGON).run(
                agcm_rank_program, cfg.with_(filter_backend=backend),
                decomp, 8,
            )
            out[(backend, dims)] = ComponentBreakdown.from_result(res, 8, cfg)
    return out


class TestWholeCodeShapes:
    def test_new_filter_reduces_total_time(self, agcm_runs):
        """The headline ~45% overall reduction (direction + meaningful
        magnitude at this scale)."""
        old = agcm_runs[("convolution-ring", (3, 4))].total
        new = agcm_runs[("fft-lb", (3, 4))].total
        assert new < old

    def test_parallel_faster_than_serial(self, agcm_runs):
        for backend in ("convolution-ring", "fft-lb"):
            serial = agcm_runs[(backend, (1, 1))].total
            parallel = agcm_runs[(backend, (3, 4))].total
            assert parallel < serial / 3

    def test_filtering_fraction_drops_with_new_filter(self, agcm_runs):
        old = agcm_runs[("convolution-ring", (3, 4))]
        new = agcm_runs[("fft-lb", (3, 4))]
        assert (
            new.filtering_fraction_of_dynamics
            < old.filtering_fraction_of_dynamics
        )

    def test_physics_identical_cost_across_backends(self, agcm_runs):
        """The filter choice must not change the physics workload."""
        old = agcm_runs[("convolution-ring", (1, 1))].physics
        new = agcm_runs[("fft-lb", (1, 1))].physics
        assert old == pytest.approx(new, rel=1e-9)


class TestPhysicsLbEndToEnd:
    def test_lb_reduces_physics_critical_path(self):
        """Scheme-3 balancing shortens the physics phase of a real run."""
        cfg = make_config("tiny", physics_every=2)
        mesh = ProcessorMesh(3, 4)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        nsteps = 13  # several physics calls so balancing engages

        res_off = Simulator(mesh.size, PARAGON).run(
            agcm_rank_program, cfg, decomp, nsteps
        )
        res_on = Simulator(mesh.size, PARAGON).run(
            agcm_rank_program, cfg.with_(physics_lb=True), decomp, nsteps
        )
        phys_off = res_off.trace.phase_max("physics")
        phys_on = res_on.trace.phase_max("physics")
        assert phys_on < phys_off
        moved = sum(r["columns_moved"] for r in res_on.returns)
        assert moved > 0
