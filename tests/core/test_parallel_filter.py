"""Parallel filter drivers vs the serial reference — the key equivalence."""

import numpy as np
import pytest

from repro.core import (
    FILTER_BACKENDS,
    apply_serial_filter,
    make_filter_plan,
    prepare_filter_backend,
)
from repro.grid import Decomposition, SphericalGrid
from repro.parallel import GENERIC, ProcessorMesh, Simulator
from repro.verify import tolerances


@pytest.fixture(scope="module")
def setup():
    grid = SphericalGrid(nlat=18, nlon=24)
    rng = np.random.default_rng(7)
    fields = {
        n: rng.standard_normal((grid.nlat, grid.nlon, 3))
        for n in ("u", "v", "pt", "q")
    }
    fields["ps"] = rng.standard_normal((grid.nlat, grid.nlon, 1))
    plan = make_filter_plan(grid)
    reference = {n: f.copy() for n, f in fields.items()}
    apply_serial_filter(plan, reference, method="fft")
    return grid, fields, plan, reference


def _run_backend(grid, fields, plan, backend_name, mesh_dims):
    mesh = ProcessorMesh(*mesh_dims)
    decomp = Decomposition(grid.nlat, grid.nlon, mesh)
    backend = prepare_filter_backend(backend_name, plan, decomp)

    def program(ctx):
        local = {n: decomp.scatter(fields[n])[ctx.rank].copy() for n in fields}
        yield from backend.apply(ctx, local)
        return local

    res = Simulator(mesh.size, GENERIC).run(program)
    gathered = {
        n: decomp.gather([res.returns[r][n] for r in range(mesh.size)])
        for n in fields
    }
    return gathered, res


class TestSerialEquivalence:
    def test_serial_methods_agree(self, setup):
        grid, fields, plan, reference = setup
        conv = {n: f.copy() for n, f in fields.items()}
        apply_serial_filter(plan, conv, method="convolution")
        for n in fields:
            np.testing.assert_allclose(conv[n], reference[n], atol=tolerances.FILTER_ATOL)

    @pytest.mark.parametrize("backend", FILTER_BACKENDS)
    @pytest.mark.parametrize(
        "mesh_dims", [(1, 1), (2, 3), (3, 4), (1, 4), (3, 1)]
    )
    def test_parallel_matches_serial(self, setup, backend, mesh_dims):
        grid, fields, plan, reference = setup
        gathered, _ = _run_backend(grid, fields, plan, backend, mesh_dims)
        for n in fields:
            np.testing.assert_allclose(
                gathered[n], reference[n], atol=tolerances.FILTER_ATOL,
                err_msg=f"{backend} {mesh_dims} field {n}",
            )

    def test_uneven_decomposition(self, setup):
        """Mesh extents that do not divide the grid (like the paper's)."""
        grid, fields, plan, reference = setup
        gathered, _ = _run_backend(grid, fields, plan, "fft-lb", (4, 5))
        for n in fields:
            np.testing.assert_allclose(gathered[n], reference[n], atol=tolerances.FILTER_ATOL)


class TestCommunicationStructure:
    def test_ring_message_count(self, setup):
        """Ring variant: N(N-1) messages within each active processor row."""
        grid, fields, plan, _ = setup
        _, res = _run_backend(grid, fields, plan, "convolution-ring", (3, 4))
        # Rows 0 and 2 are active (filtered latitudes), row 1 idle:
        # 2 rows x 4*3 ring messages.
        assert res.trace.total_messages() == 2 * 4 * 3

    def test_tree_fewer_messages_than_ring(self, setup):
        grid, fields, plan, _ = setup
        _, ring = _run_backend(grid, fields, plan, "convolution-ring", (3, 4))
        _, tree = _run_backend(grid, fields, plan, "convolution-tree", (3, 4))
        assert tree.trace.total_messages() < ring.trace.total_messages()

    def test_tree_moves_more_than_fft(self, setup):
        """Per the paper's complexity table, the transpose FFT moves the
        least data of the line-assembling strategies."""
        grid, fields, plan, _ = setup
        _, tree = _run_backend(grid, fields, plan, "convolution-tree", (3, 4))
        _, fft = _run_backend(grid, fields, plan, "fft", (3, 4))
        assert fft.trace.total_bytes() < tree.trace.total_bytes()

    def test_lb_uses_idle_ranks(self, setup):
        """Without LB, the equatorial processor row computes nothing."""
        grid, fields, plan, _ = setup
        _, fft = _run_backend(grid, fields, plan, "fft", (3, 4))
        _, lb = _run_backend(grid, fields, plan, "fft-lb", (3, 4))
        mesh = ProcessorMesh(3, 4)
        middle = mesh.row_ranks(1)
        fft_mid = sum(fft.trace.ranks[r].compute_time for r in middle)
        lb_mid = sum(lb.trace.ranks[r].compute_time for r in middle)
        assert fft_mid == 0.0
        assert lb_mid > 0.0

    def test_lb_faster_at_scale(self):
        """The headline: balanced FFT beats unbalanced on a tall mesh."""
        grid = SphericalGrid(nlat=36, nlon=24)
        rng = np.random.default_rng(3)
        fields = {
            n: rng.standard_normal((36, 24, 3)) for n in ("u", "v", "pt", "q")
        }
        fields["ps"] = rng.standard_normal((36, 24, 1))
        plan = make_filter_plan(grid)
        mesh = ProcessorMesh(6, 2)
        decomp = Decomposition(grid.nlat, grid.nlon, mesh)
        times = {}
        # Use the Paragon model: the flop-bound regime the paper studies
        # (on a very fast machine the balancer's extra messages can win).
        from repro.parallel import PARAGON

        for backend in ("convolution-ring", "fft", "fft-lb"):
            be = prepare_filter_backend(backend, plan, decomp)

            def program(ctx):
                local = {
                    n: decomp.scatter(fields[n])[ctx.rank].copy()
                    for n in fields
                }
                yield from be.apply(ctx, local)

            times[backend] = Simulator(mesh.size, PARAGON).run(program).elapsed
        assert times["fft-lb"] < times["fft"] < times["convolution-ring"]


class TestValidation:
    def test_unknown_backend(self, setup):
        grid, _, plan, _ = setup
        decomp = Decomposition(grid.nlat, grid.nlon, ProcessorMesh(1, 1))
        with pytest.raises(ValueError):
            prepare_filter_backend("dct", plan, decomp)

    def test_2d_field_rejected(self, setup):
        grid, fields, plan, _ = setup
        bad = {n: f.copy() for n, f in fields.items()}
        bad["ps"] = bad["ps"][:, :, 0]  # drop the layer axis
        decomp = Decomposition(grid.nlat, grid.nlon, ProcessorMesh(2, 2))
        backend = prepare_filter_backend("fft-lb", plan, decomp)

        def program(ctx):
            local = {n: decomp.scatter(bad[n])[ctx.rank].copy() for n in bad}
            yield from backend.apply(ctx, local)

        with pytest.raises(ValueError, match="3-D"):
            Simulator(4, GENERIC).run(program)
