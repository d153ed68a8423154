"""Tests for the 3-D decomposition collectives: pillar transposes,
vertical halo exchange and leap-format scheduling."""

import numpy as np
import pytest

from repro.grid.decomposition import Decomposition
from repro.parallel import GENERIC, ProcessorMesh, Simulator
from repro.physics.workload import leap_schedule


def run(nranks, program, *args, general=False):
    # general=True records a timeline, which keeps every Exchange on the
    # scheduler's general per-message interpreter.
    return Simulator(nranks, GENERIC, record_events=general).run(
        program, *args
    )


class TestPillarTranspose:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("general", [False, True])
    def test_forward_is_alltoall(self, size, general):
        def program(ctx):
            chunks = [
                np.full((2, 2), 10 * ctx.rank + d) for d in range(size)
            ]
            got = yield from ctx.transpose_to_levels(chunks)
            # Indexed by source member: got[s] is what s sent to us.
            return [float(g[0, 0]) for g in got]

        res = run(size, program, general=general)
        for r, row in enumerate(res.returns):
            assert row == [10 * s + r for s in range(size)]

    @pytest.mark.parametrize("size", [2, 4, 5])
    def test_back_inverts_forward(self, size):
        def program(ctx):
            chunks = [
                np.array([ctx.rank * size + d]) for d in range(size)
            ]
            fwd = yield from ctx.transpose_to_levels(chunks)
            back = yield from ctx.transpose_from_levels(fwd)
            return [float(b[0]) for b in back]

        res = run(size, program)
        # Transposing twice restores each rank's own chunks.
        for r, row in enumerate(res.returns):
            assert row == [r * size + d for d in range(size)]

    def test_leap_rotation_differs_per_member(self):
        # The rounds rotate partners (dest = (rank + s) % size), so no
        # two pillar members address the same destination at the same
        # round — the leap-format property the schedule helper mirrors.
        assert leap_schedule(4, 0) != leap_schedule(4, 1)


class TestVerticalHalo:
    @pytest.mark.parametrize("kprocs", [1, 2, 3])
    @pytest.mark.parametrize("general", [False, True])
    def test_ghost_layers_match_neighbours(self, kprocs, general):
        from repro.parallel.collectives import exchange_vertical_halo

        nlev = 6
        mesh = ProcessorMesh(1, 1, kprocs)
        decomp = Decomposition(4, 5, mesh, nlev)
        field = np.arange(4 * 5 * nlev, dtype=float).reshape(4, 5, nlev)
        blocks = decomp.scatter(field)

        def program(ctx):
            padded = yield from exchange_vertical_halo(
                ctx, decomp, blocks[ctx.rank]
            )
            return padded

        res = run(mesh.size, program, general=general)
        for r, padded in enumerate(res.returns):
            sub = decomp.subdomain(r)
            # Interior layers are the local slab.
            np.testing.assert_array_equal(
                padded[:, :, 1:-1], blocks[r]
            )
            # Bottom ghost: neighbour's top layer, or replicated edge.
            want_bottom = (
                field[:, :, sub.lev0 - 1]
                if sub.lev0 > 0 else field[:, :, 0]
            )
            np.testing.assert_array_equal(padded[:, :, 0], want_bottom)
            want_top = (
                field[:, :, sub.lev1]
                if sub.lev1 < nlev else field[:, :, nlev - 1]
            )
            np.testing.assert_array_equal(padded[:, :, -1], want_top)

    def test_shape_mismatch_rejected(self):
        from repro.parallel.collectives import exchange_vertical_halo

        mesh = ProcessorMesh(1, 1, 2)
        decomp = Decomposition(4, 4, mesh, 4)

        def program(ctx):
            yield from exchange_vertical_halo(
                ctx, decomp, np.zeros((1, 1, 1))
            )

        with pytest.raises(ValueError):
            run(2, program)


class TestLeapSchedule:
    def test_identity_at_level_zero(self):
        assert leap_schedule(5, 0) == [0, 1, 2, 3, 4]

    def test_rotated_by_level(self):
        assert leap_schedule(4, 1) == [1, 2, 3, 0]
        assert leap_schedule(4, 3) == [3, 0, 1, 2]

    @pytest.mark.parametrize("n,k", [(1, 0), (3, 7), (6, 2)])
    def test_is_a_permutation(self, n, k):
        assert sorted(leap_schedule(n, k)) == list(range(n))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            leap_schedule(0, 0)
