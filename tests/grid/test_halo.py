"""Tests for halo exchange: serial reference vs virtual-parallel exchange."""

import numpy as np
import pytest

from repro.grid.decomposition import Decomposition
from repro.grid.halo import exchange_halos, pad_with_halo
from repro.parallel import GENERIC, ProcessorMesh, Simulator


class TestPadWithHalo:
    def test_interior_preserved(self, rng):
        f = rng.standard_normal((5, 7))
        p = pad_with_halo(f)
        np.testing.assert_array_equal(p[1:-1, 1:-1], f)

    def test_longitude_periodic(self, rng):
        f = rng.standard_normal((5, 7))
        p = pad_with_halo(f)
        np.testing.assert_array_equal(p[1:-1, 0], f[:, -1])
        np.testing.assert_array_equal(p[1:-1, -1], f[:, 0])

    def test_polar_rows_replicated(self, rng):
        f = rng.standard_normal((5, 7))
        p = pad_with_halo(f)
        np.testing.assert_array_equal(p[0], p[1])
        np.testing.assert_array_equal(p[-1], p[-2])

    def test_3d_fields(self, rng):
        f = rng.standard_normal((5, 7, 3))
        p = pad_with_halo(f)
        assert p.shape == (7, 9, 3)
        np.testing.assert_array_equal(p[1:-1, 1:-1], f)

    def test_wide_halo(self, rng):
        f = rng.standard_normal((6, 8))
        p = pad_with_halo(f, halo=2)
        assert p.shape == (10, 12)
        np.testing.assert_array_equal(p[2:-2, :2], f[:, -2:])

    def test_invalid_halo(self):
        with pytest.raises(ValueError):
            pad_with_halo(np.zeros((4, 4)), halo=0)
        with pytest.raises(ValueError):
            pad_with_halo(np.zeros((4, 4)), halo=5)


class TestExchangeHalos:
    @pytest.mark.parametrize("dims", [(1, 1), (1, 4), (3, 1), (2, 3), (3, 4)])
    @pytest.mark.parametrize("trailing", [(), (3,)])
    @pytest.mark.parametrize("halo", [1, 2])
    def test_matches_serial_reference(self, rng, dims, trailing, halo):
        """Every rank's padded block equals the slice of the global pad."""
        nlat, nlon = 9, 12
        field = rng.standard_normal((nlat, nlon, *trailing))
        mesh = ProcessorMesh(*dims)
        decomp = Decomposition(nlat, nlon, mesh)
        if any(
            halo > min(s.nlat, s.nlon) for s in decomp.subdomains()
        ):
            pytest.skip("halo wider than a block")
        reference = pad_with_halo(field, halo=halo)

        def program(ctx):
            local = decomp.scatter(field)[ctx.rank]
            padded = yield from exchange_halos(ctx, decomp, local, halo=halo)
            return padded

        res = Simulator(mesh.size, GENERIC).run(program)
        for sub in decomp.subdomains():
            got = res.returns[sub.rank]
            want = reference[
                sub.lat0 : sub.lat1 + 2 * halo, sub.lon0 : sub.lon1 + 2 * halo
            ]
            np.testing.assert_allclose(got, want)

    def test_corner_cells_from_diagonal_neighbours(self, rng):
        nlat, nlon = 8, 8
        field = rng.standard_normal((nlat, nlon))
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition(nlat, nlon, mesh)

        def program(ctx):
            local = decomp.scatter(field)[ctx.rank]
            return (yield from exchange_halos(ctx, decomp, local))

        res = Simulator(4, GENERIC).run(program)
        # Rank 0 owns lats 0-3, lons 0-3; its NE corner ghost is field[4, 4].
        assert res.returns[0][-1, -1] == pytest.approx(field[4, 4])

    def test_message_count(self, rng):
        """Interior ranks exchange 4 messages per call (2 EW + 2 NS)."""
        field = rng.standard_normal((9, 12))
        mesh = ProcessorMesh(3, 3)
        decomp = Decomposition(9, 12, mesh)

        def program(ctx):
            local = decomp.scatter(field)[ctx.rank]
            yield from exchange_halos(ctx, decomp, local)

        res = Simulator(9, GENERIC).run(program)
        center = mesh.rank_of(1, 1)
        assert res.trace.ranks[center].messages_sent == 4
        # Polar-row ranks skip one NS direction.
        south = mesh.rank_of(0, 0)
        assert res.trace.ranks[south].messages_sent == 3

    def test_shape_mismatch_rejected(self, rng):
        decomp = Decomposition(9, 12, ProcessorMesh(3, 3))

        def program(ctx):
            local = np.zeros((2, 2))
            yield from exchange_halos(ctx, decomp, local)

        with pytest.raises(ValueError):
            Simulator(9, GENERIC).run(program)
