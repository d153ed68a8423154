"""Tests for the decomposition on a vertically split mesh, and its
slab views."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.grid.decomposition import Decomposition
from repro.parallel.topology import ProcessorMesh
from repro.util.partition import owner_of


def _decomp(nlat=12, nlon=16, nlev=6, dims=(2, 2, 3)):
    return Decomposition(nlat, nlon, ProcessorMesh(*dims), nlev)


class TestPartition:
    def test_slabs_tile_the_grid_exactly(self):
        d = _decomp()
        seen = np.zeros((d.nlat, d.nlon, d.nlev), dtype=int)
        for s in d.subdomains():
            seen[s.lat_slice, s.lon_slice, s.lev_slice] += 1
        assert (seen == 1).all()

    def test_counts_sum_to_grid(self):
        d = _decomp()
        counts = [s.nlat * s.nlon * s.nlev for s in d.subdomains()]
        assert sum(counts) == d.nlat * d.nlon * d.nlev

    def test_owner_of_point_consistent(self):
        d = _decomp()
        for s in d.subdomains():
            i, j, k = (owner_of(g, n, p) for g, n, p in (
                (s.lat0, d.nlat, d.mesh.nlat_procs),
                (s.lon0, d.nlon, d.mesh.nlon_procs),
                (s.lev0, d.nlev, d.mesh.nlev_procs)))
            assert d.mesh.rank_of(i, j, k) == s.rank

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            Decomposition(4, 4, ProcessorMesh(1, 1, 3), 2)


class TestScatterGather:
    @given(
        nlev=st.integers(2, 8),
        kprocs=st.integers(1, 4),
    )
    def test_roundtrip_3d_field(self, nlev, kprocs):
        if nlev < kprocs:
            nlev = kprocs
        d = _decomp(nlev=nlev, dims=(2, 2, kprocs))
        field = np.arange(
            d.nlat * d.nlon * d.nlev, dtype=float
        ).reshape(d.nlat, d.nlon, d.nlev)
        blocks = d.scatter(field)
        np.testing.assert_array_equal(d.gather(blocks), field)

    def test_single_level_field_replicated_per_pillar(self):
        for dims in ((2, 2, 1), (2, 2, 3)):
            d = _decomp(dims=dims)
            ps = np.random.default_rng(0).standard_normal(
                (d.nlat, d.nlon, 1))
            blocks = d.scatter(ps)
            mesh = d.mesh
            for i in range(mesh.nlat_procs):
                for j in range(mesh.nlon_procs):
                    pillar = mesh.pillar_ranks(i, j)
                    for r in pillar:
                        np.testing.assert_array_equal(
                            blocks[r], ps[d.subdomain(r).lat_slice,
                                          d.subdomain(r).lon_slice]
                        )
            np.testing.assert_array_equal(
                d.gather(blocks, single_level=True), ps
            )

    def test_single_level_gather_needs_flag_on_unit_slabs(self):
        # nlev == nlev_procs leaves one layer per rank: ps blocks are
        # shape-identical to split blocks, so the caller must say so.
        d = _decomp(nlev=3, dims=(2, 2, 3))
        ps = np.ones((d.nlat, d.nlon, 1))
        blocks = d.scatter(ps)
        out = d.gather(blocks, single_level=True)
        assert out.shape == (d.nlat, d.nlon, 1)

    def test_wrong_block_count_rejected(self):
        d = _decomp()
        with pytest.raises(ValueError):
            d.gather([np.zeros((1, 1, 1))])


class TestSlabViews:
    def test_slab_is_2d_shaped(self):
        d = _decomp()
        slab = d.slab(1)
        assert slab.nlat == d.nlat and slab.nlon == d.nlon
        subs = slab.subdomains()
        assert len(subs) == d.mesh.nlat_procs * d.mesh.nlon_procs
        # Keyed by *global* rank, all on the requested level.
        for s in subs:
            assert d.subdomain(s.rank).klev_proc == 1

    def test_slab_mesh_speaks_global_ranks(self):
        d = _decomp()
        slab = d.slab(2)
        m = slab.mesh
        for i in range(m.nlat_procs):
            for j in range(m.nlon_procs):
                g = m.rank_of(i, j)
                assert d.mesh.coords3_of(g) == (i, j, 2)

    def test_slab_neighbours_stay_in_level(self):
        d = _decomp()
        m = d.slab(1).mesh
        for s in d.slab(1).subdomains():
            for other in m.neighbours(s.rank):
                if other is not None:
                    assert d.subdomain(other).klev_proc == 1
            assert m.neighbours(s.rank) == d.mesh.neighbours(s.rank)

    def test_slab_cached(self):
        d = _decomp()
        assert d.slab(0) is d.slab(0)

    def test_bad_level_rejected(self):
        d = _decomp()
        with pytest.raises(IndexError):
            d.slab(3).mesh  # noqa: B018 — construction raises

    def test_lev_bounds(self):
        d = _decomp(nlev=7, dims=(1, 1, 3))
        bounds = [d.lev_bounds_of_proc(k) for k in range(3)]
        assert bounds[0][0] == 0 and bounds[-1][1] == 7
        widths = [b1 - b0 for b0, b1 in bounds]
        assert sum(widths) == 7 and max(widths) - min(widths) <= 1

    def test_horizontal_projection(self):
        # A slab holds the parent's own blocks, keyed by global rank:
        # the horizontal code sees each rank's block of its level.
        d = _decomp()
        for s in d.subdomains():
            slab = d.slab(s.klev_proc)
            assert slab.subdomain(s.rank) is s
            assert slab.subdomain(s.rank).shape == (s.nlat, s.nlon)
