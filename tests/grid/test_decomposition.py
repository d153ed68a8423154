"""Tests for the block decomposition over meshes of any ``nlev_procs``.

The paper's horizontal layout is the ``nlev_procs == 1`` case; the
split-mesh specifics (slab views, pillar replication) are in
``test_decomposition3d.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.decomposition import Decomposition
from repro.parallel.topology import ProcessorMesh
from repro.util.partition import owner_of


def _owner(decomp, glat, glon, glev=0):
    """The rank whose block holds a global point, by the front-loaded
    partition of each axis (what the filter's row mapping relies on)."""
    mesh = decomp.mesh
    i = owner_of(glat, decomp.nlat, mesh.nlat_procs)
    j = owner_of(glon, decomp.nlon, mesh.nlon_procs)
    if decomp.nlev is None:
        return mesh.rank_of(i, j)
    return mesh.rank_of(i, j, owner_of(glev, decomp.nlev, mesh.nlev_procs))


class TestSubdomains:
    def test_blocks_tile_grid(self):
        decomp = Decomposition(10, 12, ProcessorMesh(3, 4))
        covered = np.zeros((10, 12), dtype=int)
        for sub in decomp.subdomains():
            covered[sub.lat_slice, sub.lon_slice] += 1
        np.testing.assert_array_equal(covered, 1)

    def test_paper_mesh_8x30(self):
        """The paper's 8x30 mesh over the 90 x 144 grid is uneven."""
        decomp = Decomposition(90, 144, ProcessorMesh(8, 30))
        sizes = {s.shape for s in decomp.subdomains()}
        assert len(sizes) > 1  # uneven blocks exist
        assert sum(s.nlat * s.nlon for s in decomp.subdomains()) == 90 * 144

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            Decomposition(2, 2, ProcessorMesh(3, 3))

    def test_owner_of_point(self):
        decomp = Decomposition(10, 12, ProcessorMesh(3, 4))
        for glat in range(10):
            for glon in range(12):
                sub = decomp.subdomain(_owner(decomp, glat, glon))
                assert sub.lat0 <= glat < sub.lat1
                assert sub.lon0 <= glon < sub.lon1

    def test_proc_row_bounds(self):
        decomp = Decomposition(10, 12, ProcessorMesh(3, 4))
        lo, hi = decomp.lat_bounds_of_proc_row(0)
        assert lo == 0
        assert decomp.lat_bounds_of_proc_row(2)[1] == 10

    def test_unsplit_block_covers_the_whole_column(self):
        for nlev in (None, 5):
            decomp = Decomposition(10, 12, ProcessorMesh(3, 4), nlev)
            for sub in decomp.subdomains():
                assert (sub.klev_proc, sub.lev0, sub.lev1) == (0, 0, nlev)
                assert sub.shape == (sub.nlat, sub.nlon)

    def test_split_mesh_needs_the_layer_count(self):
        with pytest.raises(ValueError, match="nlev"):
            Decomposition(10, 12, ProcessorMesh(1, 2, 2))


#: Random grid/mesh sizes constrained so the mesh fits the grid; the
#: last two are the layer count and ``nlev_procs`` (1 half the time).
_grid_and_mesh = st.tuples(
    st.integers(4, 40), st.integers(4, 40),
    st.integers(1, 6), st.integers(1, 6),
    st.integers(1, 8), st.sampled_from([1, 1, 2, 3]),
).filter(lambda t: t[0] >= t[2] and t[1] >= t[3] and t[4] >= t[5])


def _build(dims):
    nlat, nlon, m, n, nlev, k = dims
    return Decomposition(nlat, nlon, ProcessorMesh(m, n, k), nlev)


class TestDecompositionProperties:
    """Satellite properties over seeded random sizes and meshes."""

    @given(dims=_grid_and_mesh)
    @settings(max_examples=40, deadline=None)
    def test_blocks_tile_grid_exactly_once(self, dims):
        decomp = _build(dims)
        covered = np.zeros((decomp.nlat, decomp.nlon, decomp.nlev), dtype=int)
        for sub in decomp.subdomains():
            covered[sub.lat_slice, sub.lon_slice, sub.lev_slice] += 1
        np.testing.assert_array_equal(covered, 1)

    @given(dims=_grid_and_mesh)
    @settings(max_examples=40, deadline=None)
    def test_blocks_balanced_within_one_per_axis(self, dims):
        decomp = _build(dims)
        subs = decomp.subdomains()
        for extent in ("nlat", "nlon", "nlev"):
            sizes = {getattr(s, extent) for s in subs}
            assert max(sizes) - min(sizes) <= 1 and min(sizes) > 0

    @given(dims=_grid_and_mesh, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_owner_of_point_matches_subdomain(self, dims, data):
        decomp = _build(dims)
        glat = data.draw(st.integers(0, decomp.nlat - 1))
        glon = data.draw(st.integers(0, decomp.nlon - 1))
        glev = data.draw(st.integers(0, decomp.nlev - 1))
        sub = decomp.subdomain(_owner(decomp, glat, glon, glev))
        assert sub.lat0 <= glat < sub.lat1
        assert sub.lon0 <= glon < sub.lon1
        assert sub.lev0 <= glev < sub.lev1

    @given(dims=_grid_and_mesh)
    @settings(max_examples=40, deadline=None)
    def test_counts_conserve_grid_points(self, dims):
        decomp = _build(dims)
        counts = [s.nlat * s.nlon * s.nlev for s in decomp.subdomains()]
        assert len(counts) == decomp.mesh.size
        assert sum(counts) == decomp.nlat * decomp.nlon * decomp.nlev

    @given(dims=_grid_and_mesh)
    @settings(max_examples=40, deadline=None)
    def test_slabs_tile_the_grid_exactly_once(self, dims):
        decomp = _build(dims)
        covered = np.zeros((decomp.nlat, decomp.nlon, decomp.nlev), dtype=int)
        for k in range(decomp.mesh.nlev_procs):
            slab = decomp.slab(k)
            assert len(slab.subdomains()) == slab.mesh.size
            for sub in slab.subdomains():
                assert sub is decomp.subdomain(sub.rank)
                covered[sub.lat_slice, sub.lon_slice, sub.lev_slice] += 1
        np.testing.assert_array_equal(covered, 1)

    @given(dims=_grid_and_mesh, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gather_scatter_roundtrip_is_byte_exact(self, dims, seed):
        decomp = _build(dims)
        rng = np.random.default_rng(seed)
        multi = rng.standard_normal((decomp.nlat, decomp.nlon, decomp.nlev))
        single = rng.standard_normal((decomp.nlat, decomp.nlon, 1))
        back = decomp.gather(decomp.scatter(multi), single_level=False)
        assert back.tobytes() == multi.tobytes()
        back = decomp.gather(decomp.scatter(single), single_level=True)
        assert back.tobytes() == single.tobytes()


class TestScatterGather:
    @given(
        nlat=st.integers(4, 20),
        nlon=st.integers(4, 20),
        m=st.integers(1, 4),
        n=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, nlat, nlon, m, n):
        if nlat < m or nlon < n:
            return
        decomp = Decomposition(nlat, nlon, ProcessorMesh(m, n))
        field = np.arange(nlat * nlon * 2, dtype=float).reshape(nlat, nlon, 2)
        blocks = decomp.scatter(field)
        back = decomp.gather(blocks)
        np.testing.assert_array_equal(back, field)

    def test_scatter_copies(self):
        decomp = Decomposition(6, 8, ProcessorMesh(2, 2))
        field = np.zeros((6, 8))
        blocks = decomp.scatter(field)
        blocks[0][...] = 99
        assert field[0, 0] == 0.0

    def test_scatter_shape_mismatch(self):
        decomp = Decomposition(6, 8, ProcessorMesh(2, 2))
        with pytest.raises(ValueError):
            decomp.scatter(np.zeros((5, 8)))

    def test_gather_wrong_block_count(self):
        decomp = Decomposition(6, 8, ProcessorMesh(2, 2))
        with pytest.raises(ValueError):
            decomp.gather([np.zeros((3, 4))])

    def test_gather_wrong_block_shape(self):
        decomp = Decomposition(6, 8, ProcessorMesh(2, 2))
        blocks = decomp.scatter(np.zeros((6, 8)))
        blocks[1] = np.zeros((2, 4))
        with pytest.raises(ValueError):
            decomp.gather(blocks)

    def test_counts(self):
        decomp = Decomposition(6, 8, ProcessorMesh(2, 2))
        assert sum(s.nlat * s.nlon for s in decomp.subdomains()) == 48

    def test_unsplit_keeps_any_trailing_axes_whole(self):
        # Full columns on every rank, whatever the layer count says.
        decomp = Decomposition(6, 8, ProcessorMesh(2, 2), nlev=3)
        field = np.arange(6 * 8 * 5 * 2, dtype=float).reshape(6, 8, 5, 2)
        blocks = decomp.scatter(field)
        assert blocks[0].shape == (3, 4, 5, 2)
        np.testing.assert_array_equal(decomp.gather(blocks), field)


class TestSlab:
    def test_unsplit_slab_is_the_decomposition_itself(self):
        decomp = Decomposition(6, 8, ProcessorMesh(2, 2))
        assert decomp.slab(0) is decomp
        with pytest.raises(IndexError):
            decomp.slab(1)
