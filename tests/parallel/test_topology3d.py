"""Property tests for the 3-D processor mesh (AGCM-3DLF).

The 2-D mesh is the ``nlev_procs == 1`` special case, so besides the
3-D round-trip/neighbour properties these tests pin the *golden* 2-D
layouts: every observable of ``ProcessorMesh(m, n)`` must be unchanged
by the third axis defaulting to 1.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.topology import ProcessorMesh

dims = st.integers(1, 6)


@st.composite
def mesh_and_rank(draw):
    mesh = ProcessorMesh(draw(dims), draw(dims), draw(dims))
    rank = draw(st.integers(0, mesh.size - 1))
    return mesh, rank


class TestRoundTrip:
    @given(mesh_and_rank())
    def test_rank_coords3_bijection(self, mr):
        mesh, rank = mr
        i, j, k = mesh.coords3_of(rank)
        assert 0 <= i < mesh.nlat_procs
        assert 0 <= j < mesh.nlon_procs
        assert 0 <= k < mesh.nlev_procs
        assert mesh.rank_of(i, j, k) == rank

    @given(m=dims, n=dims, k=dims)
    def test_all_coords_enumerate_all_ranks(self, m, n, k):
        mesh = ProcessorMesh(m, n, k)
        ranks = {
            mesh.rank_of(i, j, l)
            for i in range(m) for j in range(n) for l in range(k)
        }
        assert ranks == set(range(mesh.size))

    @given(mesh_and_rank())
    def test_coords_of_is_horizontal_projection(self, mr):
        mesh, rank = mr
        i, j, _ = mesh.coords3_of(rank)
        assert mesh.coords_of(rank) == (i, j)


class TestNeighbours:
    @given(mesh_and_rank())
    def test_east_west_inverse_preserves_level(self, mr):
        mesh, rank = mr
        assert mesh.west_of(mesh.east_of(rank)) == rank
        assert mesh.east_of(mesh.west_of(rank)) == rank
        assert (mesh.coords3_of(mesh.east_of(rank))[2]
                == mesh.coords3_of(rank)[2])

    @given(mesh_and_rank())
    def test_north_south_symmetry(self, mr):
        mesh, rank = mr
        n = mesh.north_of(rank)
        if n is None:
            assert mesh.coords3_of(rank)[0] == mesh.nlat_procs - 1
        else:
            assert mesh.south_of(n) == rank

    @given(mesh_and_rank())
    def test_table_matches_the_four_lookups(self, mr):
        mesh, rank = mr
        assert mesh.neighbours(rank) == (
            mesh.east_of(rank), mesh.west_of(rank),
            mesh.north_of(rank), mesh.south_of(rank),
        )

    def test_table_rejects_a_rank_outside_the_mesh(self):
        mesh = ProcessorMesh(2, 3, 2)
        for rank in (-1, mesh.size):
            with pytest.raises(IndexError):
                mesh.neighbours(rank)

    def test_table_leaves_the_mesh_pickle_alone(self):
        mesh = ProcessorMesh(2, 3, 2)
        before = pickle.dumps(mesh)
        mesh.neighbours(0)
        assert pickle.dumps(mesh) == before

    @given(mesh_and_rank())
    def test_up_down_symmetry_and_bounds(self, mr):
        mesh, rank = mr
        k = mesh.coords3_of(rank)[2]
        up = mesh.up_of(rank)
        down = mesh.down_of(rank)
        # The vertical is *not* periodic: None exactly at the ends.
        assert (up is None) == (k == mesh.nlev_procs - 1)
        assert (down is None) == (k == 0)
        if up is not None:
            assert mesh.down_of(up) == rank
        if down is not None:
            assert mesh.up_of(down) == rank


class TestGroups:
    @given(m=dims, n=dims, k=dims)
    def test_pillars_partition_mesh(self, m, n, k):
        mesh = ProcessorMesh(m, n, k)
        seen = sorted(
            r
            for i in range(m) for j in range(n)
            for r in mesh.pillar_ranks(i, j)
        )
        assert seen == list(range(mesh.size))

    @given(mesh_and_rank())
    def test_pillar_orders_levels(self, mr):
        mesh, rank = mr
        i, j, k = mesh.coords3_of(rank)
        pillar = mesh.pillar_ranks(i, j)
        assert len(pillar) == mesh.nlev_procs
        assert pillar[k] == rank
        assert [mesh.coords3_of(r)[2] for r in pillar] == list(
            range(mesh.nlev_procs)
        )

    @given(m=dims, n=dims, k=dims, data=st.data())
    def test_rows_and_cols_partition_each_level(self, m, n, k, data):
        mesh = ProcessorMesh(m, n, k)
        klev = data.draw(st.integers(0, k - 1))
        level = {
            mesh.rank_of(i, j, klev) for i in range(m) for j in range(n)
        }
        from_rows = {r for i in range(m) for r in mesh.row_ranks(i, klev)}
        from_cols = {mesh.rank_of(i, j, klev) for j in range(n)
                     for i in range(m)}
        assert from_rows == level
        assert from_cols == level


class TestDegenerate:
    @given(n=dims)
    def test_1xNx1_is_a_ring(self, n):
        mesh = ProcessorMesh(1, n, 1)
        for r in range(n):
            assert mesh.east_of(r) == (r + 1) % n
            assert mesh.north_of(r) is None
            assert mesh.up_of(r) is None

    @given(m=dims, k=dims)
    def test_Mx1xK_columns(self, m, k):
        mesh = ProcessorMesh(m, 1, k)
        for r in range(mesh.size):
            # A single longitude column: east/west wrap onto itself.
            assert mesh.east_of(r) == r
            assert mesh.west_of(r) == r


class TestGolden2D:
    """At nlev_procs=1 every observable matches the historical 2-D mesh."""

    @given(m=dims, n=dims)
    def test_layout_unchanged(self, m, n):
        m2 = ProcessorMesh(m, n)
        m3 = ProcessorMesh(m, n, 1)
        assert m2 == m3
        assert m2.size == m * n
        for r in range(m2.size):
            assert m2.coords_of(r) == m3.coords_of(r)
            assert m3.coords3_of(r) == (*m2.coords_of(r), 1 - 1)

    def test_golden_row_major_numbering(self):
        mesh = ProcessorMesh(2, 3, 1)
        assert [mesh.rank_of(i, j) for i in range(2) for j in range(3)] \
            == list(range(6))

    def test_describe_omits_unit_level(self):
        assert ProcessorMesh(8, 30, 1).describe() == "8 x 30"
        assert ProcessorMesh(8, 30, 2).describe() == "8 x 30 x 2"

    def test_is_3d_flag(self):
        assert not ProcessorMesh(4, 4).is_3d
        assert ProcessorMesh(2, 2, 4).is_3d

    @given(m=dims, n=dims)
    def test_buddy_ward_unchanged_at_unit_level(self, m, n):
        m2 = ProcessorMesh(m, n)
        m3 = ProcessorMesh(m, n, 1)
        for r in range(m2.size):
            assert m2.buddy_of(r) == m3.buddy_of(r)
            assert m2.ward_of(r) == m3.ward_of(r)

    @given(mesh_and_rank())
    def test_buddy_ward_inverse_in_3d(self, mr):
        mesh, rank = mr
        buddy = mesh.buddy_of(rank)
        if mesh.size == 1:
            assert buddy is None
        else:
            assert mesh.ward_of(buddy) == rank


class TestValidation:
    def test_bad_level_count(self):
        with pytest.raises(ValueError):
            ProcessorMesh(2, 2, 0)

    def test_rank_of_level_out_of_range(self):
        with pytest.raises(IndexError):
            ProcessorMesh(2, 2, 2).rank_of(0, 0, 2)
