"""Tests for the processor mesh topology."""

import pytest
from hypothesis import given, strategies as st

from repro.parallel.topology import ProcessorMesh


class TestBasics:
    def test_size(self):
        assert ProcessorMesh(8, 30).size == 240

    def test_rank_coords_roundtrip(self):
        mesh = ProcessorMesh(3, 5)
        for rank in range(mesh.size):
            i, j = mesh.coords_of(rank)
            assert mesh.rank_of(i, j) == rank

    def test_row_major_numbering(self):
        mesh = ProcessorMesh(2, 3)
        assert mesh.rank_of(0, 0) == 0
        assert mesh.rank_of(0, 2) == 2
        assert mesh.rank_of(1, 0) == 3

    def test_describe(self):
        assert ProcessorMesh(8, 30).describe() == "8 x 30"

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            ProcessorMesh(0, 3)

    def test_coords_out_of_range(self):
        with pytest.raises(IndexError):
            ProcessorMesh(2, 2).coords_of(4)
        with pytest.raises(IndexError):
            ProcessorMesh(2, 2).rank_of(2, 0)


class TestNeighbours:
    def test_longitude_periodic(self):
        mesh = ProcessorMesh(2, 4)
        r = mesh.rank_of(1, 3)
        assert mesh.east_of(r) == mesh.rank_of(1, 0)
        assert mesh.west_of(mesh.rank_of(0, 0)) == mesh.rank_of(0, 3)

    def test_latitude_closed_at_poles(self):
        mesh = ProcessorMesh(3, 2)
        assert mesh.south_of(mesh.rank_of(0, 1)) is None
        assert mesh.north_of(mesh.rank_of(2, 0)) is None
        assert mesh.north_of(mesh.rank_of(1, 0)) == mesh.rank_of(2, 0)

    @given(m=st.integers(1, 8), n=st.integers(1, 8), data=st.data())
    def test_east_west_inverse(self, m, n, data):
        mesh = ProcessorMesh(m, n)
        rank = data.draw(st.integers(0, mesh.size - 1))
        assert mesh.west_of(mesh.east_of(rank)) == rank
        assert mesh.east_of(mesh.west_of(rank)) == rank


class TestGroups:
    def test_rows_and_columns_partition_mesh(self):
        mesh = ProcessorMesh(3, 4)
        all_from_rows = sorted(
            r for i in range(3) for r in mesh.row_ranks(i)
        )
        all_from_cols = sorted(
            mesh.rank_of(i, j) for j in range(4) for i in range(3)
        )
        assert all_from_rows == list(range(12))
        assert all_from_cols == list(range(12))

    def test_row_ranks_share_latitude(self):
        mesh = ProcessorMesh(3, 4)
        for r in mesh.row_ranks(1):
            assert mesh.coords_of(r)[0] == 1
