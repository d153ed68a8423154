"""Tests for local geometry metrics."""

import numpy as np
import pytest

from repro.dynamics.geometry import LocalGeometry
from repro.grid.sphere import SphericalGrid


class TestFullGlobe:
    def test_padded_lengths(self, small_grid):
        g = LocalGeometry.from_grid(small_grid)
        n = small_grid.nlat
        assert g.lat_c.shape == (n + 2,)
        assert g.cos_n.shape == (n + 2,)
        assert g.lat1 - g.lat0 == n

    def test_polar_face_cosine_zero(self, small_grid):
        """The face at the pole closes the meridional flux."""
        g = LocalGeometry.from_grid(small_grid)
        assert g.cos_n[-2] == 0.0  # north face of the last interior row
        assert g.cos_n[-1] == 0.0  # ghost row face (clipped at the pole)

    def test_cos_floored(self, small_grid):
        g = LocalGeometry.from_grid(small_grid, cos_floor=0.05)
        assert g.cos_c.min() >= 0.05

    def test_diffusion_scale_unity_at_low_latitude(self, paper_grid):
        g = LocalGeometry.from_grid(paper_grid)
        mid = paper_grid.nlat // 2
        assert g.diff_scale[mid + 1] == pytest.approx(1.0)

    def test_diffusion_scale_small_at_poles(self, paper_grid):
        """Keeps nu*dt/dx^2 bounded where dx collapses."""
        g = LocalGeometry.from_grid(paper_grid)
        assert g.diff_scale[1] < 0.01

    def test_interior_col_shapes(self, small_grid):
        g = LocalGeometry.from_grid(small_grid)
        col = g.col(g.dx_c, ndim=3)
        assert col.shape == (small_grid.nlat, 1, 1)


class TestSubBlocks:
    def test_block_matches_global_slice(self, paper_grid):
        full = LocalGeometry.from_grid(paper_grid)
        block = LocalGeometry.from_grid(paper_grid, 30, 60)
        # Interior rows 30..59 of the block equal global rows 30..59.
        np.testing.assert_allclose(block.lat_c[1:-1], full.lat_c[31:61])
        np.testing.assert_allclose(block.cos_n[1:-1], full.cos_n[31:61])

    def test_ghost_rows_extend_block(self, paper_grid):
        full = LocalGeometry.from_grid(paper_grid)
        block = LocalGeometry.from_grid(paper_grid, 30, 60)
        assert block.lat_c[0] == pytest.approx(full.lat_c[30])
        assert block.lat_c[-1] == pytest.approx(full.lat_c[61])

    def test_invalid_block(self, small_grid):
        with pytest.raises(ValueError):
            LocalGeometry.from_grid(small_grid, 5, 5)
        with pytest.raises(ValueError):
            LocalGeometry.from_grid(small_grid, -1, 5)


class TestSharedInstanceIsReadOnly:
    """One geometry serves every rank of a processor row, so ``frozen``
    has to cover the arrays too."""

    def test_row_metrics_refuse_writes(self, small_grid):
        g = LocalGeometry.from_grid(small_grid, 2, 6)
        for name in ("lat_c", "cos_c", "dx_c", "f_c", "cos_n", "f_n",
                     "dx_n", "diff_scale"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(g, name)[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                g.col(getattr(g, name), 3)[0] = 1.0

    def test_stencil_columns_refuse_writes_and_are_built_once(self, small_grid):
        g = LocalGeometry.from_grid(small_grid)
        cols = g.stencil
        assert g.stencil is cols
        n = small_grid.nlat
        for name, arr in vars(cols).items():
            assert not arr.flags.writeable, name
            if name not in ("polar", "cos_n"):
                assert arr.shape == (n, 1, 1), name
        with pytest.raises(ValueError, match="read-only"):
            cols.two_dx_c[0] = 1.0
        assert cols.cos_n.shape == (n + 1, 1, 1)
        assert cols.polar.tolist() == [n - 1]
