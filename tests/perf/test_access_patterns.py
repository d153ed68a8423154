"""Tests for the loop descriptions and the one address-stream builder."""

import hashlib

import numpy as np
import pytest

from repro.perf.access_patterns import (
    ADVECTION_LOOP_MIX,
    ADVECTION_STAGES,
    FLUX_E,
    ITEM,
    POINTWISE_VARIANTS,
    CENTRE,
    Layout,
    Loop,
    laplace_loops,
    loops_of,
    mixed_loops,
    stream,
)


def _cube(n, **kw):
    return Layout((n, n, n), **kw)


class TestLaplaceStreams:
    def test_stream_lengths_equal(self):
        n, m = 8, 3
        sep = stream(laplace_loops(m), _cube(n))
        blk = stream(laplace_loops(m), _cube(n, block=m))
        assert sep.size == blk.size == (n - 2) ** 3 * (7 * m + 1)

    def test_separate_addresses_within_arrays(self):
        n, m = 8, 3
        sep = stream(laplace_loops(m), _cube(n))
        # m input arrays + 1 result array
        assert sep.max() < ITEM * (m + 1) * n**3
        assert sep.min() >= 0

    def test_block_interleaving(self):
        """In the block layout, field f and f+1 at the same point are
        adjacent elements."""
        n, m = 6, 4
        blk = stream(laplace_loops(m), _cube(n, block=m))
        # First cell: centre accesses of fields 0 and 1 are ITEM apart.
        assert blk[7] - blk[0] == ITEM

    def test_separate_field_stride(self):
        n, m = 6, 2
        sep = stream(laplace_loops(m), _cube(n))
        assert sep[7] - sep[0] == ITEM * n**3

    def test_stagger_shifts_bases(self):
        n, m = 6, 2
        plain = stream(laplace_loops(m), _cube(n))
        staggered = stream(laplace_loops(m), _cube(n, stagger_lines=2))
        assert staggered[7] - plain[7] == 2 * 32

    def test_flops(self):
        """7 mul/add pairs per field and cell."""
        (loop,) = laplace_loops(8)
        assert loop.ops * 30**3 == 14.0 * 8 * 30**3


class TestMixedLoops:
    def test_loop_mix_fields_in_range(self):
        m = 12
        for loop in ADVECTION_LOOP_MIX:
            assert all(0 <= f < m for f in loop)

    def test_stream_length(self):
        n, m = 6, 12
        sep = stream(mixed_loops(m, ((0, 1), (2,))), _cube(n))
        expected = (n - 2) ** 3 * ((2 + 1) + (1 + 1))
        assert sep.size == expected

    def test_block_and_separate_same_length(self):
        n, m = 6, 12
        loops = mixed_loops(m, ADVECTION_LOOP_MIX)
        sep = stream(loops, _cube(n, stagger_lines=3))
        blk = stream(loops, _cube(n, block=m))
        assert sep.size == blk.size

    def test_block_reads_more_lines_for_sparse_loops(self):
        """A 2-of-12-field loop touches more distinct 32-byte lines in the
        block layout — the waste that kills its advantage."""
        n, m = 8, 12
        loops = mixed_loops(m, ((0, 1),))
        blk = stream(loops, _cube(n, block=m))
        sep = stream(loops, _cube(n, stagger_lines=3))
        blk_lines = np.unique(blk // 32).size
        sep_lines = np.unique(sep // 32).size
        assert blk_lines > sep_lines


def _digest(addresses):
    return hashlib.sha256(
        np.asarray(addresses, dtype="<i8").tobytes()).hexdigest()[:16]


# Recorded from the four per-study builders the one builder replaced;
# the separate mixed loops used bases staggered by three lines.
@pytest.mark.parametrize("loops, layout, digest, size", [
    (laplace_loops(3), _cube(8), "9ad24c75796fa74a", 4752),
    (laplace_loops(3), _cube(8, block=3), "3ed71ebbc91a4e9f", 4752),
    (mixed_loops(12, ADVECTION_LOOP_MIX), _cube(8, stagger_lines=3),
     "e07e15b27816d873", 7128),
    (mixed_loops(12, ADVECTION_LOOP_MIX), _cube(8, block=12),
     "034374ce63812e85", 7128),
], ids=["laplace-separate", "laplace-block", "mixed-separate", "mixed-block"])
def test_streams_match_the_replaced_builders(loops, layout, digest, size):
    addresses = stream(loops, layout)
    assert addresses.dtype == np.int64
    assert (_digest(addresses), addresses.size) == (digest, size)


class TestRowNests:
    def test_nest_runs_its_loops_row_by_row(self):
        a, b = Loop(((0, CENTRE),), 1, 1), Loop(((1, CENTRE),), 2, 1)
        layout = Layout((4, 2, 1))
        nested = stream(((a, b),), layout, halo=0).reshape(2, 2, 4, 2)
        one_after_other = stream((a, b), layout, halo=0).reshape(2, 2, 4, 2)
        # [row, loop, cell, access] against [loop, row, cell, access]
        np.testing.assert_array_equal(
            nested, one_after_other.transpose(1, 0, 2, 3))

    def test_row_array_is_reused_by_every_row(self):
        layout = Layout((6, 6, 6), rows=(FLUX_E,))
        row = layout.address(FLUX_E, np.arange(6), 3, 4)
        np.testing.assert_array_equal(
            row, layout.address(FLUX_E, np.arange(6), 0, 0))
        assert np.all(np.diff(row) == ITEM)


def test_op_counts_of_the_restructuring_stages():
    """The per-cell counts of the docstring tables."""
    ops = {name: sum(loop.ops for loop in loops_of(nests))
           for name, nests in ADVECTION_STAGES.items()}
    assert ops == {"naive": 27, "hoisted": 19, "vectorized": 12,
                   "optimized": 12}
    assert {name: sum(loop.ops for loop in loops_of(nests))
            for name, nests in POINTWISE_VARIANTS.items()} == {
        "naive": 2, "reshaped": 1, "tiled": 1}
    # One loop per numpy call in both whole-array stages.
    assert len(ADVECTION_STAGES["vectorized"]) == 16
    assert len(ADVECTION_STAGES["optimized"]) == 16
