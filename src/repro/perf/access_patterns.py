"""Loop descriptions and the one address-stream builder (Section 3.4).

A :class:`Loop` sweeps every cell of a grid in Fortran order (first
index fastest).  Per cell it reads some arrays, each at an offset from
the cell, then writes one array, and it does ``ops`` arithmetic
operations.  A :class:`Layout` says where each array's elements live;
:func:`stream` turns a list of loops and a layout into the byte
addresses the loops touch, in order.  All arrays hold 8-byte reals.

Two layouts for ``m`` fields on an ``n^3`` grid:

* **separate arrays** — array ``a`` at base ``a * n^3 * 8``.  For
  power-of-two sizes every array's (i, j, k) maps to the *same cache
  set* — the conflict-miss thrashing that makes the paper's
  separate-array stencil slow.
* **block array** — the paper's form (6), ``f(m, idim, jdim, kdim)``:
  the values of all ``m`` fields at one grid point are contiguous.

The Section-3.4 studies are lists of loops:

* the 7-point Laplace over all ``m`` fields (the paper's isolated
  experiment: block array wins big);
* a "mixed advection" loop sequence where each loop touches only a small
  subset of the fields (the paper's real advection routine: the block
  array drags all ``m`` values through the cache while using two or
  three);
* the four restructuring stages of the advection routine
  (:data:`ADVECTION_STAGES`) and the three forms of the pointwise
  vector-multiply (:data:`POINTWISE_VARIANTS`).
"""

from __future__ import annotations

from typing import Dict, Iterator, NamedTuple, Sequence, Tuple, Union

import numpy as np

ITEM = 8  # bytes per real

Offset = Tuple[int, int, int]
CENTRE: Offset = (0, 0, 0)
EAST: Offset = (1, 0, 0)
WEST: Offset = (-1, 0, 0)
NORTH: Offset = (0, 1, 0)
SOUTH: Offset = (0, -1, 0)

_STENCIL = (CENTRE, EAST, WEST, NORTH, SOUTH, (0, 0, 1), (0, 0, -1))


class Loop(NamedTuple):
    """One loop over every cell: the ``(array, offset)`` pairs it reads
    (in order), the array it writes, and its arithmetic per cell."""

    reads: Tuple[Tuple[int, Offset], ...]
    write: int
    ops: float


#: An entry of a loop list: one loop, or a row nest — loops that share
#: their outer (j, k) loops, so each row runs them in turn.
Nest = Union[Loop, Tuple[Loop, ...]]


class Layout(NamedTuple):
    """Where array elements live: (array, cell) -> byte address.

    ``shape`` is the grid, first index fastest.  Arrays ``0 .. block-1``
    are interleaved as one block array ``f(block, nx, ny, nz)``; every
    other array ``a`` is a separate array at base ``a`` grid sizes,
    moved on by ``a * stagger_lines`` cache lines of 32 B.  The stagger
    breaks the same-set alignment of back-to-back power-of-two arrays
    (real Fortran programs mix array sizes, so their bases are rarely
    aligned; the paper's isolated *test code* used identical 32^3
    arrays, which is the fully aligned worst case, stagger 0).  An array
    in ``rows`` holds one row, indexed by ``i`` alone, which every row
    reuses.
    """

    shape: Tuple[int, int, int]
    block: int = 0
    stagger_lines: int = 0
    rows: Tuple[int, ...] = ()

    def address(self, array: int, i, j, k) -> np.ndarray:
        nx, ny, nz = self.shape
        if array < self.block:
            return ITEM * (array + self.block * (i + nx * (j + ny * k)))
        flat = i if array in self.rows else i + nx * (j + ny * k)
        return (ITEM * (array * nx * ny * nz + flat)
                + array * 32 * self.stagger_lines)


def cells(shape: Tuple[int, int, int], halo: int) -> Tuple[np.ndarray, ...]:
    """(i, j, k) of every cell at least ``halo`` cells inside the grid,
    i fastest (Fortran iteration order)."""
    k, j, i = np.meshgrid(*(np.arange(halo, n - halo) for n in shape[::-1]),
                          indexing="ij")
    return i.ravel(), j.ravel(), k.ravel()


def loops_of(nests: Sequence[Nest]) -> Iterator[Loop]:
    """Every loop of ``nests``, row nests opened."""
    for nest in nests:
        yield from (nest,) if isinstance(nest, Loop) else nest


def stream(nests: Sequence[Nest], layout: Layout, halo: int = 1) -> np.ndarray:
    """Byte addresses of ``nests`` run one after another over the cells
    ``halo`` inside ``layout``'s grid: per cell, each read in order,
    then the write."""
    i, j, k = cells(layout.shape, halo)
    nrows = i.size // (layout.shape[0] - 2 * halo)

    def by_row(loop):
        columns = [layout.address(a, i + di, j + dj, k + dk)
                   for a, (di, dj, dk) in loop.reads]
        columns.append(layout.address(loop.write, i, j, k))
        return np.stack(columns, axis=1).reshape(nrows, -1)

    parts = [np.concatenate([by_row(loop) for loop in loops_of((nest,))],
                            axis=1).ravel()
             for nest in nests]
    return np.concatenate(parts).astype(np.int64, copy=False)


def laplace_loops(m: int) -> Tuple[Loop, ...]:
    """The 7-point Laplace over fields ``0 .. m-1``: all 7 stencil points
    of every field, result to array ``m``; 7 mul/add pairs per field."""
    reads = tuple((f, off) for f in range(m) for off in _STENCIL)
    return (Loop(reads, m, 14.0 * m),)


def mixed_loops(m: int, loops: Sequence[Sequence[int]]) -> Tuple[Loop, ...]:
    """One loop per entry of ``loops``, reading the centre point of the
    listed fields and writing array ``m`` — the structure of the real
    advection routine's "many different types of array-processing loops
    which reference a varying number of data arrays".  Each access is
    charged 1.5 operations."""
    return tuple(
        Loop(tuple((f, CENTRE) for f in fields), m, 1.5 * (len(fields) + 1))
        for fields in loops
    )


#: A representative advection-routine loop mix: a dozen fields, loops
#: touching 2-4 of them each (paper: "about a dozen three-dimensional
#: arrays were combined into one single array").
ADVECTION_LOOP_MIX = (
    (0, 1), (2, 3), (0, 4, 5), (1, 6), (7, 8), (2, 9),
    (10, 11), (3, 7, 10), (4, 8), (5, 11, 6),
)


# ----------------------------------------------------------------------
# The advection routine's restructuring stages and the eq.-4 kernel
# ----------------------------------------------------------------------

#: Arrays of the advection stages: the inputs, the result, the hoisted
#: stage's east-face flux row, the optimized stage's workspace, and then
#: the temporaries ``T``, ``T + 1``, ... that numpy allocates.
F, U, V, OUT, FLUX_E, FE, FLUX, ACC, T = range(9)

#: The advection routine's four restructuring stages on the grid (lon,
#: lat, level), longitude fastest as in the paper's Fortran: the naive,
#: vectorized and optimized kernels of :mod:`repro.perf.advection_opt`,
#: and between the first two the hoisted stage, which exists only as
#: this description.  Operations per cell are counted from each kernel's
#: source and priced at one rate for every operation (add, multiply,
#: divide, ``%``, ``min``, ``max``, negate):
#:
#: ==========  =====  ==================================================
#: stage       ops    where they come from
#: ==========  =====  ==================================================
#: naive       27     one loop: ``ip``/``im`` (``+``/``-`` and ``%``: 4),
#:                    ``jp = min(j + 1, nlat - 1)`` (3), ``jm = max(j -
#:                    1, 0)`` (2); four face averages (8); the two
#:                    metric fluxes, a divide each (8); sum, negate (2)
#: hoisted    5 + 14  a row nest of two loops sharing the (j, k) loops:
#:                    east-face flux ``u * 0.5 * (f + f_E)`` into a row
#:                    buffer, ``ip`` (5); then ``im`` (2), north and
#:                    south averages (4), ``(fluxe - fluxe_W) * inv_dx``
#:                    (2), ``(v fn - v_S fs) * inv_dy`` (4), sum, negate
#:                    (2).  ``1/dx``, ``1/dy``, ``jp``, ``jm`` are per
#:                    row, not per cell
#: vectorized 12      16 whole-array passes: a loop per numpy call (1 op
#:                    each), a copy loop per ``np.roll`` and
#:                    ``np.concatenate`` (0), each result a fresh array
#: optimized  12      the same 16 passes, but 14 write into the
#:                    preallocated ``fe``/``flux``/``acc``/``out`` (in
#:                    place where the code says so); only the two
#:                    ``np.roll`` copies are fresh arrays
#: ==========  =====  ==================================================
#:
#: Left out: reads of ``dx[j]`` (one value per row, held in a register),
#: and the numpy forms' edge-row fix-ups (``fe[-1] = f[-1]``, the
#: ``v[0] * f[0]`` row), which are one row, not one pass.
ADVECTION_STAGES: Dict[str, Tuple[Nest, ...]] = {
    "naive": (
        Loop(((F, CENTRE), (F, EAST), (F, WEST), (F, CENTRE),
              (F, CENTRE), (F, NORTH), (F, SOUTH), (F, CENTRE),
              (U, CENTRE), (U, WEST), (V, CENTRE), (V, SOUTH)), OUT, 27),
    ),
    "hoisted": ((
        Loop(((U, CENTRE), (F, CENTRE), (F, EAST)), FLUX_E, 5),
        Loop(((F, CENTRE), (F, NORTH), (F, SOUTH), (F, CENTRE),
              (FLUX_E, CENTRE), (FLUX_E, WEST), (V, CENTRE), (V, SOUTH)),
             OUT, 14),
    ),),
    "vectorized": (
        Loop(((F, EAST),), T, 0),                            # np.roll(f, -1)
        Loop(((F, CENTRE), (T, CENTRE)), T + 1, 1),          # f + roll
        Loop(((T + 1, CENTRE),), T + 2, 1),                  # fe = 0.5 * ..
        Loop(((U, CENTRE), (T + 2, CENTRE)), T + 3, 1),      # flux_x
        Loop(((T + 3, WEST),), T + 4, 0),                    # np.roll(.., 1)
        Loop(((T + 3, CENTRE), (T + 4, CENTRE)), T + 5, 1),  # difference
        Loop(((T + 5, CENTRE),), T + 6, 1),                  # div_x = / dx
        Loop(((F, CENTRE), (F, NORTH)), T + 7, 1),           # f[:-1] + f[1:]
        Loop(((T + 7, CENTRE),), T + 8, 1),                  # 0.5 * ..
        Loop(((T + 8, CENTRE),), T + 9, 0),                  # f_n concatenate
        Loop(((V, CENTRE), (T + 9, CENTRE)), T + 10, 1),     # flux_y
        Loop(((T + 10, SOUTH),), T + 11, 0),                 # south concatenate
        Loop(((T + 10, CENTRE), (T + 11, CENTRE)), T + 12, 1),  # difference
        Loop(((T + 12, CENTRE),), T + 13, 1),                # div_y = / dy
        Loop(((T + 6, CENTRE), (T + 13, CENTRE)), T + 14, 1),  # div_x + div_y
        Loop(((T + 14, CENTRE),), OUT, 1),                   # negate
    ),
    "optimized": (
        Loop(((F, EAST),), T, 0),                            # np.roll(f, -1)
        Loop(((F, CENTRE), (T, CENTRE)), FE, 1),             # add(.., out=fe)
        Loop(((FE, CENTRE),), FE, 1),                        # fe *= 0.5
        Loop(((U, CENTRE), (FE, CENTRE)), FLUX, 1),          # multiply
        Loop(((FLUX, WEST),), T + 1, 0),                     # np.roll(flux, 1)
        Loop(((FLUX, CENTRE), (T + 1, CENTRE)), ACC, 1),     # subtract
        Loop(((ACC, CENTRE),), ACC, 1),                      # acc /= dx
        Loop(((ACC, CENTRE),), OUT, 1),                      # negative
        Loop(((F, CENTRE),), FE, 0),                         # fe[:-1] = f[:-1]
        Loop(((FE, CENTRE), (F, NORTH)), FE, 1),             # fe += f[1:]
        Loop(((FE, CENTRE),), FE, 1),                        # fe *= 0.5
        Loop(((V, CENTRE), (FE, CENTRE)), FLUX, 1),          # multiply
        Loop(((FLUX, CENTRE),), ACC, 0),                     # acc[1:] = flux[1:]
        Loop(((ACC, CENTRE), (FLUX, SOUTH)), ACC, 1),        # acc -= flux[:-1]
        Loop(((ACC, CENTRE),), ACC, 1),                      # acc /= dy
        Loop(((OUT, CENTRE), (ACC, CENTRE)), OUT, 1),        # out -= acc
    ),
}

#: The three forms of :mod:`repro.perf.kernels` on the grid (m, n/m, 1):
#: ``a`` is array 0, the ``out`` array of the naive and tiled forms is
#: array 1, and the reshaped form's product is array 2.  The naive loop
#: does ``k % m`` and the multiply (2 ops); the reshaped and tiled 2-D
#: forms index ``b`` by the fast loop counter and only multiply (1 op).
#: ``b`` (m values) stays in cache, so its reads are left out.
POINTWISE_VARIANTS: Dict[str, Tuple[Nest, ...]] = {
    "naive": (Loop(((0, CENTRE),), 1, 2),),
    "reshaped": (Loop(((0, CENTRE),), 2, 1),),
    "tiled": (Loop(((0, CENTRE),), 1, 1),),
}
