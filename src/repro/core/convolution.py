"""The original convolution-form filter (paper eq. 2) — the baseline.

The original AGCM performed the polar filtering as a direct circular
convolution in physical space,

    f'(i) = sum_n S(n) f(i - n),

at a cost of O(N^2) per latitude line versus the FFT's O(N log N) — the
first of the two problems Section 3.1 identifies.  The kernels here are
honest direct convolutions (a circulant matrix-vector product), not FFTs
in disguise, so that measured and charged costs both scale as the paper's
complexity analysis says.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.spectral import PolarFilter


def circulant_rows(
    kernel: np.ndarray, lo: int, hi: int, doubled: np.ndarray | None = None,
) -> np.ndarray:
    """Rows ``lo..hi-1`` of the circulant operator, as a fresh (hi-lo, N) block.

    ``C[i, j] = kernel[(i - j) mod N]``.  Row ``i`` read left to right is
    the doubled, reversed kernel ``d = concat(kernel[::-1], kernel[::-1])``
    from position ``N - 1 - i``, so the whole operator is a Toeplitz
    *view* of ``d`` (row stride -1 element, column stride +1): an index
    transformation, not a gather.  Only the requested block is
    materialised, C-contiguous, so ``rows @ line`` is the same BLAS call
    on the same values as with a full N x N build.  A caller holding
    ``d`` (:meth:`PolarFilter.doubled_kernel` memoises it per row) passes
    it as ``doubled``; otherwise it is built here.

    The convolution backends build one block per distinct ``(filter,
    latitude)`` of a processor row per application and multiply it into
    each unit's lines that share the kernel.  Each block is its own
    allocation: blocks cut from one shared array changed the last bits of
    one-layer products (the BLAS result depends on operand alignment),
    and blocks kept across applications would cost N x N floats per
    ``(filter, latitude)`` for the life of the backend.
    """
    n = kernel.shape[0]
    if not 0 <= lo < hi <= n:
        raise ValueError(f"row block [{lo}, {hi}) outside 0..{n}")
    if doubled is None:
        doubled = np.concatenate((kernel[::-1], kernel[::-1]))
    step = doubled.strides[0]
    # The ndarray constructor checks the view against the buffer's bounds
    # (as_strided would not) and costs half as much to call.
    toeplitz = np.ndarray(
        (hi - lo, n), dtype=doubled.dtype, buffer=doubled,
        offset=(n - 1 - lo) * step, strides=(-step, step),
    )
    # Always a copy: a one-row view is contiguous already, and must not
    # alias a memoised ``doubled``.
    return toeplitz.copy()


def circulant_matrix(kernel: np.ndarray) -> np.ndarray:
    """The (N, N) circulant matrix whose rows implement eq. (2).

    ``C[i, j] = kernel[(i - j) mod N]`` so that ``C @ f`` is the circular
    convolution of ``f`` with ``kernel``.
    """
    return circulant_rows(kernel, 0, kernel.shape[0])


def convolve_line(line: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Directly circular-convolve one line (or stack of lines) with a kernel.

    ``line`` has shape (N,) or (N, K) — K layers filtered together.
    Cost: 2 N^2 flops per line (the paper's O(N x M) with M ~ N taps).
    """
    n = kernel.shape[0]
    if line.shape[0] != n:
        raise ValueError(f"line length {line.shape[0]} != kernel length {n}")
    return circulant_matrix(kernel) @ line


def convolution_filter_rows(
    field: np.ndarray, pfilter: PolarFilter, lat_indices: Sequence[int] | None = None
) -> np.ndarray:
    """Filter the selected latitude rows of a (nlat, nlon[, K]) field.

    Returns a copy with the rows replaced by their convolution-filtered
    values; other rows are untouched.  ``lat_indices`` defaults to the
    filter's own mask.
    """
    nlat, nlon = field.shape[:2]
    if nlon != pfilter.nlon:
        raise ValueError(f"field nlon {nlon} != filter N {pfilter.nlon}")
    if lat_indices is None:
        lat_indices = pfilter.latitude_indices()
    out = field.copy()
    for j in lat_indices:
        kernel = pfilter.kernel(int(j))
        out[j] = convolve_line(field[j], kernel)
    return out
