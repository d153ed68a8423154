"""FFT-form polar filtering (paper eq. 1) — the optimised kernel.

Filtering in wavenumber space costs O(N log N) per line: forward real
FFT, multiply the rfft bins by the transfer factors, inverse FFT.  This is
the "highly efficient (sometimes vendor provided) FFT library code on
whole latitudinal data lines within each processor" that motivated the
transpose-based parallelisation (Section 3.2) — here numpy's FFT plays
the vendor library.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.spectral import PolarFilter


def fft_filter_line(line: np.ndarray, transfer: np.ndarray) -> np.ndarray:
    """FFT-filter one line (or (N, K) stack of lines) with transfer factors.

    ``transfer`` has shape (N//2 + 1,) matching numpy's rfft bins.
    """
    n = line.shape[0]
    if transfer.shape[0] != n // 2 + 1:
        raise ValueError(
            f"transfer has {transfer.shape[0]} bins, expected {n // 2 + 1}"
        )
    spec = np.fft.rfft(line, axis=0)
    if line.ndim == 1:
        spec *= transfer
    else:
        spec *= transfer[:, None]
    return np.fft.irfft(spec, n=n, axis=0)


def fft_filter_rows(
    field: np.ndarray, pfilter: PolarFilter, lat_indices: Sequence[int] | None = None
) -> np.ndarray:
    """Filter selected latitude rows of a (nlat, nlon[, K]) field by FFT.

    Vectorised across rows and layers: a single batched rfft/irfft pair.
    Returns a copy; unfiltered rows are untouched.
    """
    nlat, nlon = field.shape[:2]
    if nlon != pfilter.nlon:
        raise ValueError(f"field nlon {nlon} != filter N {pfilter.nlon}")
    if lat_indices is None:
        lat_indices = pfilter.latitude_indices()
    lat_indices = np.asarray(lat_indices, dtype=int)
    out = field.copy()
    if lat_indices.size == 0:
        return out
    rows = field[lat_indices]  # (R, nlon[, K])
    transfers = np.stack([pfilter.transfer(int(j)) for j in lat_indices])
    spec = np.fft.rfft(rows, axis=1)
    if rows.ndim == 2:
        spec *= transfers
    else:
        spec *= transfers[:, :, None]
    out[lat_indices] = np.fft.irfft(spec, n=nlon, axis=1)
    return out


def fft_filter_flop_count(nlon: int, nrows: int, nlayers: int = 1) -> float:
    """Flops charged for FFT-filtering ``nrows`` lines of K layers (eq. 1).

    A real-to-complex FFT costs ~``2.5 N log2 N`` flops; filtering a line
    needs a forward and an inverse transform plus one complex scaling
    pass.  A line of fewer than two points costs nothing.
    """
    if nlon < 2:
        return 0.0
    return (2 * 2.5 * nlon * math.log2(nlon) + 2.0 * nlon) * nrows * nlayers
