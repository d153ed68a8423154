"""Polar spectral filter definitions (paper eq. 1).

The UCLA AGCM damps fast-moving inertia-gravity waves near the poles with
a set of discrete Fourier filters.  In wavenumber space the filtered line
is

    f'(i) = f(i) - (1/(M+1)) * sum_s S(s) fhat(s) exp(i s lambda_i)

i.e. each zonal wavenumber ``s`` of a latitude line is multiplied by a
*transfer factor* ``T(s, phi) = 1 - S(s, phi)``.  ``S`` is prescribed,
independent of time and height, and chosen so that the effective zonal
grid size after filtering satisfies the CFL condition everywhere when the
time step is set by the spacing at a *critical latitude* ``phi_c``:

    T(s, phi) = min(1,  (cos(phi) / cos(phi_c)) / sin(pi s / N))

The ``sin(pi s / N)`` factor is the finite-difference effective-wavenumber
correction ``sin(s * dlambda / 2)`` for ``dlambda = 2 pi / N``: the
shortest resolved wave (``s = N/2``) is damped by the full metric ratio
``cos(phi)/cos(phi_c)``, while long waves are untouched.

Two instances are used (paper Section 3.1):

* **strong filter** — ``phi_c = 45``; applied poleward of 45 deg (about
  half the latitudes of each hemisphere);
* **weak filter**  — ``phi_c = 60``; applied poleward of 60 deg (about a
  third of the latitudes), with milder damping at any given latitude.

Mathematically the wavenumber-space form is identical to a circular
convolution in physical space (paper eq. 2); :func:`PolarFilter.kernel`
returns the equivalent convolution kernel, and the test suite asserts the
equivalence that the whole optimisation story rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro import constants as c
from repro.grid.sphere import SphericalGrid


@dataclass(frozen=True)
class PolarFilter:
    """One polar Fourier filter (strong or weak) on a lat-lon grid.

    Parameters
    ----------
    grid:
        The spherical grid (defines N = nlon and the latitudes).
    critical_lat_deg:
        The critical latitude ``phi_c`` [deg]; rows poleward of it are
        filtered and the damping references ``cos(phi_c)``.
    name:
        Label used in plans and traces (``"strong"`` / ``"weak"``).
    """

    grid: SphericalGrid
    critical_lat_deg: float
    name: str

    def __post_init__(self) -> None:
        if not 0.0 < self.critical_lat_deg < 90.0:
            raise ValueError(
                f"critical latitude must be in (0, 90), got {self.critical_lat_deg}"
            )

    # ------------------------------------------------------------------
    @property
    def nlon(self) -> int:
        """Points per latitude line (the paper's N)."""
        return self.grid.nlon

    def latitude_mask(self) -> np.ndarray:
        """Boolean (nlat,) — True where this filter is applied."""
        return np.abs(self.grid.lat_deg) > self.critical_lat_deg

    def latitude_indices(self) -> np.ndarray:
        """Global latitude indices (sorted) where the filter is applied."""
        return np.nonzero(self.latitude_mask())[0]

    # ------------------------------------------------------------------
    def transfer(self, lat_index: int) -> np.ndarray:
        """Transfer factors ``T(s)`` for rfft bins ``s = 0..N//2``.

        ``T(0) = 1`` always (the zonal mean is never damped).  Rows
        equatorward of the critical latitude return all-ones.  The array
        is memoised and read-only (copy it before writing).
        """
        return _transfer_cached(*self._cache_key(lat_index))

    def _cache_key(self, lat_index: int) -> Tuple[int, float, float]:
        """What a row's prescribed coefficients depend on, and nothing else."""
        return (
            self.nlon,
            float(self.grid.lat_deg[lat_index]),
            self.critical_lat_deg,
        )

    def kernel(self, lat_index: int) -> np.ndarray:
        """Equivalent circular-convolution kernel (length N) for a row.

        ``kernel = irfft(T)``; filtering a line with the FFT method equals
        circular convolution with this kernel (tested property).  Like
        :meth:`transfer`, the array is memoised and read-only.
        """
        return _kernel_cached(*self._cache_key(lat_index))

    def doubled_kernel(self, lat_index: int) -> np.ndarray:
        """The row's kernel reversed and written twice (length 2N), of
        which every circulant row is a window (see
        :func:`repro.core.convolution.circulant_rows`).  Memoised and
        read-only."""
        return _doubled_kernel_cached(*self._cache_key(lat_index))

    def damped_bin_count(self, lat_index: int) -> int:
        """Number of rfft bins actually damped at a row (T < 1).

        This is the paper's ``M`` in eq. (2): the AGCM's convolution sums
        only over wavenumbers with non-zero ``S``, so its cost per line is
        ``O(N x M)`` with ``M`` growing from a handful just poleward of
        the critical latitude to ~N/2 at the poles.
        """
        return _damped_bins_cached(*self._cache_key(lat_index))


@lru_cache(maxsize=4096)
def _transfer_cached(
    nlon: int, lat_deg: float, critical_lat_deg: float
) -> np.ndarray:
    """Cached transfer-factor computation (grid geometry never changes)."""
    nbins = nlon // 2 + 1
    out = np.ones(nbins)
    if abs(lat_deg) <= critical_lat_deg:
        out.flags.writeable = False
        return out
    ratio = np.cos(lat_deg * c.DEG2RAD) / np.cos(critical_lat_deg * c.DEG2RAD)
    s = np.arange(1, nbins)
    eff = np.sin(np.pi * s / nlon)
    out[1:] = np.minimum(1.0, ratio / eff)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=4096)
def _kernel_cached(
    nlon: int, lat_deg: float, critical_lat_deg: float
) -> np.ndarray:
    """Cached ``irfft`` of the transfer factors: a length-N vector per row."""
    out = np.fft.irfft(
        _transfer_cached(nlon, lat_deg, critical_lat_deg), n=nlon
    )
    out.flags.writeable = False
    return out


@lru_cache(maxsize=4096)
def _doubled_kernel_cached(
    nlon: int, lat_deg: float, critical_lat_deg: float
) -> np.ndarray:
    """Cached ``concat(kernel[::-1], kernel[::-1])`` of a row."""
    reversed_kernel = _kernel_cached(nlon, lat_deg, critical_lat_deg)[::-1]
    out = np.concatenate((reversed_kernel, reversed_kernel))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=4096)
def _damped_bins_cached(
    nlon: int, lat_deg: float, critical_lat_deg: float
) -> int:
    """Cached count of damped rfft bins (``T < 1``) of a row."""
    return int((_transfer_cached(nlon, lat_deg, critical_lat_deg) < 1.0).sum())


def strong_filter(grid: SphericalGrid) -> PolarFilter:
    """The paper's strong filter: applied poleward of 45 degrees."""
    return PolarFilter(grid, critical_lat_deg=45.0, name="strong")


def weak_filter(grid: SphericalGrid) -> PolarFilter:
    """The paper's weak filter: applied poleward of 60 degrees."""
    return PolarFilter(grid, critical_lat_deg=60.0, name="weak")
