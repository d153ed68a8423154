"""Solar geometry: the day/night pattern that drives physics load imbalance.

Paper Section 3.4: "The amount of computation required at each grid point
is determined by several factors, including whether it is day or night,
the cloud distribution, and the amount of cumulus convection".  Day/night
is the big, smooth, *predictably moving* component: half the globe runs
the shortwave code, half skips it, and the boundary sweeps westward
through the processor mesh once per simulated day.
"""

from __future__ import annotations

import math

import numpy as np


def declination(day_of_year: float) -> float:
    """Solar declination [rad] for a day of the (idealised 360-day) year.

    A simple sinusoidal fit peaking at +23.45 deg on day 172.
    """
    return math.radians(23.45) * math.sin(2.0 * math.pi * (day_of_year - 81.0) / 360.0)


def hour_angle(lon_rad: np.ndarray, time_frac: float) -> np.ndarray:
    """Local hour angle [rad]; 0 at local solar noon.

    ``time_frac`` is the fraction of the simulated day elapsed (0 =
    midnight at longitude 0).
    """
    return (2.0 * math.pi * time_frac + np.asarray(lon_rad)) - math.pi


def cos_zenith(
    lat_rad: np.ndarray, lon_rad: np.ndarray, time_frac: float,
    decl: float = 0.0,
) -> np.ndarray:
    """Cosine of the solar zenith angle, clipped at zero (night).

    ``mu = sin(lat) sin(decl) + cos(lat) cos(decl) cos(H)``.
    """
    lat = np.asarray(lat_rad)
    h = hour_angle(lon_rad, time_frac)
    mu = np.sin(lat) * math.sin(decl) + np.cos(lat) * math.cos(decl) * np.cos(h)
    return np.maximum(mu, 0.0)
