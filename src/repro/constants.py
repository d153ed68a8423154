"""Physical and numerical constants used throughout the AGCM reproduction.

Values follow the conventions of the UCLA AGCM literature (Arakawa & Lamb
1977; Suarez et al. 1983).  All quantities are SI unless noted.
"""

from __future__ import annotations

import math

#: Mean Earth radius [m].
EARTH_RADIUS = 6.371e6

#: Earth's angular rotation rate [rad/s].
EARTH_OMEGA = 7.292e-5

#: Gravitational acceleration [m/s^2].
GRAVITY = 9.80665

#: Reference surface pressure [Pa].
P_REFERENCE = 1.0e5

#: Stefan-Boltzmann constant [W/(m^2 K^4)].
STEFAN_BOLTZMANN = 5.670e-8

#: Solar constant [W/m^2].
SOLAR_CONSTANT = 1361.0

#: Seconds in a simulated day.
SECONDS_PER_DAY = 86400.0

#: Degrees -> radians, kept as a constant for hot loops.
DEG2RAD = math.pi / 180.0
