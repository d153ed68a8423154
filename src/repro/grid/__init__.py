"""Spherical lat-lon grid, 2-D decomposition, halo exchange."""

from repro.grid.sphere import SphericalGrid
from repro.grid.decomposition import Decomposition2D, Subdomain
from repro.grid.halo import exchange_halos, pad_with_halo

__all__ = [
    "SphericalGrid",
    "Decomposition2D",
    "Subdomain",
    "exchange_halos",
    "pad_with_halo",
]
