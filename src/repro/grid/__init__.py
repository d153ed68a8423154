"""Spherical lat-lon grid, block decomposition, halo exchange."""

from repro.grid.sphere import SphericalGrid
from repro.grid.decomposition import Decomposition, Decomposition2D, Subdomain
from repro.grid.halo import exchange_halos, pad_with_halo

__all__ = [
    "SphericalGrid",
    "Decomposition",
    "Subdomain",
    "exchange_halos",
    "pad_with_halo",
]
