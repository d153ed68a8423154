"""The ``(nlat, nlon, nlev, mesh)`` spelling of the one decomposition."""

from repro.grid.decomposition import Decomposition


def Decomposition3D(nlat, nlon, nlev, mesh) -> Decomposition:
    """``Decomposition(nlat, nlon, mesh, nlev)``.

    ``bench/probes.py`` imports this spelling; it goes when ROADMAP
    item 1 brings ``bench/`` level with the tree.
    """
    return Decomposition(nlat, nlon, mesh, nlev)
