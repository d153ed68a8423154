"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid import SphericalGrid
from repro.model import make_config
from repro.parallel import GENERIC, PARAGON, T3D, ProcessorMesh


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_grid() -> SphericalGrid:
    """An 18 x 24 grid: small but large enough for both polar filters."""
    return SphericalGrid(nlat=18, nlon=24)


@pytest.fixture
def paper_grid() -> SphericalGrid:
    """The paper's 2 x 2.5 degree grid (90 x 144)."""
    return SphericalGrid(nlat=90, nlon=144)


@pytest.fixture
def tiny_config():
    """The tiny AGCM preset used by the integration tests."""
    return make_config("tiny")


@pytest.fixture(params=[(1, 1), (2, 3), (3, 4)], ids=lambda d: f"mesh{d[0]}x{d[1]}")
def small_mesh(request) -> ProcessorMesh:
    """A selection of processor meshes (including uneven decompositions)."""
    return ProcessorMesh(*request.param)


@pytest.fixture
def generic_machine():
    return GENERIC


@pytest.fixture
def paragon():
    return PARAGON


@pytest.fixture
def t3d():
    return T3D
