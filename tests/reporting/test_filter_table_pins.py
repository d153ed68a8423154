"""The filtering tables (Tables 8-11) and ``bigmesh``: output pins, work
counts and argument checks.

The digests are the sha256 of each unit's rendered text and of
``repr(result.data)``, recorded at a parent commit; never re-record them
to make a change pass.  The work counts pin what the filtering tables do
once: one initial state per mesh (shared by the three backend runs, since
no virtual cost depends on field values) and one doubled, reversed
kernel per (filter, latitude), not one per block built.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
import pytest

import repro.api as api
import repro.core.parallel_filter as parallel_filter
import repro.dynamics.state as state
from repro.campaign import enumerate_units
from repro.core import make_filter_plan, prepare_filter_backend
from repro.core.convolution import circulant_rows
from repro.grid import Decomposition, SphericalGrid
from repro.parallel import GENERIC, PARAGON, ProcessorMesh, Simulator
from repro.reporting.experiments import run_filtering_table


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("label, render_sha, data_sha", [
    ("table8@4x4",
     "7be31b98ba085bd8c9f87763066bc0744d3e27642b47e745f25cb7a0afb5c25f",
     "5faf46797b3e5cf6f9bf8105cd0337c3438ff3660462f1ef478db0fe1f7b1343"),
    ("table9@4x4",
     "a75f4adbd92226f61aeaa076b3a31b0a15228944adcfd52723e24c84637cb0ea",
     "4d1539e69c03eb5c90ac8a1e946c0bf0875859d75260ea9493d29019fa5dfd38"),
    ("table10@4x4",
     "a41c9f36a0c2513b82ded89158bed04c66ac2cdcabf6bc1c3ac00ab09d43aad4",
     "454686cab75ce801dcb01d5c40cfb7e8fd2a8eb6e079703ef040bea90166666e"),
    ("table11@4x4",
     "2e3a6277bcfc911310f83b558023a96a78b2c2fa46ff689e6e931acd1d13a678",
     "c4f6af7a59e1ab40c02cc767de4ce87d96ada605e6a863d5e737e212edf8e69a"),
])
def test_filtering_table_unit_unchanged_since_parent(label, render_sha, data_sha):
    unit = enumerate_units([label])[0]
    result = api.run(unit.ident, **unit.point.as_dict())
    assert _sha256(result.render()) == render_sha
    assert _sha256(repr(result.value.data)) == data_sha


def test_bigmesh_unchanged_since_parent():
    result = api.run("bigmesh", meshes=((4, 8),))
    assert _sha256(result.render()) == (
        "42d78b7b95dfcead2c0387e7ce7a9feb30d0b4f021a24b928eb48ee3ae60ace0")
    assert _sha256(repr(result.value.data)) == (
        "b0427f07bd157eaeae55c503d48110b65a6693d9f6a1a6c86ebd253c4a4075ec")


# ----------------------------------------------------------------------
# work counts: set-up that depends only on the mesh or a row, done once
# ----------------------------------------------------------------------

def test_one_initial_state_per_mesh(monkeypatch):
    """The three backend runs of a mesh filter one set of blocks."""
    calls = []
    build = state.initial_fields_block

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(state, "initial_fields_block", counted)
    run_filtering_table(PARAGON, 9, meshes=((2, 2),), napps=1)
    assert len(calls) == 1


def test_second_convolution_application_builds_no_doubled_kernel(monkeypatch):
    """Each block is one view of a memoised doubled kernel and one copy:
    a second application concatenates no kernel."""
    grid = SphericalGrid(nlat=18, nlon=24)
    mesh = ProcessorMesh(3, 4)
    decomp = Decomposition(grid.nlat, grid.nlon, mesh)
    backend = prepare_filter_backend(
        "convolution-ring", make_filter_plan(grid), decomp)
    blocks = state.scatter_initial_fields(decomp, grid, 2)
    counts = {"blocks": 0, "doubled": 0}
    concatenate = np.concatenate

    def counted_concatenate(*args, **kwargs):
        if sys._getframe(1).f_code is circulant_rows.__code__:
            counts["doubled"] += 1
        return concatenate(*args, **kwargs)

    def counted_rows(*args, **kwargs):
        counts["blocks"] += 1
        return circulant_rows(*args, **kwargs)

    monkeypatch.setattr(np, "concatenate", counted_concatenate)
    monkeypatch.setattr(parallel_filter, "circulant_rows", counted_rows)

    def program(ctx):
        yield from backend.apply(ctx, blocks[ctx.rank])

    Simulator(mesh.size, GENERIC).run(program)
    counts.update(blocks=0, doubled=0)
    Simulator(mesh.size, GENERIC).run(program)
    assert counts["blocks"] > 0
    assert counts["doubled"] == 0


# ----------------------------------------------------------------------
# ``napps`` is a positive integer in both runners that divide by it
# ----------------------------------------------------------------------

@pytest.mark.parametrize("ident", ["table8", "bigmesh"])
@pytest.mark.parametrize("napps, error", [
    (0, ValueError), (-1, ValueError), (2.5, TypeError),
])
def test_bad_napps_is_rejected(ident, napps, error):
    with pytest.raises(error, match="napps"):
        api.run(ident, meshes=((2, 2),), napps=napps)
