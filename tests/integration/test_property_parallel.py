"""Property-based integration tests of the parallel machinery.

Random (grid, mesh, backend) combinations — the decisive invariant is
always the same: the virtual-parallel computation produces exactly the
serial result, for every decomposition.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    apply_serial_filter,
    make_filter_plan,
    prepare_filter_backend,
)
from repro.grid import Decomposition, SphericalGrid
from repro.model import make_config
from repro.model.agcm import AGCM
from repro.model.parallel_agcm import agcm_rank_program
from repro.parallel import GENERIC, PARAGON, ProcessorMesh, Simulator
from repro.verify import tolerances


@given(
    nlat=st.sampled_from([10, 14, 18]),
    nlon=st.sampled_from([12, 16, 20]),
    m=st.integers(1, 4),
    n=st.integers(1, 4),
    backend=st.sampled_from(
        ["convolution-ring", "convolution-tree", "fft", "fft-lb"]
    ),
    seed=st.integers(0, 1000),
)
@settings(max_examples=25, deadline=None)
def test_parallel_filter_equals_serial_property(
    nlat, nlon, m, n, backend, seed
):
    if nlat < m or nlon < n:
        return
    grid = SphericalGrid(nlat, nlon)
    rng = np.random.default_rng(seed)
    fields = {
        name: rng.standard_normal((nlat, nlon, 2))
        for name in ("u", "v", "pt", "q")
    }
    fields["ps"] = rng.standard_normal((nlat, nlon, 1))
    plan = make_filter_plan(grid)
    reference = {k: v.copy() for k, v in fields.items()}
    apply_serial_filter(plan, reference)

    mesh = ProcessorMesh(m, n)
    decomp = Decomposition(nlat, nlon, mesh)
    be = prepare_filter_backend(backend, plan, decomp)

    def program(ctx):
        local = {k: decomp.scatter(fields[k])[ctx.rank].copy() for k in fields}
        yield from be.apply(ctx, local)
        return local

    res = Simulator(mesh.size, GENERIC).run(program)
    for name in fields:
        gathered = decomp.gather(
            [res.returns[r][name] for r in range(mesh.size)]
        )
        np.testing.assert_allclose(
            gathered, reference[name], atol=tolerances.FIELD_ATOL_LOOSE,
            err_msg=f"{backend} on {m}x{n} mesh, field {name}",
        )


@given(
    m=st.integers(1, 3),
    n=st.integers(1, 4),
    lb=st.booleans(),
    vdiff=st.sampled_from([0.0, 5.0]),
)
@settings(max_examples=8, deadline=None)
def test_parallel_agcm_equals_serial_property(m, n, lb, vdiff):
    """Random mesh + feature toggles: the model is decomposition-blind."""
    cfg = make_config("tiny", physics_lb=lb, vertical_diffusion=vdiff)
    nsteps = 5
    serial = AGCM(cfg)
    serial.initialize()
    serial.run(nsteps)
    ref = serial.state.fields()

    mesh = ProcessorMesh(m, n)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    res = Simulator(mesh.size, GENERIC).run(
        agcm_rank_program, cfg, decomp, nsteps, True
    )
    for name, want in ref.items():
        gathered = decomp.gather(
            [res.returns[r]["fields"][name] for r in range(mesh.size)]
        )
        np.testing.assert_allclose(gathered, want, atol=tolerances.FIELD_ATOL)


@pytest.mark.parametrize("backend", ["fft-lb"])
def test_paper_resolution_equivalence(backend):
    """The headline equivalence at the paper's own 144 x 90 x 9 grid."""
    cfg = make_config("2x2.5x9", filter_backend=backend)
    nsteps = 2
    serial = AGCM(cfg)
    serial.initialize()
    serial.run(nsteps)

    mesh = ProcessorMesh(3, 4)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    res = Simulator(mesh.size, PARAGON).run(
        agcm_rank_program, cfg, decomp, nsteps, True
    )
    for name, want in serial.state.fields().items():
        gathered = decomp.gather(
            [res.returns[r]["fields"][name] for r in range(mesh.size)]
        )
        np.testing.assert_allclose(gathered, want, atol=tolerances.FIELD_ATOL_LOOSE, err_msg=name)
