"""Machine-model metamorphic relations of the parallel AGCM.

A machine sweep prices the same run under another :class:`MachineModel`.
That is sound only if the machine never reaches the numerics, and if
slowing any one parameter never makes a rank finish earlier.  Each case
re-runs the ``tiny`` config on a 2 x 2 mesh under one machine variant and
checks both against the Paragon run: the returned fields are
bit-identical, and a slowed machine leaves no rank clock earlier.
"""

import numpy as np
import pytest

from repro.grid import Decomposition
from repro.model import agcm_rank_program, make_config
from repro.parallel import PARAGON, T3D, ProcessorMesh, Simulator

NSTEPS = 4
MESH = ProcessorMesh(2, 2)
BACKENDS = ("convolution-ring", "fft", "fft-lb")

#: name -> (machine, slower than PARAGON in one parameter?)
VARIANTS = {
    "latency-x10": (
        PARAGON.with_overrides(
            latency=PARAGON.latency * 10,
            overhead=min(PARAGON.overhead * 10, PARAGON.latency * 10),
        ),
        True,
    ),
    "bandwidth-x0.1": (
        PARAGON.with_overrides(bandwidth=PARAGON.bandwidth * 0.1), True,
    ),
    "flop-rate-x0.1": (
        PARAGON.with_overrides(flop_rate=PARAGON.flop_rate * 0.1), True,
    ),
    "t3d": (T3D, False),
}


def _run(backend, machine):
    cfg = make_config("tiny", filter_backend=backend)
    decomp = Decomposition(cfg.nlat, cfg.nlon, MESH)
    return Simulator(MESH.size, machine).run(
        agcm_rank_program, cfg, decomp, NSTEPS, True
    )


@pytest.fixture(scope="module")
def paragon_runs():
    return {b: _run(b, PARAGON) for b in BACKENDS}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_machine_changes_time_not_fields(paragon_runs, backend, variant):
    machine, slower = VARIANTS[variant]
    base = paragon_runs[backend]
    res = _run(backend, machine)
    for rank, (got, want) in enumerate(zip(res.returns, base.returns)):
        assert got["fields"].keys() == want["fields"].keys()
        for name, arr in want["fields"].items():
            assert np.array_equal(got["fields"][name], arr), (rank, name)
    if slower:
        for rank, (got, want) in enumerate(zip(res.clocks, base.clocks)):
            assert got >= want, (rank, got, want)
