"""Serial vs parallel AGCM equivalence — the central integration test."""

import numpy as np
import pytest

from repro.grid import Decomposition
from repro.model.agcm import AGCM
from repro.model.config import make_config
from repro.model.parallel_agcm import agcm_rank_program
from repro.parallel import PARAGON, T3D, ProcessorMesh, Simulator
from repro.verify import tolerances

NSTEPS = 9  # two physics calls on the tiny config (every 4 steps)


@pytest.fixture(scope="module")
def serial_reference():
    cfg = make_config("tiny")
    model = AGCM(cfg)
    model.initialize()
    model.run(NSTEPS)
    return cfg, model.state.fields()


def _gather_fields(cfg, dims, res, decomp):
    mesh_size = decomp.mesh.size
    return {
        name: decomp.gather(
            [res.returns[r]["fields"][name] for r in range(mesh_size)]
        )
        for name in ("u", "v", "pt", "ps", "q")
    }


class TestEquivalence:
    @pytest.mark.parametrize(
        "backend", ["convolution-ring", "convolution-tree", "fft", "fft-lb"]
    )
    @pytest.mark.parametrize("dims", [(1, 1), (2, 3)])
    def test_parallel_matches_serial(self, serial_reference, backend, dims):
        cfg, ref = serial_reference
        cfg2 = cfg.with_(filter_backend=backend)
        mesh = ProcessorMesh(*dims)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        res = Simulator(mesh.size, PARAGON).run(
            agcm_rank_program, cfg2, decomp, NSTEPS, True
        )
        gathered = _gather_fields(cfg2, dims, res, decomp)
        for name, want in ref.items():
            np.testing.assert_allclose(
                gathered[name], want, atol=tolerances.FIELD_ATOL,
                err_msg=f"{backend} {dims} field {name}",
            )

    def test_physics_lb_preserves_solution(self, serial_reference):
        """Moving columns between ranks must not change any result."""
        cfg, ref = serial_reference
        cfg2 = cfg.with_(physics_lb=True)
        mesh = ProcessorMesh(3, 2)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        res = Simulator(mesh.size, PARAGON).run(
            agcm_rank_program, cfg2, decomp, NSTEPS, True
        )
        gathered = _gather_fields(cfg2, (3, 2), res, decomp)
        for name, want in ref.items():
            np.testing.assert_allclose(gathered[name], want, atol=tolerances.FIELD_ATOL)
        moved = sum(r["columns_moved"] for r in res.returns)
        assert moved > 0  # the balancer really ran

    def test_machine_does_not_change_results(self, serial_reference):
        """Timing model and numerics are orthogonal."""
        cfg, ref = serial_reference
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        res_p = Simulator(4, PARAGON).run(
            agcm_rank_program, cfg, decomp, NSTEPS, True
        )
        res_t = Simulator(4, T3D).run(
            agcm_rank_program, cfg, decomp, NSTEPS, True
        )
        for r in range(4):
            for name in ("u", "pt"):
                np.testing.assert_array_equal(
                    res_p.returns[r]["fields"][name],
                    res_t.returns[r]["fields"][name],
                )
        assert res_t.elapsed < res_p.elapsed  # but the T3D is faster


class TestTraceStructure:
    def test_phases_recorded(self, serial_reference):
        cfg, _ = serial_reference
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        res = Simulator(4, PARAGON).run(agcm_rank_program, cfg, decomp, 4)
        phases = res.trace.phases()
        for name in ("dynamics", "physics", "filtering", "halo", "fd", "update"):
            assert name in phases

    def test_summaries(self, serial_reference):
        cfg, _ = serial_reference
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        res = Simulator(4, PARAGON).run(agcm_rank_program, cfg, decomp, 5)
        for r, summary in enumerate(res.returns):
            assert summary["rank"] == r
            assert summary["steps"] == 5
            assert summary["finite"]
            assert summary["physics_calls"] == 2  # steps 0 and 4


class TestDecompositionMustMatchConfig:
    """A decomposition of another grid is refused before any step runs,
    naming both grids, instead of failing deep inside the first one."""

    @pytest.mark.parametrize("make", [
        # Wrong layer count on a split mesh (was: a failed reshape).
        lambda cfg: Decomposition(cfg.nlat, cfg.nlon, ProcessorMesh(2, 2, 2),
                                  cfg.nlayers + 1),
        # Wrong latitude count (was: a bad latitude block in the geometry).
        lambda cfg: Decomposition(cfg.nlat + 2, cfg.nlon, ProcessorMesh(2, 2)),
    ], ids=["nlayers", "nlat"])
    def test_refused_at_the_boundary(self, make):
        cfg = make_config("tiny")
        decomp = make(cfg)
        have = (decomp.nlat, decomp.nlon, decomp.nlev or cfg.nlayers)
        want = (cfg.nlat, cfg.nlon, cfg.nlayers)
        with pytest.raises(ValueError) as err:
            Simulator(decomp.mesh.size, PARAGON).run(
                agcm_rank_program, cfg, decomp, 2)
        assert str(have) in str(err.value) and str(want) in str(err.value)
