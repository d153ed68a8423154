"""3-D decomposition (AGCM-3DLF) vs serial AGCM — bit-exact equivalence.

The fft filter backends are bit-identical to the serial path, so for
them the whole 3-D trajectory — pillar transposes to column space,
the full-K surface-pressure closure, the transposed vertical-diffusion
solves, leap-format stepping — must reproduce the serial fields with
``assert_array_equal`` (atol 0), on every mesh shape including pure
vertical (1 x 1 x K) splits.  The convolution backends reassociate
their filter sum and are held to the usual loose tolerance.
"""

import numpy as np
import pytest

from repro.grid import Decomposition
from repro.guard.detectors import NULL_GUARD, GuardConfig, StepGuard
from repro.model.agcm import AGCM
from repro.model.config import make_config
from repro.model.parallel_agcm import agcm3d_rank_program, agcm_rank_program
from repro.parallel import PARAGON, ProcessorMesh, Simulator
from repro.verify import tolerances

NSTEPS = 9  # two physics calls on the tiny config (every 4 steps)

FIELDS = ("u", "v", "pt", "ps", "q")


@pytest.fixture(scope="module")
def serial_reference():
    cfg = make_config("tiny")
    model = AGCM(cfg)
    model.initialize()
    model.run(NSTEPS)
    return cfg, model.state.fields()


def _run_3d(cfg, dims, nsteps=NSTEPS, **hooks):
    mesh = ProcessorMesh(*dims)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh, cfg.nlayers)
    res = Simulator(mesh.size, PARAGON).run(
        agcm_rank_program, cfg, decomp, nsteps, True, **hooks
    )
    gathered = {
        name: decomp.gather(
            [res.returns[r]["fields"][name] for r in range(mesh.size)],
            single_level=(name == "ps"),
        )
        for name in FIELDS
    }
    return res, gathered


class TestExactEquivalence:
    @pytest.mark.parametrize("backend", ["fft", "fft-lb"])
    @pytest.mark.parametrize(
        "dims", [(1, 1, 4), (2, 3, 2), (2, 2, 4), (2, 3, 1)]
    )
    def test_bit_exact_vs_serial(self, serial_reference, backend, dims):
        cfg, ref = serial_reference
        cfg2 = cfg.with_(filter_backend=backend)
        _, gathered = _run_3d(cfg2, dims)
        for name, want in ref.items():
            np.testing.assert_array_equal(
                gathered[name], want,
                err_msg=f"{backend} {dims} field {name}",
            )

    @pytest.mark.parametrize("backend", ["convolution-ring"])
    def test_convolution_within_loose_tolerance(self, serial_reference,
                                                backend):
        cfg, ref = serial_reference
        cfg2 = cfg.with_(filter_backend=backend)
        _, gathered = _run_3d(cfg2, (2, 2, 2))
        for name, want in ref.items():
            np.testing.assert_allclose(
                gathered[name], want, atol=tolerances.FIELD_ATOL,
                err_msg=f"{backend} field {name}",
            )

    def test_vertical_diffusion_preserved(self, serial_reference):
        """The transposed Thomas solves must match the serial vdiff."""
        cfg, _ = serial_reference
        cfg2 = cfg.with_(filter_backend="fft", vertical_diffusion=5.0)
        model = AGCM(cfg2)
        model.initialize()
        model.run(NSTEPS)
        _, gathered = _run_3d(cfg2, (2, 2, 4))
        for name, want in model.state.fields().items():
            np.testing.assert_array_equal(
                gathered[name], want, err_msg=f"vdiff field {name}"
            )

    def test_physics_lb_honoured_under_vertical_split(self,
                                                      serial_reference):
        """The scheme-3 balancer moves pillar-share columns and the
        trajectory stays bit-exact (the flag used to be ignored)."""
        cfg, ref = serial_reference
        cfg2 = cfg.with_(filter_backend="fft-lb", physics_lb=True)
        res, gathered = _run_3d(cfg2, (2, 2, 2))
        assert sum(s["columns_moved"] for s in res.returns) > 0
        for name, want in ref.items():
            np.testing.assert_array_equal(
                gathered[name], want, err_msg=f"physics_lb field {name}"
            )

    def test_degenerates_to_2d_program(self, serial_reference):
        """nlev_procs == 1 reproduces the classic 2-D program exactly:
        one function, and the same virtual run on a ``p x q`` and a
        ``p x q x 1`` mesh."""
        assert agcm3d_rank_program is agcm_rank_program
        cfg, _ = serial_reference
        mesh = ProcessorMesh(2, 3)
        decomp2 = Decomposition(cfg.nlat, cfg.nlon, mesh)
        res2 = Simulator(mesh.size, PARAGON).run(
            agcm_rank_program, cfg, decomp2, NSTEPS, True
        )
        res3, g3 = _run_3d(cfg, (2, 3, 1))
        assert res3.clocks == res2.clocks
        assert res3.elapsed == res2.elapsed
        assert res3.trace.total_messages() == res2.trace.total_messages()
        assert res3.trace.total_bytes() == res2.trace.total_bytes()
        g2 = {
            name: decomp2.gather(
                [res2.returns[r]["fields"][name] for r in range(mesh.size)]
            )
            for name in FIELDS
        }
        for name in FIELDS:
            np.testing.assert_array_equal(g3[name], g2[name])


class TestTraceStructure:
    def test_transpose_phase_recorded_when_pillar(self, serial_reference):
        cfg, _ = serial_reference
        res, _ = _run_3d(cfg, (1, 2, 2), nsteps=4)
        phases = res.trace.phases()
        assert "transpose" in phases
        for name in ("dynamics", "physics", "filtering", "halo", "fd"):
            assert name in phases

    def test_no_transpose_phase_without_vertical_split(self,
                                                      serial_reference):
        cfg, _ = serial_reference
        res, _ = _run_3d(cfg, (2, 2, 1), nsteps=4)
        assert "transpose" not in res.trace.phases()

    def test_summaries(self, serial_reference):
        cfg, _ = serial_reference
        res, _ = _run_3d(cfg, (2, 2, 2), nsteps=5)
        for r, summary in enumerate(res.returns):
            assert summary["rank"] == r
            assert summary["steps"] == 5
            assert summary["finite"]
            assert len(summary["subdomain"]) == 6
            # the keys faults.mitigation / run_faults read on any mesh
            assert set(summary) == {
                "rank", "subdomain", "steps", "start_step",
                "physics_calls", "columns_moved", "phys_compute_seconds",
                "phys_compute_steady", "max_wind", "finite", "fields",
            }


class TestHooksNeedFullColumns:
    @pytest.mark.parametrize("hook, value", [
        ("checkpointer", object()),
        ("resume", object()),
        ("guard", StepGuard(GuardConfig())),
    ])
    def test_rejected_under_vertical_split(self, serial_reference,
                                           hook, value):
        """Checkpoint, resume and guard work on full-column blocks: a
        vertical split refuses them instead of dropping them."""
        cfg, _ = serial_reference
        with pytest.raises(ValueError, match=f"{hook}.*2 x 2 x 2"):
            _run_3d(cfg, (2, 2, 2), nsteps=2, **{hook: value})

    def test_disabled_guard_is_not_a_hook(self, serial_reference):
        cfg, _ = serial_reference
        res, _ = _run_3d(cfg, (1, 2, 2), nsteps=2, guard=NULL_GUARD)
        assert "guard" not in res.trace.phases()


class TestSpeedup:
    def test_3d_beats_2d_at_16_nodes(self, serial_reference):
        """The tentpole claim, pinned: the 2x2x4 slab layout beats the
        4x4 horizontal layout at equal node count on the PARAGON."""
        cfg, _ = serial_reference
        mesh2 = ProcessorMesh(4, 4)
        d2 = Decomposition(cfg.nlat, cfg.nlon, mesh2)
        r2 = Simulator(16, PARAGON).run(agcm_rank_program, cfg, d2, 4)
        r3, _ = _run_3d(cfg, (2, 2, 4), nsteps=4)
        assert r2.elapsed / r3.elapsed > 1.05
