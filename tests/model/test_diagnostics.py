"""Physical sanity of a running model, and the implicit-diffusion option."""

import numpy as np

from repro.dynamics.state import PHI_SCALE, PT_REFERENCE
from repro.model.agcm import AGCM
from repro.model.config import make_config


def total_energy(state, grid):
    """Area-integrated kinetic + available-potential energy: ``pt (u^2 +
    v^2) / 2`` and ``PHI_SCALE (pt - ref)^2 / (2 ref)``, the shallow-water
    analogues with the mass-field proxy as the layer weight."""
    w = grid.cell_area[:, None, None]
    ke = (0.5 * state.pt * (state.u**2 + state.v**2) * w).sum()
    anomaly = state.pt - PT_REFERENCE
    pe = (0.5 * PHI_SCALE / PT_REFERENCE * anomaly**2 * w).sum()
    return float(ke + pe)


def high_wavenumber_fraction(row):
    """Fraction of the (non-mean) zonal variance of one latitude row in
    the upper half of its wavenumbers."""
    spec = np.abs(np.fft.rfft(row)) ** 2
    cut = max(1, (spec.size - 1) // 2)
    return float(spec[cut:].sum() / spec[1:].sum())


class TestEnergyBudget:
    def test_energy_bounded_during_run(self):
        """No spurious energy source: total energy stays within a small
        factor of its initial value over a short run."""
        model = AGCM(make_config("tiny"))
        model.initialize()
        e0 = total_energy(model.state, model.grid)
        model.run(20)
        e1 = total_energy(model.state, model.grid)
        assert e1 < 5 * e0 + 1e-12


class TestZonalDiagnostics:
    def test_filter_suppresses_polar_short_waves(self):
        """The polar filter strips short-wave variance from the polar
        rows of the *tendencies* (the quantity it is applied to) while
        leaving mid-latitude rows untouched."""
        model = AGCM(make_config("tiny"))
        model.initialize()
        model.run(4)
        tend = model._tendencies(model.state)
        raw = {k: v.copy() for k, v in tend.items()}
        model._filter_tendencies(tend)
        polar = model.grid.nlat - 1
        mid = model.grid.nlat // 2
        before = high_wavenumber_fraction(raw["u"][polar, :, 0])
        after = high_wavenumber_fraction(tend["u"][polar, :, 0])
        assert after < before
        np.testing.assert_allclose(
            tend["u"][mid], raw["u"][mid], atol=1e-14
        )


class TestImplicitDiffusionOption:
    def test_option_changes_solution(self):
        a = AGCM(make_config("tiny"))
        a.initialize()
        a.run(6)
        b = AGCM(make_config("tiny", vertical_diffusion=5.0))
        b.initialize()
        b.run(6)
        assert not np.allclose(a.state.pt, b.state.pt)
        assert b.is_stable()

    def test_vertical_diffusion_reduces_vertical_contrast(self):
        cfg_off = make_config("tiny")
        cfg_on = make_config("tiny", vertical_diffusion=50.0)
        runs = {}
        for key, cfg in (("off", cfg_off), ("on", cfg_on)):
            m = AGCM(cfg)
            m.initialize()
            m.run(10)
            pt = m.state.pt
            runs[key] = float(np.abs(np.diff(pt, axis=2)).mean())
        assert runs["on"] < runs["off"]

    def test_parallel_equivalence_with_option(self):
        from repro.grid import Decomposition
        from repro.model.parallel_agcm import agcm_rank_program
        from repro.parallel import GENERIC, ProcessorMesh, Simulator

        cfg = make_config("tiny", vertical_diffusion=5.0)
        ser = AGCM(cfg)
        ser.initialize()
        ser.run(5)
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        res = Simulator(4, GENERIC).run(agcm_rank_program, cfg, decomp, 5, True)
        for name, want in ser.state.fields().items():
            got = decomp.gather(
                [res.returns[r]["fields"][name] for r in range(4)]
            )
            np.testing.assert_allclose(got, want, atol=1e-10)
