"""The run-scoped AGCM plan: set-up work is counted per run (and per
processor row), not per rank — host-independent work counts — and the
trajectory it produces is still the serial driver's, bit for bit."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import parallel_filter
from repro.dynamics import state as dynamics_state
from repro.dynamics.geometry import LocalGeometry
from repro.dynamics.state import PROGNOSTIC_NAMES
from repro.grid import Decomposition
from repro.model import parallel_agcm
from repro.model.agcm import AGCM
from repro.model.config import make_config
from repro.model.parallel_agcm import agcm_rank_program
from repro.parallel import PARAGON, ProcessorMesh, Simulator


def _count(monkeypatch, counts, label, owner, name):
    """Wrap ``owner.name`` so that every call adds one to ``counts[label]``."""
    real = vars(owner)[name]
    bound = isinstance(real, classmethod)
    call = real.__func__ if bound else real

    def counted(*args, **kwargs):
        counts[label] = counts.get(label, 0) + 1
        return call(*args, **kwargs)

    monkeypatch.setattr(owner, name, classmethod(counted) if bound else counted)


@pytest.fixture
def counts(monkeypatch):
    out = {}
    for label, owner, name in (
        ("filter plans", parallel_agcm, "make_filter_plan"),
        ("backends", parallel_agcm, "prepare_filter_backend"),
        ("initial fields", dynamics_state, "initial_fields_block"),
        ("row states", parallel_filter._RowState, "__init__"),
        ("geometries", LocalGeometry, "from_grid"),
        ("workspaces", parallel_agcm.TendencyWorkspace, "__init__"),
    ):
        _count(monkeypatch, out, label, owner, name)
    return out


def test_4x4_sets_up_once_per_run_and_once_per_row(counts):
    cfg = make_config("tiny")
    mesh = ProcessorMesh(4, 4)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    assert cfg.filter_backend == "fft-lb"  # a transpose backend: row states
    res = Simulator(mesh.size, PARAGON).run(agcm_rank_program, cfg, decomp, 3)
    assert all(r["finite"] for r in res.returns)
    tile_shapes = {decomp.subdomain(r).shape for r in range(mesh.size)}
    assert counts == {
        "filter plans": 1, "backends": 1, "initial fields": 1,
        "row states": 4, "geometries": 4, "workspaces": len(tile_shapes),
    }


def test_2x2x4_prepares_one_backend_per_slab(counts):
    cfg = make_config("tiny")
    mesh = ProcessorMesh(2, 2, 4)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh, cfg.nlayers)
    Simulator(mesh.size, PARAGON).run(agcm_rank_program, cfg, decomp, 2)
    assert counts["filter plans"] == 1
    assert counts["backends"] == 4  # one per slab
    assert counts["row states"] == 4 * 2  # per slab, per processor row
    assert counts["initial fields"] == 1
    assert counts["geometries"] == 2  # one per processor row


def test_a_resumed_run_never_builds_initial_fields(counts, tmp_path):
    from repro.faults.checkpoint import Checkpointer, load_checkpoint

    cfg = make_config("tiny")
    mesh = ProcessorMesh(2, 2)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    ckpt = Checkpointer(2, tmp_path / "c.npz")
    full = Simulator(mesh.size, PARAGON).run(
        agcm_rank_program, cfg, decomp, 5, True, checkpointer=ckpt)
    assert counts["initial fields"] == 1
    resumed = Simulator(mesh.size, PARAGON).run(
        agcm_rank_program, cfg, decomp, 5, True,
        resume=load_checkpoint(tmp_path / "c.npz"))
    assert counts["initial fields"] == 1
    for r in range(mesh.size):
        for name in PROGNOSTIC_NAMES:
            assert np.array_equal(resumed.returns[r]["fields"][name],
                                  full.returns[r]["fields"][name])


def test_the_plan_dies_with_the_run(monkeypatch):
    """Hazard: a ``ctx`` refers to itself, so a plan left in the store
    would wait for the cyclic collector (and show as peak RSS)."""
    refs = []
    init = parallel_agcm._RunPlan.__init__

    def remembered(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(parallel_agcm._RunPlan, "__init__", remembered)
    cfg = make_config("tiny")
    mesh = ProcessorMesh(2, 2)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    gc.collect()
    gc.disable()
    try:
        Simulator(mesh.size, PARAGON).run(agcm_rank_program, cfg, decomp, 2)
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("dims", [(4, 4), (8, 8), (2, 2, 4)])
def test_paper_grid_tilings_equal_serial(dims):
    """``==`` on the paper's 90 x 144 grid: 90 rows over 4 (22 and 23)
    and over 8 (11 and 12) processor rows, shared geometry and workspace
    per row and tile shape, and a vertical split."""
    cfg = make_config("2x2.5x9")
    nsteps = 3
    model = AGCM(cfg)
    model.initialize()
    model.run(nsteps)
    mesh = ProcessorMesh(*dims)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh, cfg.nlayers)
    res = Simulator(mesh.size, PARAGON).run(
        agcm_rank_program, cfg, decomp, nsteps, True)
    for name, want in model.state.fields().items():
        blocks = [r["fields"][name] for r in res.returns]
        got = (decomp.gather(blocks, single_level=(name == "ps"))
               if len(dims) == 3 else decomp.gather(blocks))
        assert np.array_equal(got, want), (dims, name)
