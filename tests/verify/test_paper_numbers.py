"""The paper's headline ratios and the guard and 3-D bounds, held exactly.

One module-scoped fixture runs, on ``PARAGON``:

* the 9-layer filtering table at 4 x 8 (one application per day);
* the old (``convolution-ring``) and new (``fft-lb``) AGCM timing rows
  at 4 x 4 for 4 steps;
* the straggler demo with and without the measured-time balancer;
* the guard on the tiny config at 2 x 2 for 8 steps: unguarded, with
  every detector on, and with detectors off;
* one buddy and one disk checkpoint of the 2x2.5x9 grid at 8 x 30
  (the paper's 240-node mesh) over 2 steps;
* ``fig_3d`` on (4, 4, 1) and (2, 2, 4).

Everything is virtual time, so each value is exactly reproducible.  The
eight ratio values were recorded at a parent commit; never re-record
them to make a change pass.  The four bounds are absolute and need no
recorded value.
"""

from __future__ import annotations

import pytest

from repro.faults.checkpoint import Checkpointer
from repro.faults.mitigation import run_straggler_demo
from repro.grid import Decomposition2D
from repro.guard.buddy import BuddyCheckpointer
from repro.guard.config import GuardConfig
from repro.guard.supervisor import run_agcm_guarded
from repro.model import make_config
from repro.model.parallel_agcm import agcm_rank_program
from repro.parallel import PARAGON, ProcessorMesh, Simulator
from repro.reporting.experiments import (
    run_agcm_timing_table,
    run_fig_3d,
    run_filtering_table,
)

#: Speedups (> 1: the optimised variant wins), recorded at a parent.
RATIOS = {
    "speedup_filter_fft_vs_convolution": 5.536806646970271,
    "speedup_filter_fft_lb_vs_convolution": 10.497037207683087,
    "speedup_agcm_dynamics_new_vs_old": 1.2353631008561239,
    "speedup_agcm_filtering_new_vs_old": 4.726386527534606,
    "speedup_agcm_total_new_vs_old": 1.1418343336381238,
    "straggler_imbalance_reduction": 5.171382478882865,
    "guard_ckpt_buddy_vs_disk_speedup": 122.63636154793083,
    "sim_3d_speedup_vs_2d": 1.2020965810455835,
}


def _guard_overheads():
    """Detector cost as a fraction of the unguarded run: on, then off."""
    cfg = make_config("tiny", physics_every=2)
    mesh = ProcessorMesh(2, 2)
    decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
    base = Simulator(mesh.size, PARAGON).run(
        agcm_rank_program, cfg, decomp, 8).elapsed
    fractions = []
    for guard in (GuardConfig(buddy_every=0),
                  GuardConfig(detect=False, buddy_every=0)):
        run = run_agcm_guarded(cfg, decomp, 8, PARAGON, guard=guard,
                               return_fields=False)
        fractions.append((run.result.elapsed - base) / base)
    return fractions


def _checkpoint_seconds(checkpointer):
    """Slowest rank's checkpoint phase at 8 x 30 over 2 steps."""
    cfg = make_config("2x2.5x9")
    mesh = ProcessorMesh(8, 30)
    decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
    res = Simulator(mesh.size, PARAGON).run(
        agcm_rank_program, cfg, decomp, 2, False, checkpointer)
    return res.trace.phase_max("checkpoint")


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    filt = run_filtering_table(PARAGON, 9, meshes=((4, 8),),
                               napps=1).data[(4, 8)]
    old, new = (
        run_agcm_timing_table(PARAGON, backend, meshes=((4, 4),),
                              nsteps=4).data[(4, 4)]
        for backend in ("convolution-ring", "fft-lb")
    )
    static = run_straggler_demo(mitigate=False)
    mitigated = run_straggler_demo(mitigate=True)
    overhead, disabled = _guard_overheads()
    buddy = _checkpoint_seconds(BuddyCheckpointer(1, ProcessorMesh(8, 30)))
    disk = _checkpoint_seconds(Checkpointer(
        1, tmp_path_factory.mktemp("ckpt") / "bench-ck.npz"))
    fig3d = run_fig_3d(PARAGON, nsteps=4,
                       meshes=((4, 4, 1), (2, 2, 4))).data
    return {
        "speedup_filter_fft_vs_convolution":
            filt["convolution-ring"] / filt["fft"],
        "speedup_filter_fft_lb_vs_convolution":
            filt["convolution-ring"] / filt["fft-lb"],
        "speedup_agcm_dynamics_new_vs_old": old["dynamics"] / new["dynamics"],
        "speedup_agcm_filtering_new_vs_old":
            old["filtering"] / new["filtering"],
        "speedup_agcm_total_new_vs_old": old["total"] / new["total"],
        "straggler_imbalance_reduction":
            static["imbalance"] / mitigated["imbalance"],
        "guard_ckpt_buddy_vs_disk_speedup": disk / buddy,
        "sim_3d_speedup_vs_2d": fig3d["2x2x4"]["speedup_vs_2d"],
        "guard_overhead_fraction": overhead,
        "guard_disabled_overhead_fraction": disabled,
        "guard_buddy_ckpt_seconds": buddy,
        "guard_disk_ckpt_seconds": disk,
    }


@pytest.mark.parametrize("name", RATIOS)
def test_ratio_unchanged_since_parent(measured, name):
    assert measured[name] == pytest.approx(RATIOS[name], rel=1e-9)


def test_guard_overhead_within_five_percent(measured):
    assert measured["guard_overhead_fraction"] <= 0.05


def test_disabled_guard_costs_exactly_nothing(measured):
    assert measured["guard_disabled_overhead_fraction"] == 0.0


def test_buddy_checkpoint_strictly_cheaper_than_disk_at_240_ranks(measured):
    assert (measured["guard_buddy_ckpt_seconds"]
            < measured["guard_disk_ckpt_seconds"])


def test_slab_mesh_beats_horizontal_mesh_by_five_percent(measured):
    assert measured["sim_3d_speedup_vs_2d"] >= 1.05
