#!/usr/bin/env python
"""Physics load balancing: the three schemes and the end-to-end effect.

Part 1 replays the paper's Figures 4-6 worked example ({65,24,38,15} on
four processors) through all three schemes.

Part 2 measures real physics loads from a spun-up model on a processor
mesh (day/night + clouds + convection produce the paper's ~40% imbalance)
and shows the pairwise balancer's convergence — the Tables 1-3 story.

Part 3 runs the full parallel AGCM with scheme-3 balancing switched on
and off and compares the physics critical path.

Run:  python examples/physics_load_balancing.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AGCM,
    CyclicShuffleBalancer,
    Decomposition,
    PairwiseExchangeBalancer,
    ProcessorMesh,
    Simulator,
    SortedGreedyBalancer,
    imbalance,
    AGCMConfig,
)
from repro.model import agcm_rank_program
from repro.parallel import T3D
from repro.physics.driver import ColumnSet
from repro.physics.workload import column_flops
from repro.util.tables import Table


def part1_schemes() -> None:
    loads = np.array([65.0, 24.0, 38.0, 15.0])
    print(f"Paper worked example: loads {loads.tolist()}, "
          f"imbalance {imbalance(loads) * 100:.0f}%\n")
    table = Table(
        "Schemes 1-3 on the Figure 4-6 example",
        ["scheme", "after", "% imbalance", "messages"],
    )
    for balancer in (
        CyclicShuffleBalancer(),
        SortedGreedyBalancer(),
        PairwiseExchangeBalancer(max_passes=2, integer_amounts=True),
    ):
        res = balancer.balance(loads)
        table.add_row(
            balancer.name,
            "[" + ", ".join(f"{x:g}" for x in res.loads_after) + "]",
            f"{res.imbalance_after * 100:.1f}%",
            res.message_count,
        )
    print(table.render())


def part2_measured_loads() -> None:
    cfg = AGCMConfig.tiny()
    model = AGCM(cfg)
    model.initialize()
    model.run(16)  # spin up clouds and convection
    grid, state = model.grid, model.state

    mesh = ProcessorMesh(3, 4)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    loads = []
    for sub in decomp.subdomains():
        cols = ColumnSet.from_block(
            state.pt[sub.lat_slice, sub.lon_slice],
            state.q[sub.lat_slice, sub.lon_slice],
            grid.lat_rad[sub.lat_slice],
            grid.lon_rad[sub.lon_slice],
        )
        loads.append(column_flops(cols, 0.35, 16).sum() / T3D.flop_rate)
    loads = np.array(loads)

    print(f"\nMeasured physics loads on a {mesh.describe()} mesh "
          f"(virtual T3D seconds):")
    balancer = PairwiseExchangeBalancer(max_passes=3)
    for i, h in enumerate(balancer.balance_history(loads)):
        stage = "before balancing " if i == 0 else f"after pass {i}      "
        print(
            f"  {stage} max {h.max():.3f}s  min {h.min():.3f}s  "
            f"imbalance {imbalance(h) * 100:5.1f}%"
        )


def part3_end_to_end() -> None:
    cfg = AGCMConfig.tiny(physics_every=2)
    mesh = ProcessorMesh(3, 4)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    nsteps = 13

    results = {}
    for lb in (False, True):
        res = Simulator(mesh.size, T3D).run(
            agcm_rank_program, cfg.with_(physics_lb=lb), decomp, nsteps
        )
        results[lb] = res
    off = results[False].trace.phase_max("physics")
    on = results[True].trace.phase_max("physics")
    moved = sum(r["columns_moved"] for r in results[True].returns)
    print(
        f"\nFull AGCM, {nsteps} steps on {mesh.describe()} (virtual T3D):\n"
        f"  physics critical path without balancing: {off * 1e3:.1f} ms\n"
        f"  physics critical path with scheme 3:     {on * 1e3:.1f} ms "
        f"({(1 - on / off) * 100:.0f}% less; {moved} columns moved)\n"
        f"  total time: {results[False].elapsed * 1e3:.1f} -> "
        f"{results[True].elapsed * 1e3:.1f} ms"
    )


def main() -> None:
    part1_schemes()
    part2_measured_loads()
    part3_end_to_end()


if __name__ == "__main__":
    main()
