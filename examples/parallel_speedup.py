#!/usr/bin/env python
"""Parallel AGCM speedup curves on the virtual Paragon and T3D.

Reproduces the structure of the paper's Tables 4-7 at a reduced grid so
it finishes in seconds: the same model runs over several processor
meshes with the original (convolution) and optimised (load-balanced FFT)
filtering, and the per-day Dynamics/total timings and speedups are
printed side by side.

Run:  python examples/parallel_speedup.py
"""

from __future__ import annotations

from repro import AGCMConfig, Decomposition, ProcessorMesh, Simulator, make_machine
from repro.model import ComponentBreakdown, agcm_rank_program
from repro.util.tables import Table

MESHES = [(1, 1), (2, 2), (4, 4), (4, 8)]
NSTEPS = 8


def run_curve(machine_name: str, backend: str) -> Table:
    cfg = AGCMConfig.tiny(filter_backend=backend)
    machine = make_machine(machine_name)
    table = Table(
        f"AGCM s/simulated-day — {backend} filtering on {machine_name} "
        f"({cfg.describe()})",
        ["node mesh", "Dynamics", "speedup", "filtering", "physics", "total"],
    )
    serial_dyn = None
    for dims in MESHES:
        mesh = ProcessorMesh(*dims)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        result = Simulator(mesh.size, machine).run(
            agcm_rank_program, cfg, decomp, NSTEPS
        )
        br = ComponentBreakdown.from_result(result, NSTEPS, cfg)
        if serial_dyn is None:
            serial_dyn = br.dynamics
        table.add_row(
            mesh.describe(),
            br.dynamics,
            f"{serial_dyn / br.dynamics:.1f}",
            br.filtering,
            br.physics,
            br.total,
        )
    return table


def main() -> None:
    for machine in ("paragon", "t3d"):
        for backend in ("convolution-ring", "fft-lb"):
            print(run_curve(machine, backend).render())
            print()
    print(
        "Note the paper's shape: the load-balanced FFT roughly halves the\n"
        "filtering cost and lifts the Dynamics speedup at every mesh, and\n"
        "the T3D model runs ~2.5x faster than the Paragon throughout."
    )


if __name__ == "__main__":
    main()
