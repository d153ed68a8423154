#!/usr/bin/env python
"""Seeing the load imbalance: event timelines of the polar filter.

Runs one filtering application with and without the generic row
redistribution on the virtual Paragon, with event recording on, and
renders:

* a text Gantt chart per rank — without balancing, the equatorial
  processor rows are pure wait ('.') while the polar rows compute ('#');
  with balancing, everyone computes;
* the communication matrix — the transpose's all-to-all blocks and the
  stage-A redistribution traffic are directly visible.

Run:  python examples/trace_timeline.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    Decomposition,
    ProcessorMesh,
    Simulator,
    SphericalGrid,
    make_filter_plan,
    prepare_filter_backend,
)
from repro.dynamics.state import initial_fields_block
from repro.parallel import PARAGON, busy_fraction, communication_matrix, render_gantt

GRID = SphericalGrid(nlat=24, nlon=32)
MESH = ProcessorMesh(4, 4)
NLAYERS = 6


def run(backend_name: str):
    decomp = Decomposition(GRID.nlat, GRID.nlon, MESH)
    plan = make_filter_plan(GRID)
    backend = prepare_filter_backend(backend_name, plan, decomp)

    def program(ctx):
        sub = decomp.subdomain(ctx.rank)
        fields = initial_fields_block(
            GRID.lat_rad[sub.lat_slice], GRID.lon_rad[sub.lon_slice], NLAYERS
        )
        yield from ctx.barrier()
        yield from backend.apply(ctx, fields)
        yield from ctx.barrier(tag=1)
        return None

    return Simulator(MESH.size, PARAGON, record_events=True).run(program)


def main() -> None:
    for backend in ("fft", "fft-lb"):
        res = run(backend)
        print(f"=== {backend}: one filter application, "
              f"{res.elapsed * 1e3:.2f} virtual ms ===")
        print(render_gantt(res.trace, res.elapsed, width=64))
        frac = busy_fraction(res.trace, res.elapsed)
        idle = int((frac < 0.05).sum())
        print(f"ranks <5% busy: {idle} of {MESH.size}\n")

    res = run("fft-lb")
    cm = communication_matrix(res.trace)
    print("Communication matrix (kB sent, fft-lb):")
    with np.printoptions(linewidth=200, precision=1, suppress=True):
        print(cm / 1e3)
    print(
        "\nBlock structure: the dense 4x4 blocks on the diagonal are the\n"
        "row transposes; the off-diagonal bands are the stage-A row\n"
        "redistribution (polar processor rows shipping filtered-row\n"
        "segments to equatorial ones and back)."
    )


if __name__ == "__main__":
    main()
