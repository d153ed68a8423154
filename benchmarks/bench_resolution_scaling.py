"""Supplementary — the paper's resolution-scaling prediction, tested.

Paper Section 4: "We would expect even better scaling be achieved for the
parallel filtering as well as for the overall AGCM code for higher
horizontal and vertical resolution versions."  The authors could not run
this; the virtual machine can.  Filtering parallel efficiency
(16 -> 240 nodes) is measured for the 9-layer and 15-layer models at the
paper's 2 x 2.5 degree grid and at a doubled 1 x 1.25 degree grid.
"""

import pytest
from conftest import run_once

from repro.core import make_filter_plan, prepare_filter_backend
from repro.dynamics.state import initial_fields_block
from repro.grid import Decomposition, SphericalGrid
from repro.parallel import PARAGON, ProcessorMesh, Simulator
from repro.util.tables import Table

SMALL_MESH = (4, 4)    # 16 nodes
LARGE_MESH = (8, 30)   # 240 nodes


def _filter_time(grid, nlayers, dims):
    mesh = ProcessorMesh(*dims)
    decomp = Decomposition(grid.nlat, grid.nlon, mesh)
    plan = make_filter_plan(grid)
    backend = prepare_filter_backend("fft-lb", plan, decomp)

    def program(ctx):
        sub = decomp.subdomain(ctx.rank)
        fields = initial_fields_block(
            grid.lat_rad[sub.lat_slice], grid.lon_rad[sub.lon_slice], nlayers
        )
        yield from ctx.barrier()
        with ctx.region("filter"):
            yield from backend.apply(ctx, fields)

    res = Simulator(mesh.size, PARAGON).run(program)
    return res.trace.phase_max("filter")


def sweep():
    table = Table(
        "Supplementary — FFT+LB filtering parallel efficiency, "
        "16 -> 240 nodes (Paragon)",
        ["grid", "layers", "t(16) [ms]", "t(240) [ms]", "speedup",
         "efficiency"],
    )
    data = {}
    cases = [
        (SphericalGrid(90, 144), 9, "2 x 2.5"),
        (SphericalGrid(90, 144), 15, "2 x 2.5"),
        (SphericalGrid(180, 288), 9, "1 x 1.25"),
        (SphericalGrid(180, 288), 15, "1 x 1.25"),
    ]
    for grid, nlayers, label in cases:
        t16 = _filter_time(grid, nlayers, SMALL_MESH)
        t240 = _filter_time(grid, nlayers, LARGE_MESH)
        speedup = t16 / t240
        eff = speedup / (240 / 16)
        table.add_row(
            label, nlayers, f"{t16 * 1e3:.2f}", f"{t240 * 1e3:.2f}",
            f"{speedup:.2f}", f"{100 * eff:.0f}%",
        )
        data[(label, nlayers)] = {"t16": t16, "t240": t240, "eff": eff}
    return table, data


def test_resolution_scaling_prediction(benchmark, results_dir):
    table, data = run_once(benchmark, sweep)
    (results_dir / "resolution_scaling.txt").write_text(table.render() + "\n")
    print("\n" + table.render())

    # The paper's measured 15-vs-9-layer effect at 2 x 2.5 (39% vs 32%
    # parallel efficiency): more layers -> better efficiency.
    assert data[("2 x 2.5", 15)]["eff"] > data[("2 x 2.5", 9)]["eff"]

    # The paper's *prediction*: higher horizontal resolution scales
    # better still, at each layer count.
    for nlayers in (9, 15):
        assert (
            data[("1 x 1.25", nlayers)]["eff"]
            > data[("2 x 2.5", nlayers)]["eff"]
        ), nlayers
