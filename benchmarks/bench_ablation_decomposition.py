"""Ablation — the Section-2 design choice: 2-D vs 1-D decompositions.

The paper partitions the horizontal plane in both directions.  At a fixed
node count the alternatives are latitude-only strips (no east-west
messages, but long thin blocks and the whole filter burden concentrated
per strip) and longitude-only strips (every rank owns polar rows, so the
unbalanced filter hits everyone, and halo edges are long).  This bench
compares the three at 64 nodes on the production grid.
"""

from conftest import run_once

from repro.grid import Decomposition
from repro.model import AGCMConfig, ComponentBreakdown
from repro.model.parallel_agcm import agcm_rank_program
from repro.parallel import PARAGON, ProcessorMesh, Simulator
from repro.util.tables import Table

NSTEPS = 8
SHAPES = ((64, 1), (8, 8), (2, 32), (1, 64))


def sweep():
    cfg = AGCMConfig.paper_2x2_5()
    table = Table(
        "Ablation — decomposition shape at 64 nodes (Paragon, s/day)",
        ["mesh", "dynamics", "filtering", "halo", "total", "halo kB/step"],
    )
    data = {}
    for dims in SHAPES:
        mesh = ProcessorMesh(*dims)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        res = Simulator(mesh.size, PARAGON).run(
            agcm_rank_program, cfg, decomp, NSTEPS
        )
        br = ComponentBreakdown.from_result(res, NSTEPS, cfg)
        halo_bytes = res.trace.total_bytes() / NSTEPS / 1e3
        table.add_row(
            mesh.describe(), br.dynamics, br.filtering, br.halo,
            br.total, f"{halo_bytes:.0f}",
        )
        data[dims] = {"breakdown": br, "halo_kb": halo_bytes}
    return table, data


def test_decomposition_shapes(benchmark, results_dir):
    table, data = run_once(benchmark, sweep)
    (results_dir / "ablation_decomposition.txt").write_text(
        table.render() + "\n"
    )
    print("\n" + table.render())

    square = data[(8, 8)]["breakdown"]
    lat_strips = data[(64, 1)]["breakdown"]
    lon_strips = data[(1, 64)]["breakdown"]

    # The paper's 2-D choice is at least competitive with both 1-D
    # extremes, and clearly beats longitude-only strips (which hand every
    # rank a share of the polar filter rows *and* maximal E-W edges).
    assert square.total <= 1.1 * min(lat_strips.total, lon_strips.total)
    assert square.total < lon_strips.total

    # Latitude strips avoid E-W traffic but concentrate each line's
    # filtering on a single rank; the balanced filter still keeps them
    # usable — the decisive argument in the paper is the *column physics*
    # coupling, which our 2-D model inherits by construction.
    assert lat_strips.filtering >= square.filtering * 0.5
