"""Ablation — the four filter parallelisations vs the paper's complexity table.

Section 3.1-3.2 compares the variants by message count and transferred
volume (N = points per line, P = processors per row):

=====================  ============  ======================
variant                messages      data volume
=====================  ============  ======================
convolution, ring      ~P per rank   O(N P) per row
convolution, tree      O(2 P)        O(N P + N log P)
transpose + local FFT  O(P^2)        O(N) per line
=====================  ============  ======================

This bench measures the *emergent* counts from the simulator across row
widths and asserts the scaling relations the paper's table claims.
"""

import numpy as np
from conftest import run_once

from repro.core import make_filter_plan, prepare_filter_backend
from repro.dynamics.state import initial_fields_block
from repro.grid import Decomposition, SphericalGrid
from repro.parallel import PARAGON, ProcessorMesh, Simulator
from repro.util.tables import Table

NLAYERS = 6
GRID = SphericalGrid(24, 48)


def _run(backend_name, ncols):
    mesh = ProcessorMesh(2, ncols)
    decomp = Decomposition(GRID.nlat, GRID.nlon, mesh)
    plan = make_filter_plan(GRID)
    backend = prepare_filter_backend(backend_name, plan, decomp)

    def program(ctx):
        sub = decomp.subdomain(ctx.rank)
        fields = initial_fields_block(
            GRID.lat_rad[sub.lat_slice], GRID.lon_rad[sub.lon_slice], NLAYERS
        )
        yield from backend.apply(ctx, fields)

    res = Simulator(mesh.size, PARAGON).run(program)
    return res.trace.total_messages(), res.trace.total_bytes(), res.elapsed


def sweep():
    table = Table(
        "Ablation — filter variant communication vs row width (2 x N mesh)",
        ["variant", "N=2", "N=4", "N=8", "metric"],
    )
    data = {}
    widths = (2, 4, 8)
    for name in ("convolution-ring", "convolution-tree", "fft", "fft-lb"):
        msgs, vols = [], []
        for n in widths:
            m, v, _ = _run(name, n)
            msgs.append(m)
            vols.append(v)
        table.add_row(name, msgs[0], msgs[1], msgs[2], "messages")
        table.add_row(name, vols[0] // 1000, vols[1] // 1000,
                      vols[2] // 1000, "volume kB")
        data[name] = {"messages": msgs, "volumes": vols, "widths": widths}
    return table, data


def test_filter_variant_scaling(benchmark, results_dir):
    table, data = run_once(benchmark, sweep)
    (results_dir / "ablation_filter_variants.txt").write_text(
        table.render() + "\n"
    )
    print("\n" + table.render())

    ring = data["convolution-ring"]
    tree = data["convolution-tree"]
    fft = data["fft"]

    # Ring messages grow ~quadratically with row width (P ranks x P-1
    # rounds per active row); tree messages grow linearly.
    ring_growth = ring["messages"][2] / ring["messages"][0]
    tree_growth = tree["messages"][2] / tree["messages"][0]
    assert ring_growth > 1.8 * tree_growth

    # Ring volume grows with P (every segment travels the whole ring);
    # the transpose's volume is essentially width-independent.
    assert ring["volumes"][2] > 2.5 * ring["volumes"][0]
    assert fft["volumes"][2] < 2.0 * fft["volumes"][0]

    # Tree moves more data than the transpose (O(NP) vs O(N)).
    assert tree["volumes"][2] > fft["volumes"][2]
