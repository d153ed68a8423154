#!/usr/bin/env python
"""The polar-filter showdown: four parallel implementations head-to-head.

Compares the original convolution filter (ring and binary-tree variants)
against the transpose-based FFT filter with and without the generic
row-redistribution load balancer (the paper's core contribution), on one
processor mesh of the virtual Paragon:

* virtual time per application,
* message counts and communication volume (the paper's complexity table),
* how the filtered-line work is distributed over the mesh.

Run:  python examples/filtering_showdown.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    Decomposition,
    FILTER_BACKENDS,
    ProcessorMesh,
    Simulator,
    SphericalGrid,
    balanced_assignment,
    make_filter_plan,
    natural_assignment,
    prepare_filter_backend,
)
from repro.dynamics.state import initial_fields_block
from repro.parallel import PARAGON
from repro.util.tables import Table

GRID = SphericalGrid(nlat=45, nlon=72)  # 4 x 5 degrees
MESH = ProcessorMesh(5, 4)
NLAYERS = 9


def filter_once(backend):
    decomp = Decomposition(GRID.nlat, GRID.nlon, MESH)

    def program(ctx):
        sub = decomp.subdomain(ctx.rank)
        fields = initial_fields_block(
            GRID.lat_rad[sub.lat_slice], GRID.lon_rad[sub.lon_slice], NLAYERS
        )
        yield from ctx.barrier()
        with ctx.region("filter"):
            yield from backend.apply(ctx, fields)
        return None

    return Simulator(MESH.size, PARAGON).run(program)


def main() -> None:
    plan = make_filter_plan(GRID)
    decomp = Decomposition(GRID.nlat, GRID.nlon, MESH)
    print(
        f"Grid {GRID.describe()}, mesh {MESH.describe()}, "
        f"{plan.total_rows} filtered row units "
        f"(strong: poles->45deg on u,v,pt; weak: poles->60deg on ps,q)\n"
    )

    table = Table(
        f"One filter application on the virtual Paragon ({MESH.describe()})",
        ["backend", "time [ms]", "messages", "volume [kB]", "max compute [ms]"],
    )
    for name in FILTER_BACKENDS:
        backend = prepare_filter_backend(name, plan, decomp)
        res = filter_once(backend)
        tr = res.trace
        table.add_row(
            name,
            f"{tr.phase_max('filter') * 1e3:.2f}",
            tr.total_messages(),
            f"{tr.total_bytes() / 1e3:.0f}",
            f"{max(r.compute_time for r in tr.ranks) * 1e3:.2f}",
        )
    print(table.render())

    # Work distribution with and without the balancer (Figures 2-3).
    nat = natural_assignment(plan, decomp)
    bal = balanced_assignment(plan, decomp)
    t2 = Table(
        "Complete lines per rank after the transpose",
        ["assignment", "min", "max", "idle ranks"],
    )
    for label, a in (("natural", nat), ("balanced (eq. 3)", bal)):
        lines = a.lines_per_rank()
        t2.add_row(label, int(lines.min()), int(lines.max()),
                   int((lines == 0).sum()))
    print()
    print(t2.render())
    print(
        f"\nThe balancer moves {bal.rows_moved()} of {plan.total_rows} row "
        "units in stage A, after which every rank FFTs an equal share."
    )


if __name__ == "__main__":
    main()
