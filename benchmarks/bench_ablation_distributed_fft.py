"""Ablation — the Section-3.2 decision: distributed 1-D FFT vs transpose.

The paper: "the approach using the parallel one dimensional FFT requires
[fewer] messages but exchanges larger amounts of data than the second
approach.  We chose to implement the second approach [transpose + local
FFT] ... for the relative simplicity of implementing the data transpose
and the possibility of using highly efficient (sometimes vendor provided)
FFT library codes on whole latitudinal data lines."

This bench runs both for real on a power-of-two grid and checks the
claimed trade-off, plus the vector-length argument: the transpose
variant's FFT compute happens at full line length, the distributed
variant's at the short local block length (which the vector-startup
machine model penalises).
"""

from conftest import run_once

from repro.core import make_filter_plan, prepare_filter_backend
from repro.dynamics.state import initial_fields_block
from repro.grid import Decomposition, SphericalGrid
from repro.parallel import PARAGON, ProcessorMesh, Simulator
from repro.util.tables import Table

GRID = SphericalGrid(nlat=32, nlon=128)  # power-of-two lines
NLAYERS = 9


def _run(backend_name, row_width):
    mesh = ProcessorMesh(4, row_width)
    decomp = Decomposition(GRID.nlat, GRID.nlon, mesh)
    plan = make_filter_plan(GRID)
    backend = prepare_filter_backend(backend_name, plan, decomp)

    def program(ctx):
        sub = decomp.subdomain(ctx.rank)
        fields = initial_fields_block(
            GRID.lat_rad[sub.lat_slice], GRID.lon_rad[sub.lon_slice], NLAYERS
        )
        yield from ctx.barrier()
        with ctx.region("filter"):
            yield from backend.apply(ctx, fields)

    res = Simulator(mesh.size, PARAGON).run(program)
    tr = res.trace
    return {
        "time": tr.phase_max("filter"),
        "messages": tr.total_messages(),
        "bytes": tr.total_bytes(),
    }


def sweep():
    table = Table(
        "Ablation — distributed 1-D FFT vs transpose + local FFT "
        "(4 x W mesh, 128-point lines, Paragon)",
        ["row width", "variant", "time [ms]", "messages", "volume [kB]"],
    )
    data = {}
    for width in (4, 8, 16):
        for name in ("fft", "fft-distributed"):
            r = _run(name, width)
            table.add_row(
                width, name, f"{r['time'] * 1e3:.2f}", r["messages"],
                f"{r['bytes'] / 1e3:.0f}",
            )
            data[(name, width)] = r
    return table, data


def test_distributed_fft_tradeoff(benchmark, results_dir):
    table, data = run_once(benchmark, sweep)
    (results_dir / "ablation_distributed_fft.txt").write_text(
        table.render() + "\n"
    )
    print("\n" + table.render())

    for width in (4, 8, 16):
        dist = data[("fft-distributed", width)]
        tr = data[("fft", width)]
        # The paper's complexity claim: fewer messages, more data.
        assert dist["messages"] < tr["messages"], width
        assert dist["bytes"] > tr["bytes"], width
    # And the paper's conclusion holds on its machine model: the
    # transpose + whole-line FFT is at least competitive at scale
    # (short-vector butterflies hurt the distributed variant).
    assert (
        data[("fft", 16)]["time"] < 1.5 * data[("fft-distributed", 16)]["time"]
    )
