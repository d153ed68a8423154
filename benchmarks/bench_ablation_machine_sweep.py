"""Ablation — machine-parameter sensitivity of the paper's conclusions.

Sweeps latency, bandwidth and node speed around the Paragon preset and
re-runs Table 8's filter program at 8 x 8 on every variant, so each cell
is the simulator's exact price, not an estimate.  The robust conclusion:
the FFT+LB filter wins across two orders of magnitude in every single
machine parameter.
"""

from conftest import run_once

from repro.parallel import PARAGON
from repro.reporting.experiments import run_filtering_table, run_table8
from repro.util.tables import Table

MESH = (8, 8)


def sweep():
    table = Table(
        "Ablation — filtering s/day over machine-parameter sweeps "
        "(8 x 8 mesh, Paragon base)",
        ["parameter", "x0.1", "x1", "x10", "winner everywhere?"],
    )
    data = {}
    unscaled = []
    for param in ("latency", "bandwidth", "flop_rate"):
        winners = []
        row = []
        for factor in (0.1, 1.0, 10.0):
            overrides = {param: getattr(PARAGON, param) * factor}
            if param == "latency":
                overrides["overhead"] = min(
                    PARAGON.overhead * factor, overrides["latency"]
                )
            machine = PARAGON.with_overrides(**overrides)
            costs = run_filtering_table(machine, 9, meshes=(MESH,)).data[MESH]
            if factor == 1.0:
                unscaled.append(costs)
            row.append(costs["fft-lb"])
            winners.append(min(costs, key=costs.get))
        table.add_row(
            param, row[0], row[1], row[2],
            "fft-lb" if all(w == "fft-lb" for w in winners) else "varies",
        )
        data[param] = winners
    return table, data, unscaled


def test_machine_sensitivity(benchmark, results_dir):
    table, data, unscaled = run_once(benchmark, sweep)
    (results_dir / "ablation_machine_sweep.txt").write_text(
        table.render() + "\n"
    )
    print("\n" + table.render())

    # The unscaled machine is the Paragon itself: its column is Table 8's
    # 8 x 8 row, to the last bit.
    table8 = run_table8(meshes=(MESH,)).data[MESH]
    for costs in unscaled:
        assert costs == table8

    # The optimised filter wins across two orders of magnitude in every
    # single machine parameter — the paper's conclusion is not an
    # artefact of one calibration point.
    for param, winners in data.items():
        assert all(w == "fft-lb" for w in winners), (param, winners)
