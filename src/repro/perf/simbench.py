"""Event-engine throughput probe.

Times the *host* cost of the virtual machine on a collective-heavy rank
program at the paper's production 240-rank size and reports simulated
communication events per wall-clock second.  An "event" is one message
sent or received; at 240 ranks the all-to-all runs through the
scheduler's bulk executor and the allreduce through the per-exchange
interpreter.

``sim_events_per_second`` is recorded in ``BENCH_agcm.json`` as an
untracked wall-clock number (the gate tracks virtual-time ratios only).

Run directly::

    python -m repro.perf.simbench --ranks 240 --json-out probe.json
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, Optional, Sequence, Tuple

from repro.parallel import collectives as coll
from repro.parallel.machine import GENERIC
from repro.parallel.scheduler import Simulator
from repro.util.validation import check_positive_int

__all__ = ["run_probe", "probe_program", "main"]


def probe_program(ctx, rounds: int):
    """Collective-heavy rank program: alltoall + recursive-doubling rounds.

    Per round every rank exchanges one small chunk with every other rank
    (pairwise all-to-all: ``size - 1`` send/recv pairs each) and then
    folds a scalar through a recursive-doubling allreduce — a closed
    group schedule and a combining one.
    """
    value = float(ctx.rank)
    for _ in range(rounds):
        chunks = [value + d for d in range(ctx.size)]
        received = yield from ctx.alltoall(chunks)
        total = yield from coll.allreduce_recursive_doubling(
            ctx, sum(received)
        )
        value = total / (ctx.size * ctx.size)
    return value


def _timed_run(nranks: int, rounds: int, machine) -> Tuple[float, float]:
    """``(events, host seconds)`` of one run of the probe."""
    t0 = time.perf_counter()
    res = Simulator(nranks, machine).run(probe_program, rounds)
    wall = time.perf_counter() - t0
    events = sum(
        r.messages_sent + r.messages_received for r in res.trace.ranks
    )
    return float(events), wall


def run_probe(
    nranks: int = 240,
    rounds: int = 2,
    machine=None,
) -> Dict[str, float]:
    """Time the probe and return the metric dict.

    Returns ``sim_events_per_second`` with the probe's size
    (``sim_probe_ranks``, ``sim_probe_rounds``, ``sim_probe_events``).
    """
    check_positive_int(nranks, "nranks")
    check_positive_int(rounds, "rounds")
    machine = GENERIC if machine is None else machine

    # Warm first (lazy numpy imports, bytecode caches) so the timed run
    # measures the engine, not process start-up.
    _timed_run(min(nranks, 32), 1, machine)

    events, wall = _timed_run(nranks, rounds, machine)
    return {
        "sim_probe_ranks": float(nranks),
        "sim_probe_rounds": float(rounds),
        "sim_probe_events": events,
        "sim_events_per_second": events / wall,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.simbench",
        description="Event-engine throughput probe.",
    )
    parser.add_argument("--ranks", type=int, default=240)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--json-out", default=None,
                        help="write the metric dict to this JSON file")
    args = parser.parse_args(argv)

    metrics = run_probe(nranks=args.ranks, rounds=args.rounds)
    for key in sorted(metrics):
        print(f"{key:32s} {metrics[key]:.6g}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
