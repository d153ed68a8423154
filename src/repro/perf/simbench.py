"""Event-engine throughput probe: batched vs legacy scheduler paths.

Times the *host* cost of the virtual machine on a collective-heavy rank
program at the paper's production 240-rank size, comparing

* the default batched engine (``Exchange`` ops + cohort dispatch)
  against
* the legacy per-message engine (``repro.parallel.legacy_engine()``),

and reports simulated communication events per wall-clock second.  An
"event" is one message sent or received — the unit the per-message loop
path pays a full generator round-trip plus a heap push/pop for, and the
batched path amortises across a whole exchange schedule.

The headline ``sim_event_engine_speedup`` metric is recorded in
``BENCH_agcm.json`` and floored by ``tools/bench_gate.py`` (PR 8
acceptance: >= 3x on the 240-rank probe).

Run directly::

    python -m repro.perf.simbench --ranks 240 --json-out probe.json
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, Optional, Sequence

from repro.parallel import collectives as coll
from repro.parallel import engine as _engine
from repro.parallel.machine import GENERIC
from repro.parallel.scheduler import Simulator
from repro.util.validation import check_positive_int

__all__ = ["run_probe", "probe_program", "main"]


def probe_program(ctx, rounds: int):
    """Collective-heavy rank program: alltoall + recursive-doubling rounds.

    Per round every rank exchanges one small chunk with every other rank
    (pairwise all-to-all: ``size - 1`` send/recv pairs each) and then
    folds a scalar through a recursive-doubling allreduce — the two
    schedules the batched engine vectorizes hardest.
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


def _timed_run(nranks: int, rounds: int, machine) -> Dict[str, float]:
    t0 = time.perf_counter()
    res = Simulator(nranks, machine).run(probe_program, rounds)
    wall = time.perf_counter() - t0
    events = sum(
        r.messages_sent + r.messages_received for r in res.trace.ranks
    )
    return {
        "wall_seconds": wall,
        "events": float(events),
        "virtual_elapsed": res.elapsed,
    }


def run_probe(
    nranks: int = 240,
    rounds: int = 2,
    machine=None,
    include_loop: bool = True,
) -> Dict[str, float]:
    """Measure both engine paths and return the metric dict.

    Returns ``sim_events_per_second`` (the default engine),
    ``sim_events_per_second_loop`` (``legacy_engine()``) and their ratio
    ``sim_event_engine_speedup`` — one change measured.  Also asserts
    the two paths agree on the virtual makespan — a cheap canary for
    the bit-identity contract the differential pairs check exhaustively.
    """
    check_positive_int(nranks, "nranks")
    check_positive_int(rounds, "rounds")
    machine = GENERIC if machine is None else machine

    # Warm both paths first (lazy numpy imports, bytecode caches) so the
    # timed runs measure the engines, not process start-up.
    _timed_run(min(nranks, 32), 1, machine)
    with _engine.legacy_engine():
        _timed_run(min(nranks, 32), 1, machine)

    fast = _timed_run(nranks, rounds, machine)
    metrics: Dict[str, float] = {
        "sim_probe_ranks": float(nranks),
        "sim_probe_rounds": float(rounds),
        "sim_probe_events": fast["events"],
        "sim_events_per_second": fast["events"] / fast["wall_seconds"],
    }
    if include_loop:
        with _engine.legacy_engine():
            loop = _timed_run(nranks, rounds, machine)
        if loop["virtual_elapsed"] != fast["virtual_elapsed"]:
            raise AssertionError(
                "engine paths disagree on virtual time: batched="
                f"{fast['virtual_elapsed']!r} loop={loop['virtual_elapsed']!r}"
            )
        metrics["sim_events_per_second_loop"] = (
            loop["events"] / loop["wall_seconds"]
        )
        metrics["sim_event_engine_speedup"] = (
            metrics["sim_events_per_second"]
            / metrics["sim_events_per_second_loop"]
        )
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.simbench",
        description="Event-engine throughput probe (batched vs legacy).",
    )
    parser.add_argument("--ranks", type=int, default=240)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--no-loop", action="store_true",
                        help="skip the legacy-engine reference run")
    parser.add_argument("--json-out", default=None,
                        help="write the metric dict to this JSON file")
    args = parser.parse_args(argv)

    metrics = run_probe(
        nranks=args.ranks, rounds=args.rounds,
        include_loop=not args.no_loop,
    )
    for key in sorted(metrics):
        print(f"{key:32s} {metrics[key]:.6g}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
