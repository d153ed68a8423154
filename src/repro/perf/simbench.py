"""The event-engine probe program.

A collective-heavy rank program whose message count is known in closed
form; at the paper's production 240-rank size its all-to-all runs
through the scheduler's bulk executor and its allreduce through the
per-exchange interpreter.  ``bench/`` times it on the host clock
(``python bench/run.py --workload engine_scale`` reports
``parallel.probe240_events_per_s``) and
``tests/parallel/test_engine_frozen.py`` pins what it computes.
"""

from __future__ import annotations

from repro.parallel import collectives as coll

__all__ = ["probe_program"]


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
