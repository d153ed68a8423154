"""Column-flow planning for parallel physics load balancing (scheme 3).

Physics columns are independent, so balancing means *moving columns*.
Every rank derives the identical :class:`ColumnFlowPlan` from globally
known inputs (the allgathered load estimates and static column counts),
then executes only its part of it — no negotiation messages.  This is the
"substantial amount of local bookkeeping" the paper attributes to the
scheme, kept cheap by making it a pure deterministic function.

The plan machinery:

* loads are balanced with the sorted pairwise-exchange passes of
  :func:`repro.core.physics_lb.pairwise_pass`;
* a move of ``x`` seconds from a rank holding ``H`` columns translates to
  ``floor(x / load * H)`` columns, taken from the *tail* of the holder's
  ordered working set (columns are assumed locally uniform in cost, the
  paper's own assumption for these schemes);
* every column is tracked as a run ``(origin_rank, start, count)`` so that
  after the physics computation each holder knows exactly which tendency
  slices to return to which origin, and each origin knows exactly what to
  expect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.physics_lb.base import Move, apply_moves
from repro.core.physics_lb.scheme3_pairwise import pairwise_pass


@dataclass(frozen=True)
class Run:
    """A contiguous run of columns originating from one rank."""

    origin: int
    start: int
    count: int


@dataclass(frozen=True)
class PassMove:
    """One executed transfer in one balancing pass."""

    src: int
    dst: int
    runs: Tuple[Run, ...]

    @property
    def ncols(self) -> int:
        return sum(r.count for r in self.runs)


@dataclass
class ColumnFlowPlan:
    """The complete, globally consistent column-movement plan.

    Attributes
    ----------
    passes:
        One list of :class:`PassMove` per balancing pass.
    holdings:
        ``holdings[r]`` — ordered runs rank ``r`` holds after all passes.
    """

    nranks: int
    passes: List[List[PassMove]]
    holdings: List[List[Run]]

    def held_columns(self, rank: int) -> int:
        """Columns rank ``rank`` computes after balancing."""
        return sum(r.count for r in self.holdings[rank])

    def expected_returns(self, rank: int) -> List[Tuple[int, Run]]:
        """(holder, run) pairs whose results rank ``rank`` will receive."""
        out: List[Tuple[int, Run]] = []
        for holder in range(self.nranks):
            if holder == rank:
                continue
            for run in self.holdings[holder]:
                if run.origin == rank:
                    out.append((holder, run))
        return out


def _pop_tail(runs: List[Run], n: int) -> List[Run]:
    """Remove the last ``n`` columns from an ordered run list.

    Returns the removed runs (in held order).  Splits the boundary run if
    necessary.
    """
    taken: List[Run] = []
    remaining = n
    while remaining > 0 and runs:
        last = runs[-1]
        if last.count <= remaining:
            taken.insert(0, last)
            runs.pop()
            remaining -= last.count
        else:
            keep = last.count - remaining
            runs[-1] = Run(last.origin, last.start, keep)
            taken.insert(0, Run(last.origin, last.start + keep, remaining))
            remaining = 0
    if remaining > 0:
        raise ValueError(f"cannot pop {n} columns, only had {n - remaining}")
    return taken


def _count_tail_by_cost(
    runs: List[Run],
    target: float,
    column_costs: Sequence[np.ndarray],
    max_take: int,
) -> int:
    """Columns to pop from the tail so their cost sums to ``target``.

    Walks the held columns from the tail accumulating their *measured*
    costs — the cost-aware refinement of the uniform-cost assumption:
    when the tail happens to hold cheap (e.g. night-side) columns, more
    of them move.
    """
    taken = 0
    acc = 0.0
    for run in reversed(runs):
        costs = column_costs[run.origin][run.start : run.start + run.count]
        for ccost in costs[::-1]:
            if acc >= target or taken >= max_take:
                return taken
            acc += float(ccost)
            taken += 1
    return taken


def plan_column_flow(
    loads: Sequence[float],
    ncols: Sequence[int],
    max_passes: int = 2,
    pair_tolerance: float = 0.0,
    integer_amounts: bool = False,
    initial_holdings: Optional[List[List[Run]]] = None,
    column_costs: Optional[Sequence[np.ndarray]] = None,
) -> ColumnFlowPlan:
    """Derive the column-movement plan from load estimates.

    Parameters
    ----------
    loads:
        Estimated per-rank physics loads [virtual seconds] — typically the
        measured previous pass.
    ncols:
        Static per-rank column counts.
    max_passes:
        Pairwise-exchange passes (paper uses 2).
    pair_tolerance:
        Minimum per-pair load difference worth exchanging [seconds].
    integer_amounts:
        Floor each pairwise transfer to an integer load unit — the
        paper's "an integer weight is assigned to each local load"
        convention (pass pre-quantised loads for this to be meaningful).
    initial_holdings:
        Resume from a previous plan's holdings instead of the identity
        layout — used when balancing passes interleave with fresh load
        measurements ("the load sorting and pairwise data exchange can be
        repeated", Section 3.4).
    column_costs:
        Optional per-origin arrays of per-column costs *in the same units
        as* ``loads``.  When given, a transfer pops tail columns until
        their measured costs cover the transfer amount, instead of
        assuming columns are uniformly expensive.
    """
    loads = np.asarray(loads, dtype=float)
    ncols = [int(c) for c in ncols]
    p = loads.size
    if len(ncols) != p:
        raise ValueError("loads and ncols must have equal length")
    if initial_holdings is None:
        holdings: List[List[Run]] = [[Run(r, 0, ncols[r])] for r in range(p)]
    else:
        if len(initial_holdings) != p:
            raise ValueError("initial_holdings must have one entry per rank")
        holdings = [list(runs) for runs in initial_holdings]
    current = loads.copy()
    passes: List[List[PassMove]] = []
    for _ in range(max_passes):
        moves = pairwise_pass(
            current,
            pair_tolerance=pair_tolerance,
            integer_amounts=integer_amounts,
        )
        executed: List[PassMove] = []
        applied = []
        for m in moves:
            held = sum(r.count for r in holdings[m.src])
            if held <= 1 or current[m.src] <= 0:
                continue
            if column_costs is not None:
                n = _count_tail_by_cost(
                    holdings[m.src], m.amount, column_costs, held - 1
                )
            else:
                frac = m.amount / current[m.src]
                n = min(int(frac * held), held - 1)
            if n <= 0:
                continue
            runs = tuple(_pop_tail(holdings[m.src], n))
            holdings[m.dst].extend(runs)
            executed.append(PassMove(m.src, m.dst, runs))
            # Account the *quantised* load actually moved, so the next
            # pass plans against what really happened.
            applied.append(Move(m.src, m.dst, current[m.src] * n / held))
        if not executed:
            break
        passes.append(executed)
        current = apply_moves(current, applied)
    return ColumnFlowPlan(nranks=p, passes=passes, holdings=holdings)
