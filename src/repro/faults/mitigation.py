"""Straggler mitigation: scheme-3 balancing driven by *measured* times.

The paper's scheme-3 pairwise exchange balances physics using workload
estimates.  Against an injected straggler (a rank whose compute runs
2x slower) any static estimate is wrong — the imbalance is a property of
the *machine*, not the workload.  The fix, following the dynamic
redistribution literature, is to feed the balancer measured per-rank
virtual times from the previous physics pass.

Two subtleties make the naive approach fail:

* The previously measured quantity (elapsed region time) includes the
  allgather *wait*, which equalises apparent loads — fast ranks wait for
  the straggler, so everyone appears equally loaded and nothing moves.
  :class:`LoadMeasurement` therefore records compute-only seconds.
* Measuring *after* columns have moved and re-planning from identity
  holdings oscillates.  :func:`estimate_rank_loads` instead derives each
  rank's per-column *rate* (seconds per held column — slowdown included,
  movement independent) and projects it onto the columns the rank owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class LoadMeasurement:
    """One rank's measured physics pass: compute-only, wait-free.

    ``compute_seconds`` covers the columns the rank actually *held*
    (after any balancing moves); ``own_columns`` is its static share.
    The pair gives a per-column rate valid regardless of how columns
    were distributed when the measurement was taken.
    """

    compute_seconds: float
    held_columns: int
    own_columns: int

    def as_tuple(self) -> Tuple[float, int, int]:
        """Compact wire form for allgather (8 bytes per field)."""
        return (self.compute_seconds, self.held_columns, self.own_columns)

    @classmethod
    def from_tuple(cls, t: Sequence[float]) -> "LoadMeasurement":
        return cls(float(t[0]), int(t[1]), int(t[2]))


def estimate_rank_loads(
    measurements: Sequence[LoadMeasurement],
) -> np.ndarray:
    """Project measured per-column rates onto owned columns.

    ``load[r] = rate[r] * own_columns[r]`` where ``rate[r] =
    compute_seconds / held_columns``.  Ranks with no measurement signal
    (zero held columns or zero time) fall back to the mean rate of the
    others, so a rank that shipped away everything last pass still gets
    a sane estimate.  Identical inputs yield identical outputs on every
    rank — the planner stays SPMD-consistent.
    """
    rates: List[Optional[float]] = []
    for m in measurements:
        if m.held_columns > 0 and m.compute_seconds > 0:
            rates.append(m.compute_seconds / m.held_columns)
        else:
            rates.append(None)
    known = [r for r in rates if r is not None]
    fallback = float(np.mean(known)) if known else 1.0
    return np.array(
        [
            (r if r is not None else fallback) * m.own_columns
            for r, m in zip(rates, measurements)
        ]
    )


def physics_imbalance(steady_seconds: Sequence[float]) -> float:
    """Paper-style ``(max - mean) / mean`` over per-rank physics seconds."""
    arr = np.asarray(steady_seconds, dtype=float)
    if arr.size == 0:
        return 0.0
    mean = float(arr.mean())
    if mean == 0:
        return 0.0
    return float((arr.max() - mean) / mean)


def run_straggler_demo(
    mitigate: bool,
    slowdown: float = 2.0,
    machine=None,
    preset: str = "tiny",
    dims: Tuple[int, int] = (2, 2),
    nsteps: int = 12,
    physics_every: int = 2,
    straggler: int = 0,
    seed: int = 0,
):
    """Run the AGCM with one ``slowdown``x straggler, with/without the
    measured-time-driven balancer; returns the imbalance and timings.

    The reported ``imbalance`` is over steady-state physics compute
    seconds — every call after the first, i.e. the calls where the
    balancer has a measurement to act on.
    """
    from repro.faults.plan import FaultPlan, SlowdownWindow
    from repro.grid import Decomposition
    from repro.model.config import make_config
    from repro.model.parallel_agcm import agcm_rank_program
    from repro.parallel import ProcessorMesh, Simulator, T3D

    if machine is None:
        machine = T3D
    cfg = make_config(preset).with_(
        physics_lb=mitigate, physics_every=physics_every
    )
    mesh = ProcessorMesh(*dims)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    plan = FaultPlan(
        seed=seed,
        slowdowns=(SlowdownWindow(straggler, 0.0, math.inf, slowdown),),
    )
    res = Simulator(mesh.size, machine, faults=plan).run(
        agcm_rank_program, cfg, decomp, nsteps
    )
    steady = [r["phys_compute_steady"] for r in res.returns]
    return {
        "mitigate": mitigate,
        "imbalance": physics_imbalance(steady),
        "steady_seconds": steady,
        "columns_moved": sum(r["columns_moved"] for r in res.returns),
        "elapsed": res.elapsed,
        "result": res,
    }

