"""Event timelines: what each virtual rank did, when, to whom.

When a :class:`~repro.parallel.scheduler.Simulator` is created with
``record_events=True`` the trace collects one :class:`Event` per
primitive op.  The tools here turn that into the two views performance
analysts actually use:

* :func:`communication_matrix` — bytes sent between every rank pair
  (shows the ring/tree/transpose patterns directly);
* :func:`render_gantt` — a text Gantt chart of compute/send/wait per
  rank (shows the idle gaps that *are* the load imbalance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.parallel.trace import Trace

#: Event kinds recorded by the scheduler.
COMPUTE = "compute"
SEND = "send"
RECV_WAIT = "recv_wait"
RECV = "recv"
BARRIER = "barrier"
#: Transport-layer retransmission of a fault-dropped message.
RETRY = "retry"


@dataclass(frozen=True)
class Event:
    """One primitive operation on one rank's virtual timeline."""

    rank: int
    kind: str
    start: float
    end: float
    peer: int = -1       # destination/source rank for send/recv
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def communication_matrix(trace: Trace) -> np.ndarray:
    """Bytes sent from rank i to rank j, shape (nranks, nranks).

    Requires the trace to have recorded events.
    """
    if trace.events is None:
        raise ValueError("trace has no events; run with record_events=True")
    out = np.zeros((trace.nranks, trace.nranks))
    for ev in trace.events:
        if ev.kind == SEND and ev.peer >= 0:
            out[ev.rank, ev.peer] += ev.nbytes
    return out


def busy_fraction(trace: Trace, elapsed: float) -> np.ndarray:
    """Fraction of the makespan each rank spent computing, (nranks,)."""
    if elapsed <= 0:
        return np.zeros(trace.nranks)
    return np.array([r.compute_time for r in trace.ranks]) / elapsed


def render_gantt(
    trace: Trace,
    elapsed: float,
    width: int = 72,
    ranks: Optional[Sequence[int]] = None,
    t0: float = 0.0,
    t1: Optional[float] = None,
) -> str:
    """A text Gantt chart: '#' compute, '>' send, '.' wait, ':' recv,
    '|' barrier, '!' retry (retransmission), ' ' idle/untraced.

    One row per rank, ``width`` character cells spanning ``[t0, t1]``
    (defaults to the full run).  Later events overwrite earlier ones in a
    cell, so fine structure below the cell width is approximate — this is
    a reading aid, not a profiler.
    """
    if trace.events is None:
        raise ValueError("trace has no events; run with record_events=True")
    if t1 is None:
        t1 = elapsed
    if t1 < t0:
        raise ValueError("empty time window")
    ranks = list(range(trace.nranks)) if ranks is None else list(ranks)
    if t1 == t0:
        # zero-span window (e.g. a run whose programs did nothing, so
        # elapsed == 0): render the frame with idle rows instead of
        # failing, so diagnostics of degenerate runs still print
        lines = [
            f"virtual time {t0:.3g} .. {t1:.3g} s   "
            "(# compute, > send, . wait, : recv, | barrier, ! retry)"
        ]
        for r in ranks:
            lines.append(f"rank {r:4d} |{' ' * width}|")
        return "\n".join(lines)
    span = t1 - t0
    glyph = {COMPUTE: "#", SEND: ">", RECV_WAIT: ".", RECV: ":", BARRIER: "|",
             RETRY: "!"}
    rows = {r: [" "] * width for r in ranks}
    rank_set = set(ranks)
    for ev in trace.events:
        if ev.rank not in rank_set or ev.end < t0 or ev.start > t1:
            continue
        a = int(max(0.0, (ev.start - t0) / span) * (width - 1))
        b = int(min(1.0, (ev.end - t0) / span) * (width - 1))
        ch = glyph.get(ev.kind, "?")
        row = rows[ev.rank]
        for cell in range(a, b + 1):
            row[cell] = ch
    lines = [
        f"virtual time {t0:.3g} .. {t1:.3g} s   "
        "(# compute, > send, . wait, : recv, | barrier, ! retry)"
    ]
    for r in ranks:
        lines.append(f"rank {r:4d} |{''.join(rows[r])}|")
    return "\n".join(lines)
