"""Execution traces and per-rank accounting for the virtual machine.

The paper's analysis revolves around three quantities: compute time,
communication time (send/receive busy time plus blocking waits), and the
message/volume counts of each algorithm.  :class:`Trace` accumulates all
of them per rank and per named *phase* so that Figure-1-style component
breakdowns and the Tables 8-11 filtering comparisons fall straight out of
a simulation run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class RankAccounting:
    """Accumulated per-rank statistics (all times in virtual seconds)."""

    compute_time: float = 0.0
    send_busy_time: float = 0.0
    recv_busy_time: float = 0.0
    recv_wait_time: float = 0.0
    barrier_wait_time: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    # Fault-injection accounting (zero on a perfect machine).  Each failed
    # delivery attempt counts once as dropped and once as retransmitted;
    # the conservation identity is sent + retransmitted == received +
    # dropped (see repro.verify.invariants.check_bytes_conservation).
    messages_dropped: int = 0
    bytes_dropped: int = 0
    messages_retransmitted: int = 0
    bytes_retransmitted: int = 0


class Trace:
    """Collects per-rank and per-phase accounting during a simulation.

    Phases are named regions opened/closed by the rank program (see
    ``VirtualComm.region``).  Phase buckets record the *elapsed virtual
    time* each rank spent inside the region, which includes waiting — that
    is exactly the quantity the paper's per-component timings report.
    """

    def __init__(self, nranks: int, record_events: bool = False):
        self.nranks = nranks
        #: Optional list of timeline events (see repro.parallel.timeline);
        #: None unless event recording was requested.
        self.events = [] if record_events else None
        self.ranks: List[RankAccounting] = [RankAccounting() for _ in range(nranks)]
        # phase -> rank -> elapsed seconds
        self.phase_elapsed: Dict[str, List[float]] = defaultdict(
            lambda: [0.0] * nranks
        )
        self._open_regions: List[List[Tuple[str, float]]] = [
            [] for _ in range(nranks)
        ]

    # -- region bookkeeping -------------------------------------------------
    def open_region(self, rank: int, name: str, clock: float) -> None:
        """Mark the start of phase ``name`` on ``rank`` at virtual ``clock``."""
        self._open_regions[rank].append((name, clock))

    def close_region(self, rank: int, name: str, clock: float) -> None:
        """Mark the end of phase ``name``; elapsed time is accumulated."""
        if not self._open_regions[rank]:
            raise RuntimeError(f"rank {rank}: closing region {name!r} with none open")
        open_name, start = self._open_regions[rank].pop()
        if open_name != name:
            raise RuntimeError(
                f"rank {rank}: region mismatch, opened {open_name!r} closed {name!r}"
            )
        self.phase_elapsed[name][rank] += clock - start

    def add_phase_time(self, name: str, rank: int, seconds: float) -> None:
        """Credit ``seconds`` to phase ``name`` outside any open region.

        Used by the scheduler for machine-side activity that no rank
        program wraps in a region — e.g. the ``"retry"`` phase of
        fault-injected retransmissions.
        """
        self.phase_elapsed[name][rank] += seconds

    # -- aggregate views ----------------------------------------------------
    def phase_max(self, name: str) -> float:
        """Maximum elapsed time over ranks for a phase (the parallel cost)."""
        if name not in self.phase_elapsed:
            raise KeyError(f"unknown phase {name!r}; have {sorted(self.phase_elapsed)}")
        return max(self.phase_elapsed[name])

    def phases(self) -> List[str]:
        """Names of all recorded phases."""
        return sorted(self.phase_elapsed)

    def total_messages(self) -> int:
        """Total point-to-point messages sent across all ranks."""
        return sum(r.messages_sent for r in self.ranks)

    def total_bytes(self) -> int:
        """Total payload bytes sent across all ranks."""
        return sum(r.bytes_sent for r in self.ranks)


@dataclass
class SimResult:
    """Result of a simulation run.

    Attributes
    ----------
    elapsed:
        Virtual makespan: max over ranks of their final clocks [s].
    clocks:
        Final virtual clock of every rank [s].
    returns:
        The Python return value of every rank program.
    trace:
        The :class:`Trace` with per-rank/per-phase accounting.
    """

    elapsed: float
    clocks: List[float]
    returns: List[object]
    trace: Trace

    def value(self, rank: int = 0) -> object:
        """Convenience accessor for one rank's return value."""
        return self.returns[rank]
