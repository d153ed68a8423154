"""One rank's restartable AGCM state, and the host-I/O cost model.

The disk checkpoint (:mod:`repro.faults.checkpoint`) and the diskless
buddy copy (:mod:`repro.guard.buddy`) both hold one
:class:`RankSnapshot` per rank and differ only in transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.dynamics.state import PROGNOSTIC_NAMES

#: Host-filesystem cost model for the rank-0 funnel: one serial stream
#: at mid-90s striped-disk bandwidth plus a fixed per-operation latency.
#: A disk checkpoint or restart charges this on top of its messages.
IO_BANDWIDTH = 50.0e6  # bytes / virtual second
IO_LATENCY = 5.0e-3    # virtual seconds per file operation


def io_seconds(nbytes: float) -> float:
    """Virtual seconds rank 0 spends writing or reading ``nbytes`` on disk."""
    return IO_LATENCY + nbytes / IO_BANDWIDTH


@dataclass
class RankSnapshot:
    """What a rank needs to continue bit-for-bit from a step boundary:
    both leapfrog levels, the physics forcing, time, step and counters.

    Field order is part of the virtual clock: object payloads are priced
    by their pickle length, a restore scatters ``vars(snap)`` and a disk
    save gathers ``{**snap.arrays(), "counters": ...}``, and this order
    gives both the byte counts of the nested and flat dicts they replaced.
    """

    now: Dict[str, np.ndarray]
    prev: Dict[str, np.ndarray]
    forcing_pt: np.ndarray
    forcing_q: np.ndarray
    time: float
    step: int
    counters: dict

    @property
    def nbytes(self) -> int:
        """Array bytes: the basis of every disk, memcpy and replica charge."""
        return int(sum(a.nbytes for a in self.arrays().values()))

    def arrays(self) -> Dict[str, np.ndarray]:
        """Flat ``now_*``/``prev_*``/``forcing_*`` view of the arrays."""
        out = {f"now_{n}": np.ascontiguousarray(self.now[n])
               for n in PROGNOSTIC_NAMES}
        out.update({f"prev_{n}": np.ascontiguousarray(self.prev[n])
                    for n in PROGNOSTIC_NAMES})
        out["forcing_pt"] = np.ascontiguousarray(self.forcing_pt)
        out["forcing_q"] = np.ascontiguousarray(self.forcing_q)
        return out

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray], *, time: float,
                    step: int, counters: dict) -> "RankSnapshot":
        """Inverse of :meth:`arrays` (extra keys are ignored)."""
        return cls(
            now={n: arrays[f"now_{n}"] for n in PROGNOSTIC_NAMES},
            prev={n: arrays[f"prev_{n}"] for n in PROGNOSTIC_NAMES},
            forcing_pt=arrays["forcing_pt"],
            forcing_q=arrays["forcing_q"],
            time=time, step=step, counters=counters,
        )

    def copy(self) -> "RankSnapshot":
        """Deep copy, so a stored snapshot survives in-place updates."""
        return RankSnapshot.from_arrays(
            {k: a.copy() for k, a in self.arrays().items()},
            time=self.time, step=self.step, counters=dict(self.counters),
        )
