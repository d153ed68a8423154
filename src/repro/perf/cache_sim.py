"""Set-associative LRU data-cache simulator.

The paper's Section 3.4 cache experiments (block array vs separate arrays
for a 7-point Laplace stencil over several fields) are pure locality
effects, so they reproduce exactly on a trace-driven cache model: feed the
simulator the *actual address stream* of a loop nest and count misses.
Machine presets supply the mid-90s cache geometries (Paragon i860: 16 KB
4-way; T3D Alpha 21064: 8 KB direct-mapped; both 32-byte lines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from repro.parallel.machine import MachineModel


@dataclass
class CacheStats:
    """Outcome of one simulation: accesses, hits, misses."""

    accesses: int
    misses: int

    @property
    def hits(self) -> int:
        return self.accesses - self.misses


class CacheSim:
    """A set-associative LRU cache over byte addresses.

    Parameters
    ----------
    size, line, assoc:
        Capacity [bytes], line size [bytes], associativity [ways].
    """

    def __init__(self, size: int, line: int, assoc: int):
        if size <= 0 or line <= 0 or assoc <= 0:
            raise ValueError("cache parameters must be positive")
        if size % (line * assoc) != 0:
            raise ValueError("size must be a multiple of line * assoc")
        self.size = size
        self.line = line
        self.assoc = assoc
        self.nsets = size // (line * assoc)
        self.reset()

    @classmethod
    def for_machine(cls, machine: MachineModel) -> "CacheSim":
        """A simulator with the machine preset's data-cache geometry."""
        return cls(machine.cache_size, machine.cache_line, machine.cache_assoc)

    def reset(self) -> None:
        """Empty the cache (between experiments)."""
        # One insertion-ordered dict per set: keys are line tags in LRU
        # order (oldest first); Python dicts give O(1) move-to-back.
        self._sets = [dict() for _ in range(self.nsets)]

    # ------------------------------------------------------------------
    def access(self, address: int) -> bool:
        """Touch one byte address; returns True on a hit."""
        line_id = address // self.line
        s = self._sets[line_id % self.nsets]
        if line_id in s:
            del s[line_id]   # refresh LRU position
            s[line_id] = True
            return True
        if len(s) >= self.assoc:
            # Evict the least-recently-used line (first key).
            s.pop(next(iter(s)))
        s[line_id] = True
        return False

    def simulate(self, addresses: Iterable[int]) -> CacheStats:
        """Run a full address stream; returns aggregate statistics.

        The stream may be any iterable of byte addresses (numpy arrays are
        fastest).
        """
        line = self.line
        nsets = self.nsets
        sets = self._sets
        assoc = self.assoc
        misses = 0
        count = 0
        if isinstance(addresses, np.ndarray):
            addresses = (addresses // line).tolist()
            pre_divided = True
        else:
            pre_divided = False
        for a in addresses:
            line_id = a if pre_divided else a // line
            s = sets[line_id % nsets]
            if line_id in s:
                del s[line_id]
                s[line_id] = True
            else:
                misses += 1
                if len(s) >= assoc:
                    s.pop(next(iter(s)))
                s[line_id] = True
            count += 1
        return CacheStats(accesses=count, misses=misses)


def miss_time(stats: CacheStats, machine: MachineModel) -> float:
    """Memory-stall seconds implied by a simulation on a machine."""
    return stats.misses * machine.cache_miss_penalty


def loop_time(
    stats: CacheStats, flops: float, machine: MachineModel
) -> float:
    """Predicted single-node time of a loop: arithmetic + cache stalls.

    The paper's single-node model: execution time is the flop time plus
    the miss penalty; layout changes shift only the second term.
    """
    return flops / machine.flop_rate + miss_time(stats, machine)
