"""Machine cost models for the virtual parallel computer.

The paper's measurements were taken on three mid-1990s distributed-memory
machines: the Intel Paragon (i860 XP nodes, NX message passing), the Cray
T3D (DEC Alpha 21064 nodes) and the IBM SP-2 (POWER2 nodes).  None of these
exist anymore, so this package replaces the hardware with an explicit cost
model: a :class:`MachineModel` carries the handful of parameters that the
paper's analysis actually depends on —

* point-to-point message cost  ``alpha + nbytes / bandwidth``  (postal /
  LogGP-style, contention free),
* an effective floating-point rate for well-vectorised inner loops,
* a streaming memory bandwidth that bounds memory-traffic dominated loops,
* data-cache geometry and a per-miss penalty for the single-node layout
  experiments of Section 3.4.

The preset parameters are drawn from published characterisations of the
era (peak vs sustained Mflop/s, NX/T3D latency and bandwidth measurements)
and then lightly calibrated so that the *ratios* the paper reports hold:
the T3D runs the AGCM about 2.5x faster than the Paragon at equal node
count, and the Paragon suffers relatively more from cache misses.
Absolute virtual seconds are not meant to match 1996 wall clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

import numpy as np


@dataclass(frozen=True)
class MachineModel:
    """Parameters of one node + interconnect of a distributed-memory machine.

    Attributes
    ----------
    name:
        Human-readable machine name (``"paragon"``, ``"t3d"``, ...).
    latency:
        One-way small-message latency [s] (the postal ``alpha``).
    bandwidth:
        Sustained point-to-point bandwidth [bytes/s] (``1/beta``).
    overhead:
        CPU time a rank is busy per message send or receive [s]; the
        remaining ``latency - overhead`` is wire/router time that overlaps
        with computation on the endpoints.
    flop_rate:
        Effective flop/s for cache-friendly numerical loops.
    mem_bandwidth:
        Streaming memory bandwidth [bytes/s]; loops are charged
        ``max(flops / flop_rate, bytes / mem_bandwidth)``.
    cache_size, cache_line, cache_assoc:
        Data-cache geometry [bytes, bytes, ways] for the cache simulator.
    cache_miss_penalty:
        Time per data-cache miss [s].
    vector_startup:
        Pipeline/loop-startup length [elements]: a loop whose inner
        dimension is ``L`` runs at ``L / (L + vector_startup)`` of the
        effective flop rate.  This mid-90s performance characteristic is
        why the paper computes FFTs on *whole* latitude lines and why the
        finite differences lose efficiency on small subdomain blocks.
    """

    name: str
    latency: float
    bandwidth: float
    overhead: float
    flop_rate: float
    mem_bandwidth: float
    cache_size: int
    cache_line: int
    cache_assoc: int
    cache_miss_penalty: float
    vector_startup: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0:
            raise ValueError("latency must be >= 0 and bandwidth > 0")
        if not 0 <= self.overhead <= self.latency:
            raise ValueError("overhead must satisfy 0 <= overhead <= latency")
        if self.flop_rate <= 0 or self.mem_bandwidth <= 0:
            raise ValueError("flop_rate and mem_bandwidth must be positive")
        if self.cache_size <= 0 or self.cache_line <= 0 or self.cache_assoc <= 0:
            raise ValueError("cache geometry must be positive")
        if self.cache_size % (self.cache_line * self.cache_assoc) != 0:
            raise ValueError(
                "cache_size must be a multiple of cache_line * cache_assoc"
            )

    # ------------------------------------------------------------------
    # cost primitives
    # ------------------------------------------------------------------
    def message_time(self, nbytes: int) -> float:
        """End-to-end time [s] for one point-to-point message of ``nbytes``."""
        return self.latency + nbytes / self.bandwidth

    def send_busy_time(self, nbytes: int) -> float:
        """CPU time [s] the *sender* is occupied injecting a message."""
        return self.overhead + nbytes / self.bandwidth

    def batch_message_costs(self, nbytes) -> "tuple[np.ndarray, np.ndarray]":
        """:meth:`send_busy_time` and :meth:`message_time` of a block of
        messages, as float64 arrays shaped like ``nbytes``.

        Element for element these are the same IEEE operations — divide,
        then add — so pricing a whole collective's rounds in one NumPy
        pass is bit-identical to pricing message by message.
        """
        per_byte = np.asarray(nbytes, dtype=np.float64) / self.bandwidth
        return self.overhead + per_byte, self.latency + per_byte

    def recv_busy_time(self, nbytes: int) -> float:
        """CPU time [s] the *receiver* is occupied draining a message."""
        return self.overhead

    def compute_time(
        self, flops: float, mem_bytes: float = 0.0,
        inner_length: float | None = None,
    ) -> float:
        """Time [s] to execute a loop of ``flops`` touching ``mem_bytes``.

        The roofline-style ``max`` captures whether the loop is compute or
        memory-bandwidth bound.  ``inner_length`` (if given) applies the
        vector-startup degradation.  Both statements of it are the same
        model: the effective rate drops to ``flop_rate * L / (L +
        vector_startup)`` (the attribute's phrasing), equivalently the
        compute-bound time grows by the factor ``(L + vector_startup) /
        L`` — e.g. ``L == vector_startup`` charges exactly twice the
        asymptotic time.  The startup penalty applies to the flop term
        only, never to the memory-bandwidth bound.
        """
        if flops < 0 or mem_bytes < 0:
            raise ValueError("flops and mem_bytes must be non-negative")
        rate = self.flop_rate
        if inner_length is not None:
            if inner_length <= 0:
                raise ValueError("inner_length must be positive")
            rate = rate * inner_length / (inner_length + self.vector_startup)
        return max(flops / rate, mem_bytes / self.mem_bandwidth)

    def with_overrides(self, **kwargs: float) -> "MachineModel":
        """Return a copy with some parameters replaced (for sweeps)."""
        return replace(self, **kwargs)


# ----------------------------------------------------------------------
# Presets.
#
# Paragon: i860 XP at 50 MHz (75 Mflop/s peak double precision); sustained
# rates for Fortran finite-difference code were typically 5-10 Mflop/s.
# NX latency was ~70 us with ~70 MB/s realisable bandwidth; 16 KB 4-way
# data cache with 32-byte lines and a heavy miss penalty relative to its
# flop rate.
#
# T3D: Alpha 21064 at 150 MHz (150 Mflop/s peak); sustained ~15-25 Mflop/s.
# The T3D torus delivered a few microseconds of latency via shmem and
# tens of microseconds through portable layers; we model the portable
# path the AGCM used.  8 KB direct-mapped data cache, 32-byte lines; the
# on-node DRAM was fast relative to the small cache, so the *relative*
# miss penalty is lower than the Paragon's (this is what makes the paper's
# block-array speedup 5x on Paragon but only 2.6x on T3D).
#
# SP-2: POWER2 nodes (~55 Mflop/s sustained); high-latency switch.
# ----------------------------------------------------------------------

PARAGON = MachineModel(
    name="paragon",
    latency=70e-6,
    bandwidth=70e6,
    overhead=25e-6,
    flop_rate=6.0e6,
    mem_bandwidth=60e6,
    cache_size=16 * 1024,
    cache_line=32,
    cache_assoc=4,
    cache_miss_penalty=3.5e-6,
    vector_startup=8.0,
)

T3D = MachineModel(
    name="t3d",
    latency=25e-6,
    bandwidth=120e6,
    overhead=8e-6,
    flop_rate=15.0e6,
    mem_bandwidth=200e6,
    cache_size=8 * 1024,
    cache_line=32,
    cache_assoc=1,
    cache_miss_penalty=0.9e-6,
    vector_startup=8.0,
)

SP2 = MachineModel(
    name="sp2",
    latency=45e-6,
    bandwidth=35e6,
    overhead=18e-6,
    flop_rate=25.0e6,
    mem_bandwidth=250e6,
    cache_size=64 * 1024,
    cache_line=64,
    cache_assoc=4,
    cache_miss_penalty=0.3e-6,
    vector_startup=6.0,
)

#: A generic contemporary-ish machine for examples and tests.
GENERIC = MachineModel(
    name="generic",
    latency=5e-6,
    bandwidth=1e9,
    overhead=1e-6,
    flop_rate=1e9,
    mem_bandwidth=10e9,
    cache_size=32 * 1024,
    cache_line=64,
    cache_assoc=8,
    cache_miss_penalty=0.1e-6,
)

_PRESETS: Dict[str, MachineModel] = {
    m.name: m for m in (PARAGON, T3D, SP2, GENERIC)
}


def make_machine(name: str) -> MachineModel:
    """Look up a preset machine model by name (case-insensitive).

    >>> make_machine("t3d").name
    't3d'
    """
    key = name.lower()
    if key not in _PRESETS:
        raise KeyError(
            f"unknown machine {name!r}; available: {available_machines()}"
        )
    return _PRESETS[key]


def available_machines() -> list[str]:
    """Names of all preset machine models."""
    return sorted(_PRESETS)
