"""Seeded, fully deterministic fault plans for the virtual machine.

A :class:`FaultPlan` decides *in advance* — as a pure function of a seed
and the plan's contents — everything the machine will do wrong during a
run:

* **Slowdowns**: per-rank time windows during which every ``Compute``
  op runs ``factor`` times slower (a straggling node).
* **Link faults**: per-link (or any-link) windows with a message drop
  probability and/or extra delivery delay.  A dropped message is
  retransmitted after a timeout with exponential backoff (see
  :class:`RetryPolicy`); the final attempt always succeeds, so faults
  degrade performance without changing program semantics.
* **Rank failures**: a virtual time at which a rank permanently dies,
  either raising :class:`~repro.parallel.scheduler.RankFailedError`
  (``mode="stop"``) or silently hanging until the run deadlocks
  (``mode="hang"``).

Determinism contract
--------------------
Every decision is a pure function of ``(plan.seed, src, dst, seq,
attempt)`` hashed through CRC-32 — no global RNG state, no wall-clock.
Two simulations with equal plans produce bit-identical traces; see
``docs/resilience.md``.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.util.validation import require

#: Wildcard endpoint for :class:`LinkFault` — matches every rank.
ANY = -1


def _unit(seed: int, *parts: int) -> float:
    """Deterministic hash of integers to [0, 1) — the plan's coin flips."""
    data = struct.pack(f"<{1 + len(parts)}q", seed, *parts)
    return zlib.crc32(data) / 4294967296.0


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retransmit model for dropped messages.

    Attempt ``k`` (0-based) is retransmitted ``timeout * backoff**k``
    seconds after its injection if it was dropped.  The final attempt
    (``max_attempts - 1``) always succeeds, bounding the worst-case
    delivery delay and guaranteeing liveness under any drop rate.
    """

    timeout: float = 5.0e-4
    backoff: float = 2.0
    max_attempts: int = 6

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError(f"retry timeout must be positive, got {self.timeout}")
        if self.backoff < 1.0:
            raise ValueError(f"retry backoff must be >= 1, got {self.backoff}")
        if self.max_attempts < 1:
            raise ValueError(
                f"retry max_attempts must be >= 1, got {self.max_attempts}"
            )


@dataclass(frozen=True)
class SlowdownWindow:
    """Rank ``rank`` computes ``factor``x slower during ``[t0, t1)``."""

    rank: int
    t0: float
    t1: float
    factor: float

    def __post_init__(self):
        require(self.rank >= 0, f"slowdown rank must be >= 0, got {self.rank}")
        require(self.t0 >= 0, f"slowdown window must start at t >= 0, got {self.t0}")
        if self.factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {self.factor}")
        if self.t1 <= self.t0:
            raise ValueError(f"empty slowdown window [{self.t0}, {self.t1})")


@dataclass(frozen=True)
class LinkFault:
    """Drop probability / extra delay on the ``src -> dst`` link in ``[t0, t1)``.

    Endpoints may be :data:`ANY` (-1) to match every rank.  Overlapping
    faults combine as max(drop_rate) and sum(extra_delay).
    """

    src: int = ANY
    dst: int = ANY
    t0: float = 0.0
    t1: float = math.inf
    drop_rate: float = 0.0
    extra_delay: float = 0.0

    def __post_init__(self):
        require(
            self.src >= ANY,
            f"link-fault src must be a rank >= 0 or ANY (-1), got {self.src}",
        )
        require(
            self.dst >= ANY,
            f"link-fault dst must be a rank >= 0 or ANY (-1), got {self.dst}",
        )
        require(self.t0 >= 0, f"link-fault window must start at t >= 0, got {self.t0}")
        require(
            self.t1 > self.t0,
            f"empty link-fault window [{self.t0}, {self.t1})",
        )
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(
                f"drop_rate must be in [0, 1), got {self.drop_rate}"
            )
        if self.extra_delay < 0:
            raise ValueError(f"extra_delay must be >= 0, got {self.extra_delay}")

    def matches(self, src: int, dst: int, t: float) -> bool:
        return (
            self.src in (ANY, src)
            and self.dst in (ANY, dst)
            and self.t0 <= t < self.t1
        )


@dataclass(frozen=True)
class RankFailure:
    """Rank ``rank`` dies at the first op boundary at or after time ``at``.

    ``mode="stop"`` aborts the run with ``RankFailedError`` (the detected
    failure a recovery driver restarts from); ``mode="hang"`` leaves the
    rank silently blocked so its peers eventually raise ``DeadlockError``
    (an undetected failure).
    """

    rank: int
    at: float
    mode: str = "stop"

    def __post_init__(self):
        require(self.rank >= 0, f"failure rank must be >= 0, got {self.rank}")
        if self.mode not in ("stop", "hang"):
            raise ValueError(f"failure mode must be 'stop' or 'hang', got {self.mode!r}")
        if self.at < 0:
            raise ValueError(f"failure time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class Delivery:
    """The planned fate of one message: dropped attempts, then delivery.

    ``drop_times`` are the injection times of the failed attempts (empty
    for a clean send); ``inject_time`` is the injection time of the
    successful attempt; ``arrival`` is when the payload reaches the
    destination mailbox.
    """

    drop_times: Tuple[float, ...]
    inject_time: float
    arrival: float

    @property
    def retransmissions(self) -> int:
        """Attempts beyond the first — each re-counted exactly once."""
        return len(self.drop_times)


@dataclass(frozen=True)
class FaultSpec:
    """High-level recipe :meth:`FaultPlan.from_spec` expands with a seed.

    ``slowdown_window`` and ``failure_window`` are *fractions* of the
    ``horizon`` passed to ``from_spec`` (the expected fault-free
    makespan), so specs stay machine-independent.
    """

    stragglers: int = 0
    slowdown_factor: float = 2.0
    slowdown_window: Tuple[float, float] = (0.0, math.inf)
    drop_rate: float = 0.0
    extra_delay: float = 0.0
    failures: int = 0
    failure_window: Tuple[float, float] = (0.4, 0.7)
    failure_mode: str = "stop"


@dataclass(frozen=True)
class FaultPlan:
    """Everything the virtual machine will do wrong, decided up front.

    Frozen and hashable: two plans compare equal iff they schedule the
    identical fault sequence, which is what the determinism tests assert.
    """

    seed: int
    slowdowns: Tuple[SlowdownWindow, ...] = ()
    link_faults: Tuple[LinkFault, ...] = ()
    failures: Tuple[RankFailure, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self):
        ranks = [f.rank for f in self.failures]
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"at most one failure per rank, got ranks {ranks}")
        by_rank: Dict[int, List[SlowdownWindow]] = {}
        for w in self.slowdowns:
            by_rank.setdefault(w.rank, []).append(w)
        for rank, wins in by_rank.items():
            wins.sort(key=lambda w: (w.t0, w.t1))
            for a, b in zip(wins, wins[1:]):
                if b.t0 < a.t1:
                    raise ValueError(
                        f"overlapping slowdown windows on rank {rank}: "
                        f"[{a.t0:g}, {a.t1:g}) x{a.factor:g} and "
                        f"[{b.t0:g}, {b.t1:g}) x{b.factor:g}; merge them "
                        "into one window (pick the factor you mean) or "
                        "make them disjoint"
                    )

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec: FaultSpec,
        nranks: int,
        seed: int,
        horizon: float = 1.0,
        retry: Optional[RetryPolicy] = None,
    ) -> "FaultPlan":
        """Expand a :class:`FaultSpec` into a concrete seeded plan.

        Straggler and failure ranks are drawn (disjointly) from a seeded
        permutation; window fractions scale by ``horizon``.  The same
        ``(spec, nranks, seed, horizon)`` always yields the same plan.
        """
        if spec.stragglers + spec.failures > nranks:
            raise ValueError(
                f"spec wants {spec.stragglers} stragglers + {spec.failures} "
                f"failures but only {nranks} ranks exist"
            )
        rng = np.random.default_rng(seed)
        perm = [int(r) for r in rng.permutation(nranks)]
        w0, w1 = spec.slowdown_window
        slowdowns = tuple(
            SlowdownWindow(
                rank=r,
                t0=w0 * horizon,
                t1=w1 * horizon if math.isfinite(w1) else math.inf,
                factor=spec.slowdown_factor,
            )
            for r in perm[: spec.stragglers]
        )
        link_faults: Tuple[LinkFault, ...] = ()
        if spec.drop_rate > 0 or spec.extra_delay > 0:
            link_faults = (
                LinkFault(drop_rate=spec.drop_rate, extra_delay=spec.extra_delay),
            )
        f0, f1 = spec.failure_window
        failures = tuple(
            RankFailure(
                rank=r,
                at=(f0 + (f1 - f0) * float(rng.random())) * horizon,
                mode=spec.failure_mode,
            )
            for r in perm[spec.stragglers : spec.stragglers + spec.failures]
        )
        return cls(
            seed=seed,
            slowdowns=slowdowns,
            link_faults=link_faults,
            failures=failures,
            retry=retry if retry is not None else RetryPolicy(),
        )

    # -- scheduler queries ---------------------------------------------
    def validate_ranks(self, nranks: int) -> None:
        """Check every rank the plan names exists on an ``nranks`` mesh.

        Called by :class:`~repro.parallel.scheduler.Simulator` at
        construction, so a plan built for the wrong mesh fails fast with
        an actionable message instead of silently never firing (or
        firing on the wrong link).
        """
        hi = nranks - 1
        for w in self.slowdowns:
            require(
                w.rank < nranks,
                f"slowdown rank {w.rank} out of range for {nranks} ranks "
                f"(valid: 0..{hi})",
            )
        for lf in self.link_faults:
            require(
                lf.src < nranks,
                f"link-fault src {lf.src} out of range for {nranks} ranks "
                f"(valid: 0..{hi} or ANY)",
            )
            require(
                lf.dst < nranks,
                f"link-fault dst {lf.dst} out of range for {nranks} ranks "
                f"(valid: 0..{hi} or ANY)",
            )
        for f in self.failures:
            require(
                f.rank < nranks,
                f"failure rank {f.rank} out of range for {nranks} ranks "
                f"(valid: 0..{hi})",
            )

    def stretch_compute(self, rank: int, start: float, seconds: float) -> float:
        """Elapsed time of a compute op of nominal ``seconds`` starting at
        ``start`` on ``rank``, integrated piecewise across slowdown
        window edges.  (Same-rank windows are validated disjoint at plan
        construction; the max-factor rule below is defensive only.)"""
        if seconds <= 0.0:
            return seconds
        wins = [w for w in self.slowdowns if w.rank == rank]
        if not wins:
            return seconds
        t = start
        remaining = seconds  # nominal work still to do
        elapsed = 0.0
        while remaining > 0.0:
            factor = 1.0
            next_edge = math.inf
            for w in wins:
                if w.t0 <= t < w.t1:
                    factor = max(factor, w.factor)
                    if math.isfinite(w.t1):
                        next_edge = min(next_edge, w.t1)
                elif w.t0 > t:
                    next_edge = min(next_edge, w.t0)
            if not math.isfinite(next_edge):
                elapsed += remaining * factor
                break
            span = next_edge - t
            work = span / factor
            if work >= remaining:
                elapsed += remaining * factor
                break
            elapsed += span
            remaining -= work
            t = next_edge
        return elapsed

    def link_conditions(self, src: int, dst: int, t: float) -> Tuple[float, float]:
        """``(drop_rate, extra_delay)`` on the link at virtual time ``t``."""
        rate = 0.0
        delay = 0.0
        for lf in self.link_faults:
            if lf.matches(src, dst, t):
                rate = max(rate, lf.drop_rate)
                delay += lf.extra_delay
        return rate, delay

    def plan_delivery(
        self, src: int, dst: int, seq: int, t_send: float, message_time: float
    ) -> Delivery:
        """Decide the fate of the ``seq``-th message on ``src -> dst``.

        Each attempt flips a seeded coin against the link's drop rate at
        its injection time; drops schedule a retransmission after
        ``timeout * backoff**attempt``.  The last attempt is forced to
        succeed (liveness), so ``arrival`` is always finite.
        """
        if not self.link_faults:
            return Delivery((), t_send, t_send + message_time)
        retry = self.retry
        drops: List[float] = []
        inject = t_send
        for attempt in range(retry.max_attempts):
            rate, delay = self.link_conditions(src, dst, inject)
            final = attempt == retry.max_attempts - 1
            if (
                not final
                and rate > 0.0
                and _unit(self.seed, src, dst, seq, attempt) < rate
            ):
                drops.append(inject)
                inject += retry.timeout * retry.backoff**attempt
                continue
            return Delivery(tuple(drops), inject, inject + message_time + delay)
        raise AssertionError("unreachable: final attempt always delivers")

    # -- recovery helpers ----------------------------------------------
    def without_failure(self, rank: int) -> "FaultPlan":
        """A copy with ``rank``'s failure consumed (for restart attempts:
        a transient failure must not re-fire when clocks reset to 0)."""
        return replace(
            self, failures=tuple(f for f in self.failures if f.rank != rank)
        )

    # -- introspection --------------------------------------------------
    def describe(self) -> str:
        """One line per scheduled fault, for logs and experiment tables."""
        lines = [f"FaultPlan(seed={self.seed})"]
        for w in self.slowdowns:
            lines.append(
                f"  slowdown: rank {w.rank} x{w.factor:g} in [{w.t0:g}, {w.t1:g})"
            )
        for lf in self.link_faults:
            src = "*" if lf.src == ANY else lf.src
            dst = "*" if lf.dst == ANY else lf.dst
            lines.append(
                f"  link {src}->{dst}: drop {100 * lf.drop_rate:g}% "
                f"delay +{lf.extra_delay:g}s in [{lf.t0:g}, {lf.t1:g})"
            )
        for f in self.failures:
            lines.append(f"  failure: rank {f.rank} at t={f.at:g} ({f.mode})")
        if len(lines) == 1:
            lines.append("  (no faults)")
        return "\n".join(lines)
