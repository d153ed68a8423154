"""Hierarchical spans over virtual time: the observability core.

A :class:`Span` is a named interval of *virtual* time on one rank —
opened and closed by the instrumentation hooks that the scheduler, the
rank programs and the communication layer call while a simulation runs.
Spans nest (each records its parent), so one run yields a forest per
rank whose roots are the coarse phases (``"physics"``, ``"dynamics"``)
and whose leaves are individual collective calls or filter stages.  An
:class:`Instant` is a zero-duration marker (a retry, a checkpoint, a
rank failure).

Two observer implementations share the same interface:

* :class:`Observer` records everything (spans, instants, per-run
  summaries, metrics);
* :class:`NullObserver` — the module-level :data:`NULL_OBSERVER`
  singleton — drops everything.  Its ``enabled`` attribute is ``False``,
  which is the *only* thing hot paths inspect, so instrumentation is a
  single attribute load + branch when observability is off (the
  ``bench_simulator_overhead`` gate keeps this honest).

Observers reach instrumentation points two ways: passed explicitly
(``Simulator(..., observer=obs)``) or ambiently via
:func:`activate`/:func:`get_active` — the mechanism the
:func:`repro.api.run` facade and the ``python -m repro profile``
subcommand use to observe experiment runners they do not control.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "Instant",
    "RunInfo",
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "NULL_SPAN",
    "activate",
    "get_active",
]


@dataclass
class Span:
    """One closed (or still-open) named interval of virtual time."""

    sid: int
    parent: Optional[int]
    run: int
    rank: int
    name: str
    start: float
    #: ``None`` while open; filled by :meth:`Observer.end` (or forced at
    #: run teardown for ranks that died with spans still open).
    end: Optional[float] = None
    tags: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        """Elapsed virtual seconds (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start


@dataclass
class Instant:
    """A zero-duration event: retry, checkpoint, restart, rank failure."""

    run: int
    rank: int
    name: str
    t: float
    tags: Optional[Dict[str, Any]] = None


@dataclass
class RunInfo:
    """One ``Simulator.run`` observed by this observer."""

    index: int
    label: str
    nranks: int = 0
    #: Virtual makespan [s]; filled by :meth:`Observer.finish_run`.
    elapsed: Optional[float] = None
    #: Scalar aggregates the scheduler hands over at teardown
    #: (message/byte counts, retransmits, ...).
    summary: Dict[str, float] = field(default_factory=dict)


class _NullSpan:
    """The no-op context manager handed out when observability is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


#: Shared no-op span; ``ctx.span(...)`` returns this when disabled.
NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager binding an open span to a clock source.

    ``clock_source`` is anything with a ``clock`` attribute in virtual
    seconds — in practice a :class:`repro.parallel.comm.VirtualComm`.
    """

    __slots__ = ("_obs", "_clock_source", "_rank", "_name", "_tags", "_sid")

    def __init__(self, obs: "Observer", clock_source, rank: int, name: str,
                 tags: Optional[Dict[str, Any]]):
        self._obs = obs
        self._clock_source = clock_source
        self._rank = rank
        self._name = name
        self._tags = tags
        self._sid = -1

    def __enter__(self) -> "_LiveSpan":
        self._sid = self._obs.begin(
            self._rank, self._name, self._clock_source.clock, self._tags
        )
        return self

    def __exit__(self, *exc) -> bool:
        self._obs.end(self._rank, self._sid, self._clock_source.clock)
        return False


class NullObserver:
    """Observer that records nothing; ``enabled`` is ``False``.

    All methods exist so code may call them unconditionally in cold
    paths; hot paths should branch on ``enabled`` instead.
    """

    enabled = False

    def start_run(self, label: str = "", nranks: int = 0) -> int:
        return -1

    def finish_run(self, clocks=None, summary=None) -> None:
        return None

    def begin(self, rank: int, name: str, clock: float, tags=None) -> int:
        return -1

    def end(self, rank: int, sid: int, clock: float) -> None:
        return None

    def instant(self, rank: int, name: str, clock: float, tags=None) -> None:
        return None

    def span(self, name: str, clock_source, rank: int = 0, **tags):
        return NULL_SPAN

    @property
    def metrics(self):
        from repro.obs.metrics import NULL_METRICS  # local: avoid cycle

        return NULL_METRICS


#: The shared disabled observer (default for every simulation).
NULL_OBSERVER = NullObserver()


class Observer:
    """Records spans, instants and metrics across one or more runs.

    One observer may watch several ``Simulator.run`` calls (an experiment
    runner typically launches one simulation per mesh); each run gets its
    own index so exporters can keep their timelines apart.
    """

    enabled = True

    def __init__(self) -> None:
        from repro.obs.metrics import MetricsRegistry  # local: avoid cycle

        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.runs: List[RunInfo] = []
        self.metrics = MetricsRegistry()
        self._next_sid = 0
        #: (run, rank) -> stack of open span ids.
        self._stacks: Dict[Tuple[int, int], List[int]] = {}
        self._current_run = -1

    # -- run lifecycle ----------------------------------------------------
    @property
    def current_run(self) -> int:
        """Index of the run currently recording (-1 before the first)."""
        return self._current_run

    def start_run(self, label: str = "", nranks: int = 0) -> int:
        """Open a new run scope; subsequent spans belong to it."""
        self._current_run = len(self.runs)
        self.runs.append(RunInfo(self._current_run, label, nranks))
        return self._current_run

    def finish_run(self, clocks=None, summary=None) -> None:
        """Close the current run: force-close dangling spans, store totals.

        ``clocks`` (final virtual clock per rank) closes spans left open
        by ranks that failed or deadlocked; ``summary`` scalars are kept
        on the :class:`RunInfo` and mirrored into the metrics registry
        as ``sim.*`` counters.
        """
        if self._current_run < 0:
            return
        run = self.runs[self._current_run]
        for (r, rank), stack in self._stacks.items():
            if r != self._current_run:
                continue
            while stack:
                span = self.spans[stack.pop()]
                fallback = span.start
                if clocks is not None and rank < len(clocks):
                    fallback = max(fallback, clocks[rank])
                span.end = fallback
        if clocks is not None and len(clocks):
            run.elapsed = max(clocks)
        if summary:
            run.summary.update(summary)
            for key, value in summary.items():
                self.metrics.counter(f"sim.{key}").inc(value)
        self._current_run = -1

    # -- span recording ---------------------------------------------------
    def begin(self, rank: int, name: str, clock: float, tags=None) -> int:
        """Open a span; returns its id (pass back to :meth:`end`)."""
        run = self._current_run
        stack = self._stacks.setdefault((run, rank), [])
        parent = stack[-1] if stack else None
        sid = self._next_sid
        self._next_sid += 1
        self.spans.append(Span(sid, parent, run, rank, name, clock, None,
                               dict(tags) if tags else None))
        stack.append(sid)
        return sid

    def end(self, rank: int, sid: int, clock: float) -> None:
        """Close span ``sid``; it must be the innermost open on ``rank``."""
        stack = self._stacks.get((self._current_run, rank))
        if not stack or stack[-1] != sid:
            raise RuntimeError(
                f"rank {rank}: closing span {sid} out of order "
                f"(open stack: {stack})"
            )
        stack.pop()
        span = self.spans[sid]
        if clock < span.start:
            raise ValueError(
                f"span {span.name!r} on rank {rank} closes before it opens "
                f"({clock} < {span.start})"
            )
        span.end = clock

    def instant(self, rank: int, name: str, clock: float, tags=None) -> None:
        """Record a zero-duration marker event."""
        self.instants.append(Instant(
            self._current_run, rank, name, clock,
            dict(tags) if tags else None,
        ))

    def span(self, name: str, clock_source, rank: int = 0, **tags):
        """Context manager recording one span read off ``clock_source``.

        Rank programs normally go through ``ctx.span(...)`` instead; this
        form exists for host-side code that owns a clock.
        """
        return _LiveSpan(self, clock_source, rank, name, tags or None)

    # -- queries -----------------------------------------------------------
    def phase_seconds(self, name: str, run: int) -> List[float]:
        """Per-rank summed duration of spans named ``name`` in ``run``.

        The span-side equivalent of ``Trace.phase_elapsed[name]`` — used
        by the exporters to rebuild Figure-1 fractions from spans alone.
        """
        if not 0 <= run < len(self.runs):
            raise IndexError(
                f"run {run} out of range: observer recorded "
                f"{len(self.runs)} run(s)"
            )
        nranks = self.runs[run].nranks or (
            1 + max((s.rank for s in self.spans if s.run == run), default=0)
        )
        totals = [0.0] * nranks
        for s in self.spans:
            if s.run == run and s.name == name and s.end is not None:
                totals[s.rank] += s.duration
        return totals


# ----------------------------------------------------------------------
# ambient (active) observer
# ----------------------------------------------------------------------

_ACTIVE: List[Observer] = []


def get_active() -> Optional[Observer]:
    """The innermost observer activated via :func:`activate`, if any."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def activate(observer: Observer) -> Iterator[Observer]:
    """Make ``observer`` ambient: simulators constructed without an
    explicit ``observer=`` pick it up for the duration of the block."""
    _ACTIVE.append(observer)
    try:
        yield observer
    finally:
        _ACTIVE.pop()
