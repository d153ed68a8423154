"""Engine execution mode: batched collectives, or the legacy reference.

One contextvar-scoped switch controls how the discrete-event engine
executes rank programs:

* **batched** (default on) — collectives and paired exchanges yield one
  :class:`repro.parallel.events.Exchange` op describing all their rounds
  instead of one ``Send``/``Recv`` per message.  The scheduler interprets
  the whole schedule in a tight loop with vectorized (NumPy) cost
  pricing, eliminating the per-message generator switch that dominates
  large-mesh runs.  Virtual results are bit-identical to the loop path:
  each rank performs the same float arithmetic in the same program
  order, and per-channel FIFO delivery is preserved (see
  docs/performance.md for the argument).  ``legacy_engine()`` restores
  the pre-batching per-message path — used by the differential pairs and
  the ``sim_events_per_second`` probe to compare old-vs-new end to end.

The switch is a :class:`contextvars.ContextVar`, so serve-gateway
threads and campaign worker processes can hold different modes without
races.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = [
    "batched",
    "legacy_engine",
]

_BATCHED: ContextVar[bool] = ContextVar("repro_engine_batched", default=True)


def batched() -> bool:
    """True when collectives should yield batched :class:`Exchange` ops."""
    return _BATCHED.get()


@contextmanager
def legacy_engine() -> Iterator[None]:
    """Run the enclosed code on the pre-batching per-message engine path.

    Every collective and paired exchange reverts to one ``Send``/``Recv``
    yield per message.  Used by differential pairs (batched-vs-loop must
    be bit-identical) and by the event-engine benchmark probe.
    """
    token = _BATCHED.set(False)
    try:
        yield
    finally:
        _BATCHED.reset(token)

