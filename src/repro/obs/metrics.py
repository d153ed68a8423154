"""Counters and gauges: the scalar half of the observability subsystem.

Spans answer *where inside a step time goes*; the
:class:`MetricsRegistry` answers *how much of what happened* — messages
sent, bytes retransmitted, columns moved, checkpoints written.  The
registry is deliberately tiny (two instrument kinds, get-or-create by
name) so instrumentation points never have to coordinate: the first
caller creates the instrument, everyone else increments it.

Instruments are namespaced by dots (``sim.messages_sent``,
``agcm.columns_moved``); the exporters group on the first component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Union

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
]


@dataclass
class Counter:
    """A monotonically increasing scalar."""

    name: str
    help: str = ""
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative inc {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A scalar that goes up and down; remembers its last value."""

    name: str
    help: str = ""
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class MetricsRegistry:
    """Get-or-create registry of named counters and gauges."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Union[Counter, Gauge]] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        """The counter called ``name``, created on first use."""
        return self._get(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The gauge called ``name``, created on first use."""
        return self._get(name, Gauge, help)

    def _get(self, name: str, kind, help: str):
        inst = self._instruments.get(name)
        if inst is None:
            inst = kind(name, help)
            self._instruments[name] = inst
        elif not isinstance(inst, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, requested {kind.__name__}"
            )
        return inst

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def merge(self, other: Union["MetricsRegistry", Dict]) -> None:
        """Fold another registry (or its ``as_dict`` form) into this one.

        Counters add, gauges take the incoming value.  This is how the
        campaign engine unifies per-worker registries — each worker
        process records into its own registry and ships
        ``as_dict()`` across the result queue; the parent merges them
        into the single campaign-wide registry.
        """
        data = other.as_dict() if isinstance(other, MetricsRegistry) else other
        for name, value in data.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in data.get("gauges", {}).items():
            self.gauge(name).set(float(value))

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """``{"counters": {name: value}, "gauges": {name: value}}``."""
        out: Dict[str, Dict[str, float]] = {"counters": {}, "gauges": {}}
        for name, inst in sorted(self._instruments.items()):
            bucket = "counters" if isinstance(inst, Counter) else "gauges"
            out[bucket][name] = inst.value
        return out


class _NullInstrument:
    """Accepts inc/dec/set and forgets them."""

    __slots__ = ()
    name = ""
    help = ""
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Registry handed out by :class:`repro.obs.spans.NullObserver`."""

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {"counters": {}, "gauges": {}}


#: Shared no-op registry.
NULL_METRICS = NullMetricsRegistry()
