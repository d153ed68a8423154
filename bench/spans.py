"""In-memory host-time span recorder for the traced benchmark pass.

The benchmark records spans from *outside* the program: around each
unit and around each call into a layer's public function.  Spans live
in memory and are written out with the result file when the run ends.
A span's self time is its duration minus the part its direct children
cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    workload: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans on one thread; ``enabled=False`` records
    nothing, so untraced passes run the same code without the cost."""

    def __init__(self, workload: str, enabled: bool = True,
                 clock=time.perf_counter) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Span] = []
        self._clock = clock
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span = Span(len(self.spans), name, self._clock(), float("nan"),
                    self._stack[-1] if self._stack else None, self.workload)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = self._clock()

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the direct children's durations."""
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def cover_fraction(self, name: str) -> float:
        """Share of the first span called ``name`` that its direct
        children cover (1 - self time / duration)."""
        span = next(s for s in self.spans if s.name == name)
        return 1.0 - self.self_times()[span.id] / span.duration

    def dump(self) -> List[dict]:
        selfs = self.self_times()
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "workload": s.workload,
             "self": selfs[s.id]}
            for s in self.spans
        ]
