"""The async service gateway: cache-first answers, coalesced compute.

Request path for every work unit, in order:

1. **Cache probe** — the content-addressed :class:`ResultCache` shared
   with the campaign engine is consulted first; a hit is answered
   immediately and never touches the worker pool (this is the
   microsecond path the warm-latency SLO gates).
2. **Coalesce** — if the unit's sha256 cache key is already being
   computed, the request awaits the *same* future instead of queueing a
   duplicate; all waiters receive the identical result object.
3. **Admission control** — a new computation is admitted only while
   fewer than ``queue_limit`` executions are queued-or-running;
   otherwise the whole request is refused with a 429-style
   :class:`RejectedError` carrying a retry-after hint.  Refusing fast
   is the overload story: the queue can never grow unboundedly, and a
   retrying client will usually coalesce onto (or hit) the computation
   that made it busy.
4. **Execute** — the unit joins the LPT-ordered background pool and is
   written to the cache before its future resolves (crash-safe, same
   discipline as a campaign worker).

Requests are ``run`` (one selector), ``campaign`` (a selector list or
named sweep — every unit goes through the same four steps), and
``status`` (SLO snapshot).  Per-request spans are recorded into a
:class:`repro.obs.Observer` over wall-clock time, one span "rank" per
request so concurrent requests nest independently.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import pickle
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.cache import ResultCache
from repro.campaign.units import (
    CampaignUnit,
    describe_sweep,
    enumerate_units,
)
from repro.obs import MetricsRegistry, Observer
from repro.serve.config import ServeConfig
from repro.serve.pool import WorkerPool
from repro.serve.slo import ServeMetrics

__all__ = ["Gateway", "GatewayResponse", "RejectedError"]

#: Spans recorded after this many are silently dropped: a long-lived
#: gateway must not grow its trace without bound.
_SPAN_CAP = 100_000


class RejectedError(Exception):
    """Admission control refused the request (HTTP 429).

    ``retry_after`` is the back-off hint in seconds; ``depth`` and
    ``limit`` say how saturated the pool was at refusal time.
    """

    def __init__(self, retry_after: float, depth: int, limit: int) -> None:
        super().__init__(
            f"admission queue full ({depth}/{limit} executions in "
            f"flight); retry after {retry_after:g}s"
        )
        self.retry_after = retry_after
        self.depth = depth
        self.limit = limit


@dataclass
class GatewayResponse:
    """One answered request: the JSON-able document plus raw values.

    ``doc`` is what the HTTP layer serializes; ``values`` (parallel to
    ``doc["units"]``) carries the actual result objects for in-process
    callers — the tests use them to check bit-identity without a
    deserialization round-trip.
    """

    doc: Dict[str, Any]
    values: List[Any] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return int(self.doc.get("failures", 0))


def _result_sha256(value: Any) -> str:
    """Stable content hash of a unit result (the bit-identity witness
    coalesced clients can compare without sharing memory)."""
    return hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()


class Gateway:
    """Always-on front end over the run/campaign facade.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly.  ``runner`` overrides the unit executor
    (tests inject counters); ``registry`` shares a metrics registry
    with a larger deployment.
    """

    def __init__(self, config: Optional[ServeConfig] = None, *,
                 runner=None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.cache = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir else None
        )
        self.metrics = ServeMetrics(
            registry, reservoir_size=self.config.reservoir_size
        )
        #: The process's one results writer while the gateway runs with
        #: a ``results_db`` (see :mod:`repro.results.hooks`).
        self._recorder = None
        self.pool = WorkerPool(
            self.config.pool_workers, cache=self.cache, runner=runner,
        )
        self.observer: Optional[Observer] = (
            Observer() if self.config.spans else None
        )
        self._inflight: Dict[str, "asyncio.Future[Any]"] = {}
        self._admitted = 0
        self._request_ids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Start the worker pool (idempotent); no sockets yet."""
        if not self.pool.running:
            if self.config.results_db is not None:
                from repro.results.hooks import ResultsRecorder
                from repro.results.provenance import current_git_sha

                self._recorder = self.pool.recorder = ResultsRecorder(
                    self.config.results_db, self.cache,
                    git_sha=current_git_sha(),
                    on_error=self.metrics.results_write_errors,
                )
            self.pool.start()
            if self.observer is not None:
                self.observer.start_run("serve")

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.pool.stop()
        recorder = self._recorder
        if recorder is not None:
            # Every hit counted so far is committed before stop()
            # returns; nothing is answered once the pool has stopped.
            self._recorder = self.pool.recorder = None
            recorder.close()
        for future in self._inflight.values():
            if not future.done():
                future.cancel()
        self._inflight.clear()
        if self.observer is not None and self.observer.current_run >= 0:
            self.observer.finish_run()

    async def __aenter__(self) -> "Gateway":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def start_server(self) -> Tuple[str, int]:
        """Bind the TCP front end; returns the (host, port) actually
        bound (an ephemeral port is resolved here)."""
        from repro.serve.http import handle_connection

        await self.start()
        self._server = await asyncio.start_server(
            lambda r, w: handle_connection(self, r, w),
            host=self.config.host, port=self.config.port,
        )
        sock = self._server.sockets[0]
        host, self.port = sock.getsockname()[:2]
        return host, self.port

    # -- observability --------------------------------------------------
    def _span(self, rank: int, name: str, **tags):
        obs = self.observer
        if obs is None or len(obs.spans) >= _SPAN_CAP:
            return nullcontext()

        @contextmanager
        def live():
            sid = obs.begin(rank, name, time.perf_counter(), tags or None)
            try:
                yield
            finally:
                obs.end(rank, sid, time.perf_counter())

        return live()

    # -- unit resolution (the four-step path) ---------------------------
    async def _resolve_unit(self, unit: CampaignUnit,
                            rank: int) -> Tuple[Dict[str, Any], Any]:
        t0 = time.perf_counter()
        if self.cache is not None:
            with self._span(rank, "cache_probe", key=unit.key[:12]):
                value = self.cache.get(unit.key)
            if value is not None:
                seconds = time.perf_counter() - t0
                self.metrics.unit("hit", seconds)
                if self._recorder is not None:
                    self._recorder.hit(unit)  # write-behind: enqueue only
                return self._entry(unit, "hit", seconds, value), value

        shared = self._inflight.get(unit.key)
        if shared is not None:
            with self._span(rank, "coalesce_wait", key=unit.key[:12]):
                value = await asyncio.shield(shared)
            seconds = time.perf_counter() - t0
            self.metrics.unit("coalesced", seconds)
            return self._entry(unit, "coalesced", seconds, value), value

        if self._admitted >= self.config.queue_limit:
            raise RejectedError(
                self.config.retry_after_seconds,
                self._admitted, self.config.queue_limit,
            )

        future = self.pool.submit(unit)
        self._inflight[unit.key] = future
        self._admitted += 1
        self._sync_gauges()
        future.add_done_callback(
            lambda f, key=unit.key: self._finish_execution(key, f)
        )
        with self._span(rank, "execute", key=unit.key[:12],
                        label=unit.label):
            value = await asyncio.shield(future)
        seconds = time.perf_counter() - t0
        self.metrics.unit("executed", seconds)
        return self._entry(unit, "executed", seconds, value), value

    def _finish_execution(self, key: str,
                          future: "asyncio.Future[Any]") -> None:
        if self._inflight.get(key) is future:
            del self._inflight[key]
        self._admitted -= 1
        self._sync_gauges()
        if not future.cancelled() and future.exception() is not None:
            self.metrics.error()

    def _sync_gauges(self) -> None:
        self.metrics.set_queue_depth(self._admitted)
        self.metrics.set_inflight(len(self._inflight))

    @staticmethod
    def _entry(unit: CampaignUnit, served: str, seconds: float,
               value: Any) -> Dict[str, Any]:
        return {
            "label": unit.label,
            "key": unit.key,
            "served": served,
            "seconds": round(seconds, 6),
            "result_sha256": _result_sha256(value),
        }

    async def _resolve_units(
        self, units: Sequence[CampaignUnit], rank: int,
    ) -> Tuple[List[Dict[str, Any]], List[Any], int]:
        """Resolve every unit concurrently; per-unit errors become
        entries, a rejection anywhere aborts the whole request.

        Each unit gets its own span rank: units of one request resolve
        concurrently, and spans nest per rank, so they may not share
        the request's lane.
        """
        results = await asyncio.gather(
            *(self._resolve_unit(u, next(self._request_ids))
              for u in units),
            return_exceptions=True,
        )
        entries: List[Dict[str, Any]] = []
        values: List[Any] = []
        failures = 0
        for unit, outcome in zip(units, results):
            if isinstance(outcome, RejectedError):
                raise outcome
            if isinstance(outcome, BaseException):
                failures += 1
                entries.append({
                    "label": unit.label,
                    "key": unit.key,
                    "served": "error",
                    "error": f"{type(outcome).__name__}: {outcome}",
                })
                values.append(None)
            else:
                entry, value = outcome
                entries.append(entry)
                values.append(value)
        return entries, values, failures

    # -- endpoints ------------------------------------------------------
    async def call_run(self, selector: str) -> GatewayResponse:
        """The ``run`` endpoint: one selector (``"table8@4x4"``,
        ``"sleep:0.1#a"``) resolved through the cache-first path."""
        if not isinstance(selector, str) or not selector:
            raise ValueError(
                f"run needs a non-empty selector string, got {selector!r}"
            )
        return await self._call("run", selector, [selector])

    async def call_campaign(self, selectors: Optional[Sequence[str]] = None,
                            sweep: Optional[str] = None) -> GatewayResponse:
        """The ``campaign`` endpoint: a selector list or a named sweep,
        every unit answered through the same cache/coalesce/pool path."""
        if selectors is not None and sweep is not None:
            raise ValueError("pass selectors or sweep, not both")
        if sweep is not None:
            selectors = list(describe_sweep(sweep))
        if not selectors:
            raise ValueError("campaign needs selectors or a sweep name")
        label = sweep if sweep is not None else ",".join(selectors)
        return await self._call("campaign", label, list(selectors))

    async def _call(self, endpoint: str, label: str,
                    selectors: List[str]) -> GatewayResponse:
        if not self.pool.running:
            raise RuntimeError("gateway is not started")
        self.metrics.request()
        rank = next(self._request_ids)
        t0 = time.perf_counter()
        with self._span(rank, f"request:{endpoint}", target=label):
            units = enumerate_units(selectors)
            try:
                entries, values, failures = await self._resolve_units(
                    units, rank
                )
            except RejectedError:
                self.metrics.rejected()
                raise
        doc = {
            "endpoint": endpoint,
            "target": label,
            "units": entries,
            "failures": failures,
            "seconds": round(time.perf_counter() - t0, 6),
        }
        return GatewayResponse(doc=doc, values=values)

    def status(self) -> Dict[str, Any]:
        """The ``status`` endpoint: SLO snapshot + store accounting."""
        doc = self.metrics.snapshot()
        doc["queue_limit"] = self.config.queue_limit
        doc["pool_workers"] = self.config.pool_workers
        # ``is not None``: ResultCache defines __len__, so an *empty*
        # cache is falsy and ``if self.cache`` would misreport it as
        # absent (0 entries is a real answer, "no cache" is not).
        doc["cache_entries"] = (
            len(self.cache) if self.cache is not None else 0
        )
        doc["spans_recorded"] = (
            len(self.observer.spans) if self.observer is not None else 0
        )
        # Hit counters are write-behind: the records still waiting for
        # the results writer (``results_errors`` counts the lost ones).
        recorder = self._recorder
        doc["results_pending"] = (
            recorder.pending if recorder is not None else 0
        )
        return doc
