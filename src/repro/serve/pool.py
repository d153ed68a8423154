"""Background execution pool for the gateway: LPT queue over threads.

The pool reuses the campaign engine's scheduling discipline rather than
its process pool: units wait in an :class:`asyncio.PriorityQueue`
ordered longest-estimate-first (the same LPT rule as
:func:`repro.campaign.units.sort_for_schedule`), and a fixed set of
worker tasks pulls from it, running each unit's compute in a shared
:class:`~concurrent.futures.ThreadPoolExecutor` so the event loop never
blocks.  Threads (not processes) because the gateway's answer store is
the content-addressed cache: a finished unit is written to disk before
its future resolves, exactly like a campaign worker, so a crashed
gateway leaves only complete, atomically-written entries behind.

Results resolve through per-unit futures; the gateway shares one future
among every coalesced waiter of a key.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Tuple

from repro.campaign.cache import ResultCache, unit_meta
from repro.campaign.units import CampaignUnit, execute_unit

__all__ = ["WorkerPool"]


class WorkerPool:
    """N worker tasks draining one LPT-ordered queue of campaign units.

    ``runner`` is the unit executor (:func:`execute_unit` by default);
    tests inject a counting wrapper here to prove coalescing executes a
    key exactly once.
    """

    def __init__(self, workers: int, cache: Optional[ResultCache] = None,
                 runner: Optional[Callable[[CampaignUnit], Any]] = None
                 ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self.cache = cache
        #: The gateway's :class:`repro.results.hooks.ResultsRecorder`
        #: while it runs with a result index; None otherwise.
        self.recorder = None
        self.runner = runner if runner is not None else execute_unit
        self._queue: "asyncio.PriorityQueue[Tuple[float, int, Any]]" = (
            asyncio.PriorityQueue()
        )
        self._seq = itertools.count()
        self._tasks: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._tasks:
            return
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._tasks = [
            asyncio.get_running_loop().create_task(
                self._worker(), name=f"serve-pool-{w}"
            )
            for w in range(self.workers)
        ]

    async def stop(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    @property
    def running(self) -> bool:
        return bool(self._tasks)

    # -- submission -----------------------------------------------------
    def submit(self, unit: CampaignUnit) -> "asyncio.Future[Any]":
        """Queue ``unit``; the returned future resolves with its value.

        Larger estimated cost dispatches first (LPT): under saturation a
        slow unit never waits behind a tail of fast ones.
        """
        if not self._tasks:
            raise RuntimeError("pool is not started")
        future: "asyncio.Future[Any]" = (
            asyncio.get_running_loop().create_future()
        )
        self._queue.put_nowait((-unit.est_cost, next(self._seq),
                                (unit, future)))
        return future

    # -- internals ------------------------------------------------------
    def _execute(self, unit: CampaignUnit) -> Any:
        """Run one unit in a pool thread and persist it like a campaign
        worker would: cache first, report after (and, when a result
        index is configured, wait here — on the pool thread, never the
        event loop — until the recorder has committed the run row: the
        index row and the cache entry describe the same payload, and
        both exist before the ``executed`` reply)."""
        t0 = time.perf_counter()
        value = self.runner(unit)
        seconds = time.perf_counter() - t0
        if self.cache is not None:
            self.cache.put(unit.key, value,
                           meta=unit_meta(unit, seconds, "serve"))
        recorder = self.recorder
        if recorder is not None:
            recorder.execution(unit, seconds)
        return value

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            _, _, (unit, future) = await self._queue.get()
            if future.cancelled():
                continue
            try:
                value = await loop.run_in_executor(
                    self._executor, self._execute, unit
                )
            except asyncio.CancelledError:
                if not future.done():
                    future.set_exception(
                        RuntimeError("gateway shut down mid-execution")
                    )
                raise
            except Exception as exc:  # noqa: BLE001 - reported per unit
                if not future.done():
                    future.set_exception(exc)
            else:
                if not future.done():
                    future.set_result(value)
