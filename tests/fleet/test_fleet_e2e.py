"""End-to-end fleet campaigns over TCP: chaos matrix, salvage, degradation.

Everything here spawns real worker subprocesses and carries the
``fleet`` marker (opt-in: ``pytest -m fleet``).
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.campaign import run_campaign
from repro.campaign.cache import ResultCache
from repro.fleet.harness import LocalFleet
from repro.fleet.salvage import remember_worker_dir

pytestmark = pytest.mark.fleet

SELECTORS = [f"sleep:0.3#{i}" for i in range(8)]


def _same_value(a, b) -> bool:
    """Bit-level structural equality across the result payload types."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
    if isinstance(a, dict):
        return (a.keys() == b.keys()
                and all(_same_value(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (len(a) == len(b)
                and all(_same_value(x, y) for x, y in zip(a, b)))
    return a == b


class TestFaultFreeFleet:
    def test_units_distribute_and_attribute(self, tmp_path):
        cache = str(tmp_path / "cache")
        with LocalFleet(nworkers=3, cache_dir=cache) as fleet:
            report = run_campaign(
                [f"sleep:0.2#{i}" for i in range(6)],
                fleet=fleet.config, cache_dir=cache,
            )
        assert report.failures == 0
        assert report.cache_misses == 6
        assert len(report.fleet["workers"]) == 3
        for o in report.outcomes:
            assert o.status == "ran"
            assert o.host and ":" in o.host

    def test_worker_without_cache_dir_still_fills_coordinator_cache(
            self, tmp_path):
        """A worker with no --cache-dir adopts the coordinator's dir
        from the welcome frame (and the coordinator mirrors reported
        results regardless), so a resume is pure hits even though the
        coordinator's cache was empty — and therefore falsy — at
        handshake time."""
        cache = str(tmp_path / "cache")
        selectors = [f"sleep:0.1#adopt{i}" for i in range(4)]
        with LocalFleet(nworkers=2, cache_dir=None) as fleet:
            report = run_campaign(selectors, fleet=fleet.config,
                                  cache_dir=cache)
        assert report.failures == 0
        assert report.cache_misses == len(selectors)
        again = run_campaign(resume=True, cache_dir=cache)
        assert again.cache_misses == 0
        assert again.hit_rate == 1.0

    def test_results_db_records_worker_hosts(self, tmp_path):
        cache = str(tmp_path / "cache")
        db_path = str(tmp_path / "results.db")
        with LocalFleet(nworkers=2, cache_dir=cache) as fleet:
            report = run_campaign(
                [f"sleep:0.1#{i}" for i in range(4)],
                fleet=fleet.config, cache_dir=cache, results_db=db_path,
            )
        assert report.failures == 0
        from repro.results.db import ResultsDB

        with ResultsDB(db_path) as db:
            _, rows = db.query(
                "SELECT host FROM runs WHERE host IS NOT NULL"
            )
        assert len(rows) == 4


class TestChaosMatrix:
    """Kill/hang/disconnect one of three workers mid-campaign: every
    unit is accounted, the completed-before-death unit is salvaged (not
    recomputed), and merged results are bit-identical to a fault-free
    serial run."""

    @pytest.mark.parametrize("action", ["kill", "hang", "disconnect"])
    def test_one_faulty_worker(self, tmp_path, action):
        cache = str(tmp_path / "cache")
        with LocalFleet(nworkers=3, cache_dir=cache,
                        chaos={0: f"{action}@2"}) as fleet:
            report = run_campaign(SELECTORS, fleet=fleet.config,
                                  cache_dir=cache)

        assert report.failures == 0
        assert report.units_total == len(SELECTORS)
        # The faulty worker completed+cached its second unit but never
        # reported it: that unit must come back salvaged, not recomputed.
        assert report.salvaged == 1
        assert report.fleet["salvaged"] == 1
        deaths = [e for e in report.fleet["events"]
                  if e.get("event") == "death"]
        assert deaths, report.fleet["events"]

        serial = run_campaign(SELECTORS)
        s, f = serial.results(), report.results()
        assert s.keys() == f.keys()
        for label in s:
            assert _same_value(s[label], f[label]), label

    def test_rerun_after_chaos_is_pure_hits(self, tmp_path):
        cache = str(tmp_path / "cache")
        with LocalFleet(nworkers=3, cache_dir=cache,
                        chaos={0: "kill@2"}) as fleet:
            first = run_campaign(SELECTORS, fleet=fleet.config,
                                 cache_dir=cache)
        assert first.failures == 0
        # Resume replays the manifest; everything (including the
        # salvaged unit) is cached, so nothing recomputes.
        again = run_campaign(resume=True, cache_dir=cache)
        assert again.cache_misses == 0
        assert again.hit_rate == 1.0

    def test_recovery_overlaps_the_survivors_compute(self, tmp_path):
        """Losing one of three workers costs the re-balanced tail and
        one detection timeout, never a rerun: dead-host detection,
        re-queue and salvage happen while the survivors compute."""
        selectors = [f"sleep:0.4#b{i}" for i in range(12)]

        def run(name, chaos):
            cache = str(tmp_path / name)
            with LocalFleet(nworkers=3, cache_dir=cache,
                            chaos=chaos) as fleet:
                return run_campaign(selectors, fleet=fleet.config,
                                    cache_dir=cache)

        clean = run("clean", {})
        chaotic = run("chaos", {0: "kill@2"})
        assert (clean.failures, clean.salvaged) == (0, 0)
        assert (chaotic.failures, chaotic.salvaged) == (0, 1)
        assert chaotic.wall_seconds <= 1.5 * clean.wall_seconds


class TestDegradationLadder:
    def test_zero_reachable_workers_falls_back_locally(self, tmp_path):
        from repro.fleet.config import FleetConfig
        from repro.fleet.harness import free_port

        cfg = FleetConfig(
            workers=(f"127.0.0.1:{free_port()}",),
            connect_grace=1.0, reconnect_attempts=2,
        )
        with pytest.warns(RuntimeWarning, match="no worker reachable"):
            report = run_campaign(
                ["sleep:0.05#a", "sleep:0.05#b"],
                fleet=cfg, cache_dir=str(tmp_path),
            )
        assert report.failures == 0
        assert report.units_total == 2
        assert report.fleet["degraded"] is True
        assert _forked(report.outcomes)

    def test_all_workers_dead_finishes_locally(self, tmp_path):
        cache = str(tmp_path / "cache")
        with LocalFleet(nworkers=2, cache_dir=cache,
                        chaos={0: "kill@1", 1: "kill@1"}) as fleet:
            with pytest.warns(RuntimeWarning, match="degrading to local"):
                report = run_campaign(
                    [f"sleep:0.2#{i}" for i in range(4)],
                    fleet=fleet.config, cache_dir=cache,
                )
        assert report.failures == 0
        assert report.units_total == 4
        assert report.fleet["degraded"] is True
        # Each worker cached one unit before dying: salvaged, never
        # recomputed.  The remainder ran on forked rescue workers, never
        # in the coordinator process.
        assert report.salvaged == 2
        assert _forked([o for o in report.outcomes if o.status == "ran"])


class TestCoordinatorRestartSalvage:
    def test_remembered_worker_dirs_swept_before_dispatch(self, tmp_path):
        """A worker cache dir recorded by a dead coordinator run is
        salvaged wholesale by the next campaign: zero recomputes."""
        worker_dir = str(tmp_path / "worker-cache")
        main_dir = str(tmp_path / "main-cache")
        selectors = [f"sleep:0.1#{i}" for i in range(4)]
        # The "previous" campaign: workers computed everything into
        # their local cache, coordinator died before hearing about it.
        donor = run_campaign(selectors, cache_dir=worker_dir)
        assert donor.failures == 0
        remember_worker_dir(ResultCache(main_dir), worker_dir)

        t0 = time.perf_counter()
        with LocalFleet(nworkers=1, cache_dir=main_dir) as fleet:
            report = run_campaign(selectors, fleet=fleet.config,
                                  cache_dir=main_dir)
        assert report.failures == 0
        assert report.salvaged == len(selectors)
        # Salvage is a disk walk, not a recompute: far under the 0.4 s
        # of sleeping the units would need.
        assert time.perf_counter() - t0 < 30


class TestLocalPoolRequeue:
    def test_killed_worker_unit_retries_under_attempt_budget(
            self, tmp_path):
        """SIGKILL the only forked worker mid-unit; with max_attempts=2
        the lost unit is re-dispatched (or salvaged from its cache
        write) instead of failing."""
        import multiprocessing as mp
        import threading

        def _killer():
            deadline = time.time() + 10
            while time.time() < deadline:
                children = mp.active_children()
                if children:
                    time.sleep(0.2)  # let it take the unit, not finish
                    for child in mp.active_children():
                        if child.pid:
                            os.kill(child.pid, signal.SIGKILL)
                    return
                time.sleep(0.05)

        thread = threading.Thread(target=_killer, daemon=True)
        thread.start()
        try:
            outcomes = run_campaign(
                ["sleep:1.5#requeue"], workers=2, max_attempts=2,
                cache_dir=str(tmp_path),
            ).outcomes
        finally:
            thread.join(timeout=15)

        assert len(outcomes) == 1
        (outcome,) = outcomes
        assert outcome.status in ("ran", "salvaged")
        assert outcome.attempt == 2


def _forked(outcomes) -> bool:
    """Every outcome ran in another process than this one."""
    return bool(outcomes) and all(
        o.host and o.host.rpartition(":")[2] != str(os.getpid())
        for o in outcomes
    )
