"""Campaign scheduler: accounting, caching, resume, and parallel merge.

The fast tests here drive the serial path with cheap synthetic units.
Everything that forks local workers or runs real experiments carries the
``campaign`` marker and stays out of the default (tier-1) selection:

    python -m pytest -m campaign tests/campaign
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.campaign import run_campaign
from repro.campaign.cache import ResultCache
from repro.campaign.scheduler import _run_one
from repro.campaign.units import enumerate_units

FAST = ["sleep:0.01#a", "sleep:0.01#b", "sleep:0.01#c"]


class TestSerialAccounting:
    def test_cold_run_is_all_misses(self, tmp_path):
        report = run_campaign(FAST, cache_dir=str(tmp_path))
        assert report.units_total == len(FAST)
        assert report.cache_hits == 0
        assert report.cache_misses == len(FAST)
        assert report.failures == 0

    def test_warm_rerun_is_all_hits(self, tmp_path):
        run_campaign(FAST, cache_dir=str(tmp_path))
        report = run_campaign(FAST, cache_dir=str(tmp_path))
        assert report.cache_hits == len(FAST)
        assert report.cache_misses == 0
        assert report.hit_rate == 1.0
        # Hits carry the original compute price, so the estimated
        # serial time stays honest while wall time collapses.
        assert report.serial_seconds > report.wall_seconds

    def test_no_cache_dir_never_hits(self):
        run_campaign(FAST)
        report = run_campaign(FAST)
        assert report.cache_hits == 0

    def test_use_cache_false_recomputes(self, tmp_path):
        run_campaign(FAST, cache_dir=str(tmp_path))
        report = run_campaign(FAST, cache_dir=str(tmp_path),
                              use_cache=False)
        assert report.cache_hits == 0
        assert report.cache_misses == len(FAST)

    def test_partial_warmth(self, tmp_path):
        run_campaign(FAST[:2], cache_dir=str(tmp_path))
        report = run_campaign(FAST, cache_dir=str(tmp_path))
        assert report.cache_hits == 2
        assert report.cache_misses == 1

    def test_outcomes_keep_enumeration_order(self, tmp_path):
        # LPT reorders execution; the report must not leak that.
        sel = ["sleep:0.01#z", "sleep:0.03#a", "sleep:0.02#m"]
        report = run_campaign(sel, cache_dir=str(tmp_path))
        assert [o.label for o in report.outcomes] == [
            u.label for u in enumerate_units(sel)
        ]

    def test_failed_unit_is_counted_not_raised(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (unit,) = enumerate_units(["sleep:0.01#boom"])
        object.__setattr__(unit.point, "options", (("seconds", "bad"),))
        outcome = _run_one(unit, 0, cache, observe=False)
        assert outcome.status == "failed"
        assert outcome.error
        assert not cache.contains(unit.key)

    def test_selectors_and_sweep_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            run_campaign(FAST, sweep="mini")

    def test_resume_requires_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to resume"):
            run_campaign(resume=True, cache_dir=str(tmp_path))


class TestMetricsMerge:
    def test_campaign_counters_present(self, tmp_path):
        report = run_campaign(FAST, cache_dir=str(tmp_path))
        data = report.metrics.as_dict()
        assert data["counters"]["campaign.units"] == len(FAST)
        assert data["counters"]["campaign.cache_misses"] == len(FAST)
        assert "campaign.wall_seconds" in data["gauges"]

    def test_registry_merge_semantics(self):
        from repro.obs import MetricsRegistry

        a = MetricsRegistry()
        a.counter("sim.bytes_sent").inc(10)
        a.gauge("sim.depth").set(3)
        b = MetricsRegistry()
        b.counter("sim.bytes_sent").inc(5)
        b.gauge("sim.depth").set(7)
        a.merge(b)
        merged = a.as_dict()
        assert merged["counters"]["sim.bytes_sent"] == 15
        assert merged["gauges"]["sim.depth"] == 7
        # as_dict form merges identically (what workers actually ship).
        a.merge({"counters": {"sim.bytes_sent": 1}, "gauges": {}})
        assert a.as_dict()["counters"]["sim.bytes_sent"] == 16


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
    if hasattr(a, "__dict__"):
        return _same_value(vars(a), vars(b))
    return a == b


@pytest.mark.campaign
class TestParallelCampaign:
    def test_pool_overlaps_synthetic_work(self, tmp_path):
        sel = [f"sleep:0.2#{i}" for i in range(4)]
        report = run_campaign(sel, workers=4, cache_dir=str(tmp_path))
        assert report.failures == 0
        assert report.cache_misses == 4
        # Four 0.2s sleeps across four workers: well under the 0.8s
        # serial time even with fork overhead.
        assert report.wall_seconds < 0.7
        assert report.speedup_vs_serial > 1.5
        assert len({o.worker for o in report.outcomes}) > 1

    def test_parallel_results_bit_identical_to_serial(self, tmp_path):
        sel = ["fig2_3", "fig4_6", "table8@4x4"]
        serial = run_campaign(sel, workers=1)
        parallel = run_campaign(sel, workers=4)
        assert parallel.failures == 0
        s, p = serial.results(), parallel.results()
        assert s.keys() == p.keys()
        for label in s:
            assert _same_value(s[label], p[label]), label

    def test_warm_hits_match_fresh_compute(self, tmp_path):
        sel = ["fig2_3", "table8@4x4"]
        cold = run_campaign(sel, cache_dir=str(tmp_path))
        warm = run_campaign(sel, cache_dir=str(tmp_path))
        assert warm.cache_hits == len(warm.outcomes)
        c, w = cold.results(), warm.results()
        for label in c:
            assert _same_value(c[label], w[label]), label

    def test_pool_reports_killed_worker_as_failure(self, tmp_path):
        # SIGKILL the worker mid-unit (the way an OOM killer would).
        # The coordinator sees the EOF and must convert the missing
        # outcome into a failure rather than hanging the parent.
        t0 = time.perf_counter()
        outcomes = _run_with_kill(["sleep:30#hang"], tmp_path).outcomes
        assert time.perf_counter() - t0 < 20
        assert len(outcomes) == 1
        assert outcomes[0].status == "failed"
        assert "worker died" in outcomes[0].error

    def test_obs_merges_worker_metrics(self, tmp_path):
        report = run_campaign(["table8@4x4", "table8@4x8"], workers=2,
                              obs=True, cache_dir=str(tmp_path))
        data = report.metrics.as_dict()
        sim_metrics = [
            name for name in data["counters"] if not name.startswith(
                "campaign."
            )
        ]
        assert sim_metrics, data

    def test_single_pending_unit_runs_in_a_forked_worker(self, tmp_path):
        # workers > 1 means crash isolation even for one unit.
        report = run_campaign(["sleep:0.01#alone"], workers=2,
                              cache_dir=str(tmp_path))
        (outcome,) = report.outcomes
        assert outcome.status == "ran"
        assert outcome.worker == 0
        assert outcome.host.rpartition(":")[2] != str(os.getpid())
        assert report.fleet is None

    def test_killed_local_worker_costs_only_its_unit(self, tmp_path):
        """SIGKILL one of two workers mid-unit: its unit is recovered
        (re-run or salvaged), nothing fails, nothing leaks, and the
        results are bit-identical to the in-process baseline."""
        sel = ["sleep:0.6#a", "sleep:0.6#b", "fig2_3", "table8@4x4"]
        before = _child_pids()
        report = _run_with_kill(sel, tmp_path, victims=1, max_attempts=2)
        assert _child_pids() <= before
        assert report.failures == 0
        (lost,) = [o for o in report.outcomes if o.attempt > 1]
        assert lost.status in ("ran", "salvaged")
        assert lost.label.startswith("sleep@0.6#")
        serial = run_campaign(sel, workers=1).results()
        forked = report.results()
        assert serial.keys() == forked.keys()
        for label in serial:
            assert _same_value(serial[label], forked[label]), label

    def test_workers_dying_before_handshake_stop_the_forking(
            self, monkeypatch):
        import repro.fleet.coordinator as coordinator

        monkeypatch.setattr(coordinator, "_serve_forked",
                            lambda *args: os._exit(3))
        before = _child_pids()
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="before their handshake"):
            run_campaign(["sleep:0.01#x", "sleep:0.01#y"], workers=2)
        assert time.perf_counter() - t0 < 20
        assert _child_pids() <= before

    def test_no_child_process_outlives_the_campaign(self, tmp_path):
        before = _child_pids()
        report = run_campaign([f"sleep:0.05#{i}" for i in range(6)],
                              workers=3, cache_dir=str(tmp_path))
        assert report.failures == 0
        assert len({o.host for o in report.outcomes}) > 1
        assert not mp.active_children()
        assert _child_pids() <= before


def _run_with_kill(selectors, tmp_path, victims=None, **knobs):
    """Run a 2-worker campaign while a thread SIGKILLs its workers
    (``victims`` of them; all by default) a moment into their units."""

    def _killer():
        deadline = time.time() + 10
        while time.time() < deadline:
            if mp.active_children():
                time.sleep(0.3)  # let the workers take their units
                for child in mp.active_children()[:victims]:
                    os.kill(child.pid, signal.SIGKILL)
                return
            time.sleep(0.05)

    thread = threading.Thread(target=_killer, daemon=True)
    thread.start()
    try:
        return run_campaign(selectors, workers=2, cache_dir=str(tmp_path),
                            **knobs)
    finally:
        thread.join(timeout=15)


def _child_pids() -> set:
    """Pids whose parent is this process, zombies included (Linux)."""
    if not os.path.isdir("/proc"):
        pytest.skip("needs /proc to list child processes")
    me, found = os.getpid(), set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.add(int(entry))
    return found


@pytest.mark.campaign
class TestResumeAfterKill:
    def test_resume_completes_interrupted_campaign(self, tmp_path):
        """SIGKILL a live 2-worker campaign mid-flight, then resume it.

        Workers cache every finished unit *before* reporting, so the
        killed run leaves completed entries behind; ``--resume`` replays
        the manifest and only the remainder recomputes.
        """
        cache_dir = str(tmp_path / "cache")
        selectors = [f"sleep:0.3#{i}" for i in range(8)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign",
             *selectors, "--workers", "2", "--cache-dir", cache_dir],
            cwd=str(tmp_path),
            env={**os.environ, "PYTHONPATH": _src_path()},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            # Own process group, so the kill below takes the workers
            # down with the CLI parent (SIGKILL skips atexit, which is
            # what normally reaps daemonic children).
            start_new_session=True,
        )
        try:
            deadline = time.time() + 30
            while time.time() < deadline:
                if _cached_entries(cache_dir) >= 2:
                    break
                if proc.poll() is not None:
                    pytest.fail("campaign finished before it was killed")
                time.sleep(0.05)
            else:
                pytest.fail("no cache entries appeared within 30s")
        finally:
            # Kill the process group: the CLI parent and its workers.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=10)

        done_before = _cached_entries(cache_dir)
        assert 2 <= done_before < len(selectors)

        report = run_campaign(resume=True, cache_dir=cache_dir, workers=2)
        assert report.resumed
        assert report.units_total == len(selectors)
        assert report.failures == 0
        assert report.cache_hits >= done_before
        assert report.cache_hits + report.cache_misses == len(selectors)
        # Everything is cached now: a further resume is pure hits.
        again = run_campaign(resume=True, cache_dir=cache_dir)
        assert again.hit_rate == 1.0


def _src_path() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(os.path.dirname(here)), "src")


def _cached_entries(cache_dir: str) -> int:
    if not os.path.isdir(cache_dir):
        return 0
    return sum(
        1
        for _, _, files in os.walk(cache_dir)
        for name in files
        if name.endswith(".pkl")
    )
