"""Process-parallel campaign scheduler with dynamic self-scheduling.

The scheduler turns a selector list (or named sweep) into work units,
answers what it can from the content-addressed cache, and hands the
remaining units to one dispatcher, :class:`repro.fleet.FleetCoordinator`:
with ``workers > 1`` it forks that many local workers, with ``fleet=``
it drives socket workers (and forks local ones only if the fleet fails
it).  Workers pull from one queue: an idle worker gets the next pending
unit, which *is* the dynamic work distribution of Carretti & Messina's
PM codes, and because the queue is ordered longest-estimate-first
(LPT), a slow unit (``table4`` at 240 nodes) starts at the front instead
of serializing the tail of the campaign.  ``workers=1`` runs in-process,
the serial baseline.

Crash safety: workers write each finished unit to the cache *before*
reporting it, so a campaign killed at any point leaves a prefix of
completed, atomically-written entries behind.  A worker killed
mid-campaign costs its in-flight unit, which is salvaged from the cache,
re-queued or, past ``max_attempts``, quarantined as failed; the campaign
carries on.  ``resume=True`` replays the interrupted campaign's
manifest: completed units come back as cache hits, only the remainder
recomputes.
"""

from __future__ import annotations

import os
import time
from datetime import datetime, timezone
from typing import List, Optional, Sequence

from repro import __version__
from repro.campaign.cache import ResultCache, unit_meta
from repro.util.validation import check_positive_int
from repro.campaign.report import CampaignReport, UnitOutcome
from repro.campaign.units import (
    CampaignUnit,
    describe_sweep,
    enumerate_units,
    execute_unit,
    sort_for_schedule,
    unit_manifest_entry,
)

__all__ = ["run_campaign"]


def _run_one(unit: CampaignUnit, worker: int,
             cache: Optional[ResultCache], observe: bool) -> UnitOutcome:
    """Execute one unit (in whatever process this is) and cache it."""
    t0 = time.perf_counter()
    value = None
    error = None
    metrics = None
    try:
        if observe:
            from repro.obs import Observer, activate

            obs = Observer()
            with activate(obs):
                value = execute_unit(unit)
            metrics = obs.metrics.as_dict()
        else:
            value = execute_unit(unit)
    except Exception as exc:  # noqa: BLE001 - reported per unit
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if cache is not None and error is None:
        cache.put(unit.key, value, meta=unit_meta(unit, seconds, worker))
    return UnitOutcome(
        ident=unit.ident, label=unit.label, key=unit.key,
        status="failed" if error else "ran",
        worker=worker, seconds=seconds, compute_seconds=seconds,
        error=error, result=value, metrics=metrics,
    )


def _campaign_metrics(report: CampaignReport, merged: Sequence) -> None:
    """Fill ``report.metrics``: campaign counters + merged worker data."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter(
        "campaign.units", "work units in the campaign"
    ).inc(report.units_total)
    registry.counter("campaign.cache_hits").inc(report.cache_hits)
    registry.counter("campaign.cache_misses").inc(report.cache_misses)
    registry.counter("campaign.failures").inc(report.failures)
    registry.gauge("campaign.wall_seconds").set(report.wall_seconds)
    registry.gauge(
        "campaign.speedup_vs_serial"
    ).set(report.speedup_vs_serial)
    for w, util in report.worker_utilization().items():
        registry.gauge(f"campaign.worker.{w}.utilization").set(util)
    for data in merged:
        if data:
            registry.merge(data)
    report.metrics = registry


def run_campaign(
    selectors: Optional[Sequence[str]] = None,
    *,
    sweep: Optional[str] = None,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    obs: bool = False,
    use_cache: bool = True,
    results_db: Optional[str] = None,
    fleet=None,
    max_attempts: Optional[int] = None,
) -> CampaignReport:
    """Run a campaign and return its merged :class:`CampaignReport`.

    ``selectors`` are unit selectors (``"table8"``, ``"table8@4x8"``,
    ...); ``sweep`` names a predefined list (``"smoke"``, ``"mini"``,
    ``"full"``).  Exactly one of the two is normally given; with
    neither, the ``smoke`` sweep runs.  ``workers=1`` executes
    in-process (the serial baseline); ``workers > 1`` forks that many
    local workers, each a crash-isolated process.  ``cache_dir``
    enables the content-addressed result store and the resume
    manifest; ``resume=True`` re-plans the last
    interrupted campaign recorded there.  ``obs=True`` runs every unit
    under a per-worker :class:`repro.obs.Observer` and merges all
    worker metrics into ``report.metrics``.  ``results_db`` names a
    :mod:`repro.results` index file: every completed unit is recorded
    there as it arrives (ran/failed rows, hit-counter bumps), keyed on
    the sha256 unit key so replays never duplicate rows.

    ``fleet`` switches dispatch to socket-transport workers (see
    :mod:`repro.fleet`): a :class:`~repro.fleet.FleetConfig`, an
    address spec string (``"host:port,host:port"`` to dial listening
    workers, ``"listen"``/``"listen:host:port"`` to accept dialing
    ones) or True.  If no fleet worker is reachable within the connect
    grace, or every one dies, the campaign forks ``workers`` local
    workers with a warning instead of hanging.  ``max_attempts`` caps
    how many times a unit lost to a dying worker is re-dispatched
    before being quarantined as poison (default: 1 for local workers,
    the FleetConfig's cap — normally 3 — for fleets).
    """
    if selectors is not None and sweep is not None:
        raise ValueError("pass either selectors or sweep=, not both")
    workers = check_positive_int(workers, "workers (campaign pool size)")
    if max_attempts is not None:
        max_attempts = check_positive_int(
            max_attempts, "max_attempts (re-queue cap)"
        )
    fleet_cfg = None
    if fleet is not None:
        from repro.fleet.config import FleetConfig

        fleet_cfg = FleetConfig.coerce(fleet)
    sweep_name = sweep
    if selectors is None:
        sweep_name = sweep or "smoke"
        selectors = describe_sweep(sweep_name)
    selectors = list(selectors)

    cache = ResultCache(cache_dir) if cache_dir else None
    if resume:
        if cache is None:
            raise ValueError("resume=True requires a cache_dir")
        manifest = cache.read_manifest()
        if manifest is None:
            raise ValueError(
                f"nothing to resume: no manifest in {cache_dir!r}"
            )
        selectors = list(manifest["selectors"])
        sweep_name = manifest.get("sweep") or sweep_name

    units = enumerate_units(selectors, __version__)
    if cache is not None:
        cache.write_manifest({
            "version": __version__,
            "sweep": sweep_name,
            "selectors": selectors,
            "workers": workers,
            "started": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "units": [unit_manifest_entry(u) for u in units],
        })

    t0 = time.perf_counter()
    outcomes: List[UnitOutcome] = []

    # -- parent-side cache probe: hits never reach a worker -------------
    pending: List[CampaignUnit] = []
    for unit in units:
        if use_cache and cache is not None and cache.contains(unit.key):
            p0 = time.perf_counter()
            value = cache.get(unit.key)
            if value is not None:
                meta = cache.meta(unit.key)
                outcomes.append(UnitOutcome(
                    ident=unit.ident, label=unit.label, key=unit.key,
                    status="hit", worker=-1,
                    seconds=time.perf_counter() - p0,
                    compute_seconds=float(
                        meta.get("duration", unit.est_cost)
                    ),
                    result=value,
                ))
                continue
        pending.append(unit)

    pending = sort_for_schedule(pending)

    fleet_info = None
    if pending and (workers > 1 or fleet_cfg is not None):
        from repro.fleet.coordinator import FleetCoordinator

        fleet_run = FleetCoordinator(
            fleet_cfg, cache, observe=obs, local_workers=workers,
            max_attempts=max_attempts,
        ).run(pending)
        outcomes.extend(fleet_run.outcomes)
        if fleet_cfg is not None:
            fleet_info = fleet_run.summary()
    else:
        outcomes.extend(_run_one(unit, 0, cache, obs) for unit in pending)
        if fleet_cfg is not None:
            # Every unit was a cache hit: report an idle fleet.
            from repro.fleet.coordinator import FleetRun

            fleet_info = FleetRun([]).summary()

    wall = time.perf_counter() - t0
    order = {u.key: i for i, u in enumerate(units)}
    outcomes.sort(key=lambda o: order.get(o.key, len(order)))
    if results_db is not None:
        # Parent-side recording keeps sqlite single-writer: one
        # connection and one transaction for the whole campaign.  Every
        # unit is already safe in the cache by now, so a crash here
        # loses only index rows that `results ingest` recovers
        # idempotently from the sidecars.
        from repro.results.hooks import record_campaign_outcomes

        record_campaign_outcomes(results_db, outcomes, cache)
    report = CampaignReport(
        sweep=sweep_name or "<custom>",
        workers=max(1, workers),
        wall_seconds=wall,
        outcomes=outcomes,
        cache_dir=cache_dir,
        resumed=resume,
        fleet=fleet_info,
    )
    _campaign_metrics(report, [o.metrics for o in outcomes])
    return report


def default_cache_dir() -> str:
    """The conventional cache location used by the CLI when ``--cache-dir``
    is given without a value."""
    return os.path.join(".repro-campaign-cache")
