"""Process-parallel campaign runner with content-addressed result caching.

A *campaign* is a sweep over the experiment registry: every table and
figure of the paper, at every enumerated parameter point (mesh, machine,
variant), executed as independent work units.  The pieces:

* :mod:`repro.campaign.units` — selectors, sweeps and unit enumeration
  on top of :class:`repro.reporting.experiments.ParamPoint`;
* :mod:`repro.campaign.scheduler` — the ``multiprocessing`` pool with
  dynamic longest-first self-scheduling and crash-tolerant collection;
* :mod:`repro.campaign.cache` — the content-addressed on-disk store
  (key = SHA-256 of ident + canonical params + repro version) that makes
  reruns replay only invalidated units;
* :mod:`repro.campaign.report` — merged per-unit status, cache hit/miss
  accounting, worker utilization and speedup-vs-serial.

Front doors: :func:`repro.api.run_campaign` and
``python -m repro campaign [--workers N] [--cache-dir P] [--resume]``.
See ``docs/campaign.md``.
"""

from repro.campaign.cache import ResultCache, cache_key, canonical_params
from repro.campaign.report import CampaignReport, UnitOutcome
from repro.campaign.scheduler import run_campaign
from repro.campaign.units import (
    SWEEPS,
    CampaignUnit,
    enumerate_units,
    execute_unit,
    sort_for_schedule,
)

__all__ = [
    "CampaignReport",
    "CampaignUnit",
    "ResultCache",
    "SWEEPS",
    "UnitOutcome",
    "cache_key",
    "canonical_params",
    "enumerate_units",
    "execute_unit",
    "run_campaign",
    "sort_for_schedule",
]
