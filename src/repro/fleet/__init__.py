"""Distributed campaign fleet: socket-transport workers with recovery.

The campaign scheduler (:mod:`repro.campaign`) hands every
``workers > 1`` campaign to this package's coordinator, which forks
local workers; the same coordinator drives workers on other machines
with nothing but the standard library:

* :mod:`repro.fleet.frames` — length-prefixed JSON/pickle frame codec;
* :mod:`repro.fleet.config` — :class:`FleetConfig` (endpoints,
  heartbeat and backoff knobs, attempt caps);
* :mod:`repro.fleet.worker` — the worker process
  (``python -m repro fleet worker``);
* :mod:`repro.fleet.coordinator` — the one unit dispatcher: forked
  local workers, dead-host detection, unit re-queue, quarantine and the
  degradation ladder;
* :mod:`repro.fleet.salvage` — partial-result recovery from worker
  caches (completed-but-unreported units are never recomputed);
* :mod:`repro.fleet.requeue` — attempt accounting for lost units;
* :mod:`repro.fleet.chaos` — the deterministic seeded chaos harness;
* :mod:`repro.fleet.harness` — :class:`LocalFleet` for tests and CI.

Entry points: ``api.run_campaign(..., options=RunOptions(fleet=...))``,
``python -m repro campaign --fleet HOST:PORT,...`` or ``--listen``.
See ``docs/fleet.md``.
"""

from repro.fleet.chaos import ChaosEvent, ChaosPlan
from repro.fleet.config import FleetConfig, parse_address
from repro.fleet.coordinator import FleetCoordinator, FleetRun
from repro.fleet.requeue import AttemptTracker

__all__ = [
    "AttemptTracker",
    "ChaosEvent",
    "ChaosPlan",
    "FleetConfig",
    "FleetCoordinator",
    "FleetRun",
    "parse_address",
]
