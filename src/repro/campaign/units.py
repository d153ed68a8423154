"""Campaign work units: enumeration, sweeps and execution.

A *unit* is one ``(experiment ident, parameter point)`` pair — the atom
the scheduler shards across workers and the cache memoizes.  Units are
named by selectors:

``"table8"``
    every enumerable point of ``table8`` (one unit per mesh);
``"table8@4x8"``
    a single point;
``"sleep:0.2#3"``
    a synthetic unit that sleeps 0.2 wall seconds.  Synthetic units cost
    a fixed, hardware-independent amount, which makes them the probe the
    benchmark gate uses to measure pure scheduler concurrency (real
    compute cannot speed up on a single core; a calibrated sleep can
    overlap on any machine).  The ``#tag`` suffix distinguishes
    otherwise-identical units.

Sweeps are named selector lists: ``"smoke"`` is the deterministic
mid-sized set behind the benchmark gate, ``"mini"`` the tiny set CI runs
twice to check cache-hit accounting, ``"full"`` everything in the
registry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.campaign.cache import cache_key
from repro.reporting.experiments import EXPERIMENTS, ParamPoint

__all__ = [
    "CampaignUnit",
    "SLEEP_PREFIX",
    "SWEEPS",
    "enumerate_units",
    "execute_unit",
    "sort_for_schedule",
]

SLEEP_PREFIX = "sleep:"
#: Registry-ident of synthetic units ("sleep:0.2#3" -> ident "sleep").
SLEEP_IDENT = "sleep"

#: Wall-clock weight per cost tier, used only to order the work queue
#: (longest-first, so a slow unit starts early instead of serializing
#: the tail of the campaign).
_TIER_WEIGHT = {"fast": 0.1, "medium": 3.0, "slow": 30.0}

#: Named selector lists.  Every registered experiment is deterministic
#: (virtual time, or the Section-3.4 node model), so a sweep's merged
#: results are bit-identical across worker counts and reruns — the
#: property the differential tests assert.
SWEEPS: Dict[str, Tuple[str, ...]] = {
    "mini": (
        "fig2_3", "fig4_6", "table8@4x4", "table9@4x4", "blockarray",
    ),
    "smoke": (
        "fig1@4x4", "fig_3d", "fig2_3", "fig4_6", "blockarray",
        "table8", "table9", "sp2@4x4", "bigmesh@32x40",
    ),
    "full": tuple(sorted(EXPERIMENTS)),
}


@dataclass(frozen=True)
class CampaignUnit:
    """One schedulable, cacheable work unit."""

    ident: str
    point: ParamPoint
    #: Content-addressed cache key (hash of ident + point + version).
    key: str
    #: Relative cost estimate used for longest-first ordering.
    est_cost: float

    @property
    def label(self) -> str:
        return f"{self.ident}@{self.point.label}"

    @property
    def is_synthetic(self) -> bool:
        return self.ident == SLEEP_IDENT


def _estimate_cost(cost_tier: str, point: ParamPoint) -> float:
    """Tier weight scaled by mesh size, when the point names meshes."""
    est = _TIER_WEIGHT[cost_tier]
    opts = point.as_dict()
    meshes = opts.get("meshes") or ()
    if not meshes and "mesh_dims" in opts:
        meshes = (opts["mesh_dims"],)
    # A mesh may be 2-D (p, q) or 3-D (p, q, k): cost scales with the
    # total rank count either way.
    cells = sum(math.prod(int(d) for d in dims) for dims in meshes)
    if cells:
        est *= 1.0 + cells / 64.0
    return est


def _sleep_unit(selector: str, version: str) -> CampaignUnit:
    """Parse ``sleep:<seconds>[#tag]`` into a synthetic unit."""
    body = selector[len(SLEEP_PREFIX):]
    spec, _, _tag = body.partition("#")
    try:
        seconds = float(spec)
    except ValueError:
        raise ValueError(
            f"bad synthetic selector {selector!r}: expected "
            f"'sleep:<seconds>[#tag]'"
        ) from None
    point = ParamPoint.make(body, seconds=seconds)
    return CampaignUnit(
        ident=SLEEP_IDENT,
        point=point,
        key=cache_key(selector, point.as_dict(), version),
        est_cost=seconds,
    )


def enumerate_units(
    selectors: Sequence[str],
    version: Optional[str] = None,
) -> List[CampaignUnit]:
    """Expand selectors into concrete units (stable order, no dupes)."""
    version = version or __version__
    units: List[CampaignUnit] = []
    seen = set()
    for selector in selectors:
        if selector.startswith(SLEEP_PREFIX):
            expanded = [_sleep_unit(selector, version)]
        else:
            ident, _, label = selector.partition("@")
            if ident not in EXPERIMENTS:
                raise KeyError(
                    f"unknown experiment {ident!r} in selector "
                    f"{selector!r}; available: {sorted(EXPERIMENTS)}"
                )
            spec = EXPERIMENTS[ident]
            points = (spec.point(label),) if label else spec.param_points()
            expanded = [
                CampaignUnit(
                    ident=ident,
                    point=p,
                    key=cache_key(
                        ident,
                        {"point": p.label, "options": p.as_dict()},
                        version,
                    ),
                    est_cost=_estimate_cost(spec.cost, p),
                )
                for p in points
            ]
        for unit in expanded:
            if unit.key not in seen:
                seen.add(unit.key)
                units.append(unit)
    return units


def sort_for_schedule(units: Sequence[CampaignUnit]) -> List[CampaignUnit]:
    """Longest-estimated-first (LPT) order for the dynamic work queue.

    Workers pull the next unit as they free up (dynamic
    self-scheduling), so starting the big units first bounds the tail:
    the campaign never ends with everyone idle while one late-dispatched
    straggler (``table4`` at 240 nodes, say) runs alone.
    """
    return sorted(units, key=lambda u: (-u.est_cost, u.label))


def _resolve_options(options: Dict[str, object]) -> Dict[str, object]:
    """Turn cacheable option values into runner arguments.

    Today that means machine names: a point stores ``machine="t3d"`` (a
    hashable, versionable string) and the runner receives the
    :class:`~repro.parallel.MachineModel` preset.
    """
    if "machine" in options and isinstance(options["machine"], str):
        from repro.parallel import make_machine

        options = dict(options, machine=make_machine(options["machine"]))
    return options


def execute_unit(unit: CampaignUnit):
    """Run one unit and return its raw result value.

    Synthetic units sleep their calibrated duration and return a small
    marker dict; experiment units call the registered runner with the
    point's (resolved) options.
    """
    if unit.is_synthetic:
        seconds = float(unit.point.as_dict()["seconds"])
        time.sleep(seconds)
        return {"slept": seconds, "unit": unit.label}
    spec = EXPERIMENTS[unit.ident]
    return spec(**_resolve_options(unit.point.as_dict()))


def describe_sweep(name: str) -> Tuple[str, ...]:
    """Selector list of a named sweep (KeyError with hints otherwise)."""
    try:
        return SWEEPS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep {name!r}; available: {sorted(SWEEPS)}"
        ) from None


def unit_manifest_entry(unit: CampaignUnit) -> Dict[str, object]:
    return {"ident": unit.ident, "point": unit.point.label,
            "key": unit.key, "selector": unit.label,
            "synthetic": unit.is_synthetic}
