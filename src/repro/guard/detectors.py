"""Per-step, per-rank numerical-health detectors for the parallel AGCM.

Three detectors watch the integration (paper Sections 1-2: the polar
filter exists *because* the model blows up without it — the guard is the
runtime check that it actually has not):

* **non-finite** — NaN/Inf anywhere in a rank's prognostic block;
* **CFL** — the *effective* stable time step per latitude row, with the
  advective wind added to the gravity-wave speed, violated on a row the
  polar filter does not cap (reuses :mod:`repro.dynamics.cfl`);
* **drift** — the global energy/mass integrals moved more than the
  :mod:`repro.verify.tolerances` guard bounds since the last check
  (a tiny allreduce, so every rank sees the same verdict).

Detection raises :class:`NumericalHealthError` out of the rank program;
the supervisor (:mod:`repro.guard.supervisor`) catches it and applies
the recovery policy.  Every check charges one streaming pass over the
prognostic block to the machine (``"guard"`` trace phase), keeping the
overhead honest — and the whole apparatus costs *exactly nothing* when
disabled: the rank program tests one ``enabled`` attribute, mirroring
the ``NULL_OBSERVER`` pattern of :mod:`repro.obs.spans`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.dynamics.cfl import (
    CFL_SAFETY,
    gravity_wave_speed,
    stable_dt_by_latitude,
)
from repro.dynamics.state import PHI_SCALE, PROGNOSTIC_NAMES, PT_REFERENCE
from repro.guard.config import GuardConfig, StateCorruption

__all__ = [
    "HealthVerdict",
    "NumericalHealthError",
    "NullGuard",
    "NULL_GUARD",
    "RankGuardState",
    "StepGuard",
]

#: Latitude (deg) poleward of which rows are filter-capped and therefore
#: exempt from the CFL alarm — matches the default filter plan's
#: critical latitude (:mod:`repro.core.masks`).
CFL_EXEMPT_LAT_DEG = 45.0

#: Estimated flops per point-layer of one full detector pass (abs, max,
#: isfinite and the energy sums, fused into one streaming scan).
SCAN_FLOPS_PER_POINT_LAYER = 10.0


@dataclass(frozen=True)
class HealthVerdict:
    """One detector's positive finding: what fired, where, and why."""

    detector: str  # "nonfinite" | "cfl" | "drift"
    rank: int
    step: int
    detail: str


class NumericalHealthError(RuntimeError):
    """A guard detector found the integration numerically unhealthy.

    Carries the :class:`HealthVerdict` plus the virtual time ``at`` so a
    recovery driver can account the lost work, exactly like
    :class:`~repro.parallel.scheduler.RankFailedError` does for machine
    failures.
    """

    def __init__(self, verdict: HealthVerdict, at: float):
        super().__init__(
            f"numerical health alarm [{verdict.detector}] on rank "
            f"{verdict.rank} at step {verdict.step} "
            f"(virtual t={at:.6g} s): {verdict.detail}"
        )
        self.verdict = verdict
        self.rank = verdict.rank
        self.step = verdict.step
        self.at = at


class NullGuard:
    """The disabled guard: one shared instance, one attribute to check.

    Rank programs test ``guard.enabled`` and nothing else on the hot
    path, so a disabled guard adds zero virtual cost and zero Python
    work beyond a single attribute load — same contract as
    :data:`repro.obs.spans.NULL_OBSERVER`.
    """

    __slots__ = ()
    enabled = False


#: Shared no-op guard; interchangeable with ``guard=None``.
NULL_GUARD = NullGuard()


class StepGuard:
    """The live guard one run shares across all ranks and attempts.

    Holds the :class:`~repro.guard.config.GuardConfig` plus the set of
    already-applied injections — consumed corruptions must not re-fire
    after a rollback resets the virtual clocks (the same transiency
    contract as :meth:`repro.faults.plan.FaultPlan.without_failure`).
    """

    enabled = True

    def __init__(self, config: Optional[GuardConfig] = None):
        self.config = config if config is not None else GuardConfig()
        self._consumed: set = set()

    def take_corruption(self, step: int, rank: int) -> Optional[StateCorruption]:
        """The injection due at ``(step, rank)``, consumed on return."""
        for inj in self.config.injections:
            key = (inj.step, inj.rank, inj.field)
            if inj.step == step and inj.rank == rank and key not in self._consumed:
                self._consumed.add(key)
                return inj
        return None

    def rank_state(self, ctx, cfg, grid, sub, dt: float) -> "RankGuardState":
        """Build this rank's detector state (called at program start)."""
        return RankGuardState(self, ctx.rank, grid, sub, dt)


class RankGuardState:
    """Precomputed per-rank detector state + the per-step check.

    Built fresh at the start of every (re)run attempt, so drift
    baselines never leak across a rollback.
    """

    def __init__(self, guard: StepGuard, rank: int, grid, sub, dt: float):
        self.guard = guard
        self.rank = rank
        self.sub = sub
        self.dt = dt
        # CFL: per-local-row zonal spacing and the exempt set — rows the
        # polar filter caps (poleward of the critical latitude) plus rows
        # already violating on gravity-wave speed alone, which are the
        # filter's problem, not the guard's.
        lat_slice = sub.lat_slice
        self._dlon_loc = grid.dlon_m[lat_slice]
        self._c_grav = gravity_wave_speed()
        self._exempt = (
            np.abs(grid.lat_deg[lat_slice]) >= CFL_EXEMPT_LAT_DEG
        ) | (stable_dt_by_latitude(grid)[lat_slice] < dt)
        # Drift: local area weights and the last check's global integrals.
        self._w3 = grid.cell_area[lat_slice][:, None, None]
        self._drift_base: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _state_bytes(self, now: Dict[str, np.ndarray]) -> float:
        return float(sum(a.nbytes for a in now.values()))

    def _scan_nonfinite(self, now: Dict[str, np.ndarray], step: int):
        for name in PROGNOSTIC_NAMES:
            arr = now[name]
            finite = np.isfinite(arr)
            if not finite.all():
                count = int(arr.size - finite.sum())
                return HealthVerdict(
                    "nonfinite", self.rank, step,
                    f"{count} non-finite value(s) in field {name!r}",
                )
        return None

    def _check_cfl(self, now: Dict[str, np.ndarray], step: int):
        wind = np.maximum(np.abs(now["u"]), np.abs(now["v"]))
        row_wind = wind.max(axis=(1, 2))
        eff_dt = self._dlon_loc / ((self._c_grav + row_wind) * CFL_SAFETY)
        bad = np.nonzero((eff_dt < self.dt) & ~self._exempt)[0]
        if bad.size:
            rows = [int(r) + self.sub.lat0 for r in bad[:8]]
            return HealthVerdict(
                "cfl", self.rank, step,
                f"{bad.size} unfiltered row(s) violate the effective CFL "
                f"bound (global rows {rows}, max wind "
                f"{float(row_wind[bad].max()):.4g} m/s, dt {self.dt:.4g} s)",
            )
        return None

    def _local_integrals(self, now: Dict[str, np.ndarray]) -> np.ndarray:
        # Local block's share of the kinetic and available-potential
        # energy integrals plus the mass integral — summed globally by an
        # allreduce.
        ke = float(
            (0.5 * now["pt"] * (now["u"] ** 2 + now["v"] ** 2) * self._w3).sum()
        )
        anomaly = now["pt"] - PT_REFERENCE
        pe = float((0.5 * PHI_SCALE / PT_REFERENCE * anomaly**2 * self._w3).sum())
        mass = float((now["ps"] * self._w3).sum())
        return np.array([ke, pe, mass])

    def _drift_verdict(self, totals: np.ndarray, step: int):
        base = self._drift_base
        if base is None:
            return None
        cfg = self.guard.config
        energy, energy0 = totals[0] + totals[1], base[0] + base[1]
        rel_e = abs(energy - energy0) / max(abs(energy0), 1e-30)
        rel_m = abs(totals[2] - base[2]) / max(abs(base[2]), 1e-30)
        if rel_e > cfg.energy_drift_limit:
            return HealthVerdict(
                "drift", self.rank, step,
                f"total energy moved {rel_e:.3g}x relative "
                f"(limit {cfg.energy_drift_limit:g}) since the last check",
            )
        if rel_m > cfg.mass_drift_limit:
            return HealthVerdict(
                "drift", self.rank, step,
                f"mass integral moved {rel_m:.3g}x relative "
                f"(limit {cfg.mass_drift_limit:g}) since the last check",
            )
        return None

    # ------------------------------------------------------------------
    def check(self, ctx, step: int, now: Dict[str, np.ndarray]):
        """Generator: inject due corruptions, then run the due detectors.

        Raises :class:`NumericalHealthError` on the first positive
        verdict.  The whole check charges one streaming pass over the
        prognostic block (plus a 3-float allreduce on drift-check steps).
        """
        inj = self.guard.take_corruption(step, self.rank)
        if inj is not None:
            now[inj.field].flat[0] = np.nan
            ctx.instant("guard.inject", step=step, field=inj.field)
            ctx.metrics.counter("guard.injections").inc()
        cfg = self.guard.config
        if not cfg.detect:
            return
        nan_due = cfg.nan_every and step % cfg.nan_every == 0
        cfl_due = cfg.cfl_every and step % cfg.cfl_every == 0
        drift_due = cfg.drift_every and step % cfg.drift_every == 0
        if not (nan_due or cfl_due or drift_due):
            return
        npts_layers = now["pt"].size
        yield from ctx.compute(
            mem_bytes=self._state_bytes(now),
            flops=SCAN_FLOPS_PER_POINT_LAYER * npts_layers,
            inner_length=self.sub.nlon,
            label="guard.scan",
        )
        verdict = None
        if nan_due:
            verdict = self._scan_nonfinite(now, step)
        if verdict is None and cfl_due:
            verdict = self._check_cfl(now, step)
        if verdict is None and drift_due:
            # Collective: every rank reaches this at the same steps (the
            # cadence is config-driven), so the allreduce always matches.
            with ctx.span("guard.drift", step=step):
                totals = yield from ctx.allreduce(self._local_integrals(now))
            verdict = self._drift_verdict(totals, step)
            self._drift_base = totals
        if verdict is not None:
            ctx.instant(
                "guard.alarm", detector=verdict.detector, step=step,
                detail=verdict.detail,
            )
            ctx.metrics.counter("guard.alarms").inc()
            ctx.metrics.counter(f"guard.alarms.{verdict.detector}").inc()
            raise NumericalHealthError(verdict, at=ctx.clock)
        ctx.metrics.counter("guard.checks").inc()
