"""Serial AGCM driver — the reference implementation.

Runs the complete model (polar filtering -> finite-difference dynamics ->
periodic column physics) on a single address space.  The parallel model
(:mod:`repro.model.parallel_agcm`) must reproduce this driver's fields
exactly; the equivalence is asserted by integration tests.

Step structure (paper Section 2 / 3.3):

1.  Finite-difference tendencies + stored physics forcing.
2.  Spectral polar filtering of the *tendencies* (strong: u, v, pt;
    weak: ps, q).  Filtering the tendencies reduces the effective
    Courant number of each zonal mode to the 45-degree value, which is
    what actually stabilises leapfrog near the poles (damping the fields
    by the same factor would not: a mode with sigma > 1 grows faster
    than the per-step damping).  This matches the AGCM, where the filter
    acts on the prognostic-variable tendencies at each step.
3.  Leapfrog update (forward step first), Robert-Asselin filter,
    polar-v pinning.
4.  Every ``physics_every`` steps: column physics refreshes the forcing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro import constants as c
from repro.core.masks import FilterPlan, make_filter_plan
from repro.core.parallel_filter import apply_serial_filter
from repro.dynamics.geometry import LocalGeometry
from repro.dynamics.implicit import implicit_vertical_diffusion
from repro.dynamics.state import ModelState, PROGNOSTIC_NAMES
from repro.dynamics.tendencies import TendencyWorkspace, compute_tendencies
from repro.dynamics.timestep import euler_step, leapfrog_step, pin_polar_v
from repro.grid.halo import pad_with_halo
from repro.model.config import AGCMConfig
from repro.physics.driver import block_physics


@dataclass
class StepDiagnostics:
    """Per-step bookkeeping from the serial driver."""

    step: int
    time: float
    max_wind: float
    total_mass: float
    physics_ran: bool
    physics_flops: float = 0.0


class AGCM:
    """The serial UCLA-AGCM-style model."""

    def __init__(self, config: AGCMConfig):
        self.config = config
        self.grid = config.make_grid()
        self.geom = LocalGeometry.from_grid(self.grid)
        self._work = TendencyWorkspace(
            config.nlat, config.nlon, config.nlayers)
        self.plan: FilterPlan = make_filter_plan(self.grid)
        self.dt = config.timestep()
        self._prev: Optional[ModelState] = None
        self._now: Optional[ModelState] = None
        self._forcing_pt = np.zeros((config.nlat, config.nlon, config.nlayers))
        self._forcing_q = np.zeros_like(self._forcing_pt)
        self._step_count = 0
        self.diagnostics: list[StepDiagnostics] = []

    # ------------------------------------------------------------------
    def initialize(self, state: Optional[ModelState] = None) -> ModelState:
        """Set the initial condition (default: the baroclinic test)."""
        if state is None:
            state = ModelState.baroclinic_test(
                self.grid, self.config.nlayers, seed=self.config.seed
            )
        self._now = state
        self._prev = None
        self._step_count = 0
        self.diagnostics = []
        return state

    @property
    def state(self) -> ModelState:
        """The current model state."""
        if self._now is None:
            raise RuntimeError("call initialize() first")
        return self._now

    # ------------------------------------------------------------------
    def _filter_tendencies(self, tend: Dict[str, np.ndarray]) -> None:
        """Polar-filter the prognostic tendencies in place."""
        apply_serial_filter(self.plan, tend, method="fft")

    def _tendencies(self, state: ModelState) -> Dict[str, np.ndarray]:
        """Dynamics tendencies + physics forcing on the full globe."""
        padded = {
            name: pad_with_halo(arr) for name, arr in state.fields().items()
        }
        tend = compute_tendencies(
            padded, self.geom, self.config.dynamics, self._work)
        tend["pt"] = tend["pt"] + self._forcing_pt
        tend["q"] = tend["q"] + self._forcing_q
        return tend

    def _run_physics(self, state: ModelState) -> float:
        """Refresh the stored physics forcing; returns total flops."""
        time_frac = (state.time % c.SECONDS_PER_DAY) / c.SECONDS_PER_DAY
        tend_pt, tend_q, flops2d = block_physics(
            state.pt,
            state.q,
            self.grid.lat_rad,
            self.grid.lon_rad,
            time_frac,
            self._step_count,
            self.config.physics,
        )
        self._forcing_pt[...] = tend_pt
        self._forcing_q[...] = tend_q
        return float(flops2d.sum())

    # ------------------------------------------------------------------
    def step(self) -> StepDiagnostics:
        """Advance the model one time step."""
        if self._now is None:
            raise RuntimeError("call initialize() first")
        now = self._now

        physics_ran = self._step_count % self.config.physics_every == 0
        physics_flops = self._run_physics(now) if physics_ran else 0.0

        tend = self._tendencies(now)
        self._filter_tendencies(tend)
        if self._prev is None:
            nxt = euler_step(now, tend, self.dt)
        else:
            nxt = leapfrog_step(
                self._prev, now, tend, self.dt, self.config.ra_coeff
            )
        pin_polar_v(nxt.v, is_north_edge_block=True)
        if self.config.vertical_diffusion > 0:
            # Backward-Euler column diffusion (unconditionally stable);
            # communication-free under the 2-D decomposition.
            for arr in (nxt.pt, nxt.q):
                arr[...] = implicit_vertical_diffusion(
                    arr, self.dt, self.config.vertical_diffusion,
                    self.config.dz,
                )

        self._prev, self._now = now, nxt
        self._step_count += 1
        diag = StepDiagnostics(
            step=self._step_count,
            time=nxt.time,
            max_wind=nxt.max_wind(),
            total_mass=nxt.total_mass(self.grid),
            physics_ran=physics_ran,
            physics_flops=physics_flops,
        )
        self.diagnostics.append(diag)
        return diag

    def run(self, nsteps: int) -> ModelState:
        """Run ``nsteps`` steps; returns the final state."""
        for _ in range(nsteps):
            self.step()
        return self.state

    # ------------------------------------------------------------------
    def is_stable(self) -> bool:
        """Heuristic stability check over the diagnostics so far."""
        return (
            self.state.is_finite()
            and all(d.max_wind < 500.0 for d in self.diagnostics)
        )
