"""Component timing breakdowns and per-day extrapolation (Figure 1 etc.).

The paper reports everything in *seconds per simulated day*.  Simulations
integrate a handful of representative steps (enough to cover at least one
physics call), and :func:`per_day` scales phase timings to a full day.
:class:`ComponentBreakdown` mirrors Figure 1's tree: main body = Dynamics
+ Physics; Dynamics = spectral filtering + finite differences (+ halo +
update).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro import constants as c
from repro.model.config import AGCMConfig
from repro.parallel.trace import SimResult


def per_day(value_per_nsteps: float, nsteps: int, cfg: AGCMConfig) -> float:
    """Scale a quantity measured over ``nsteps`` steps to one simulated day."""
    if nsteps <= 0:
        raise ValueError("nsteps must be positive")
    return value_per_nsteps / nsteps * cfg.steps_per_day()


@dataclass(frozen=True)
class ComponentBreakdown:
    """Per-day component costs of one parallel AGCM run [virtual s/day].

    ``dynamics`` includes filtering, halo, finite differences and the
    update, exactly as the paper's Dynamics module does; fractions are the
    Figure-1 quantities.
    """

    total: float
    dynamics: float
    physics: float
    filtering: float
    halo: float
    fd: float
    retry: float = 0.0
    checkpoint: float = 0.0
    guard: float = 0.0
    #: Pillar lat/lon <-> lev transposes + vertical collectives — only
    #: nonzero on a vertically split (AGCM-3DLF) mesh.
    transpose: float = 0.0

    @property
    def dynamics_fraction(self) -> float:
        """Dynamics share of the main body (Fig. 1 top row)."""
        return self.dynamics / self.total if self.total else 0.0

    @property
    def filtering_fraction_of_dynamics(self) -> float:
        """Filtering share of Dynamics (Fig. 1 bottom row)."""
        return self.filtering / self.dynamics if self.dynamics else 0.0

    @classmethod
    def from_result(
        cls, result: SimResult, nsteps: int, cfg: AGCMConfig
    ) -> "ComponentBreakdown":
        """Extract the breakdown from a parallel-AGCM simulation result."""
        tr = result.trace

        def phase(name: str) -> float:
            if name not in tr.phase_elapsed:
                return 0.0
            return per_day(tr.phase_max(name), nsteps, cfg)

        return cls(
            total=per_day(result.elapsed, nsteps, cfg),
            dynamics=phase("dynamics"),
            physics=phase("physics"),
            filtering=phase("filtering"),
            halo=phase("halo"),
            fd=phase("fd"),
            retry=phase("retry"),
            checkpoint=phase("checkpoint"),
            guard=phase("guard"),
            transpose=phase("transpose"),
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for table rendering."""
        return {
            "total": self.total,
            "dynamics": self.dynamics,
            "physics": self.physics,
            "filtering": self.filtering,
            "halo": self.halo,
            "fd": self.fd,
            "retry": self.retry,
            "checkpoint": self.checkpoint,
            "guard": self.guard,
            "transpose": self.transpose,
        }
