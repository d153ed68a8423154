"""AGCM configuration: resolutions, time steps, filtering and balancing.

The paper's two production resolutions are provided as presets:

* ``"2x2.5x9"``  — 2 deg lat x 2.5 deg lon x 9 layers  (144 x 90 x 9 grid);
* ``"2x2.5x15"`` — the 15-layer variant of Tables 10-11;
* ``"tiny"``     — a small grid for tests and quick examples.

The default time step is derived from the CFL bound at the strong
filter's critical latitude (45 deg) with a safety margin — the paper's
whole point being that filtering poleward of 45 deg makes this step
usable globally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro import constants as c
from repro.core.masks import DEFAULT_STRONG_VARS, DEFAULT_WEAK_VARS
from repro.dynamics.cfl import max_stable_dt
from repro.dynamics.tendencies import DynamicsParams
from repro.grid.sphere import SphericalGrid
from repro.physics.driver import PhysicsParams


@dataclass(frozen=True, kw_only=True)
class AGCMConfig:
    """Everything needed to build and run one AGCM instance.  Keyword-only:
    the field order carries no meaning and has already changed once."""

    nlat: int = 90
    nlon: int = 144
    nlayers: int = 9
    #: Time step [s]; None derives it from the 45-deg CFL bound.
    dt: Optional[float] = None
    #: Dynamics steps between physics calls.
    physics_every: int = 8
    #: One of repro.core.parallel_filter.FILTER_BACKENDS.
    filter_backend: str = "fft-lb"
    #: Enable scheme-3 physics load balancing in the parallel model.
    physics_lb: bool = False
    #: Pairwise-exchange passes per physics call when balancing.
    lb_passes: int = 2
    #: Robert-Asselin coefficient.
    ra_coeff: float = 0.06
    #: Implicit vertical diffusivity [m^2/s]; 0 disables the (backward-
    #: Euler, unconditionally stable) vertical diffusion extension.
    vertical_diffusion: float = 0.0
    #: Layer thickness for the vertical diffusion operator [m].
    dz: float = 500.0
    dynamics: DynamicsParams = field(default_factory=DynamicsParams)
    physics: PhysicsParams = field(default_factory=PhysicsParams)
    #: Safety factor applied to the CFL-derived time step.
    dt_safety: float = 0.5
    #: Initial-condition seed.
    seed: int = 7

    def __post_init__(self) -> None:
        if self.nlat < 4 or self.nlon < 8:
            raise ValueError("grid too small for the C-grid stencils")
        if self.nlayers < 1:
            raise ValueError("nlayers must be >= 1")
        if self.physics_every < 1:
            raise ValueError("physics_every must be >= 1")
        if self.lb_passes < 1:
            raise ValueError("lb_passes must be >= 1")

    # -- derived -----------------------------------------------------------
    def make_grid(self) -> SphericalGrid:
        """The spherical grid of this configuration."""
        return SphericalGrid(self.nlat, self.nlon)

    def timestep(self) -> float:
        """The actual dt [s]: explicit, or CFL-derived at 45 deg."""
        if self.dt is not None:
            return self.dt
        return self.dt_safety * max_stable_dt(self.make_grid(), 45.0)

    def steps_per_day(self) -> int:
        """Dynamics steps per simulated day (rounded up)."""
        dt = self.timestep()
        return max(1, int(round(c.SECONDS_PER_DAY / dt)))

    def with_(self, **kwargs) -> "AGCMConfig":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """Short human-readable label."""
        dlat = 180.0 / self.nlat
        dlon = 360.0 / self.nlon
        return (
            f"{dlat:g} x {dlon:g} x {self.nlayers} "
            f"({self.nlon} x {self.nlat} x {self.nlayers} grid), "
            f"dt={self.timestep():.0f}s, filter={self.filter_backend}"
        )

    # -- named constructors ------------------------------------------------
    # A call like AGCMConfig(90, 144, 15) would force readers to count
    # fields to know what it builds (the dataclass is keyword-only);
    # these spell out the intent.

    @classmethod
    def paper_2x2_5(cls, nlayers: int = 9, **overrides) -> "AGCMConfig":
        """The paper's production 2 deg x 2.5 deg resolution.

        ``nlayers=9`` is the resolution of Tables 4-9, ``nlayers=15``
        the variant of Tables 10-11; any other field may be overridden
        by keyword.
        """
        return cls(nlat=90, nlon=144, nlayers=nlayers, **overrides)

    @classmethod
    def tiny(cls, **overrides) -> "AGCMConfig":
        """A small grid for tests and quick examples.

        The coarse polar rows leave less CFL headroom, hence the
        tighter dt safety factor.
        """
        base = dict(nlat=24, nlon=36, nlayers=4, physics_every=4,
                    dt_safety=0.3)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def from_preset(cls, name: str, **overrides) -> "AGCMConfig":
        """Look up a named preset (``"2x2.5x9"``, ``"2x2.5x15"``,
        ``"tiny"``), optionally overriding fields."""
        if name not in _PRESETS:
            raise KeyError(
                f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
            )
        cfg = _PRESETS[name]
        return cfg.with_(**overrides) if overrides else cfg


#: The paper's production 9-layer resolution (144 x 90 x 9 grid).
PAPER_9LAYER = AGCMConfig.paper_2x2_5()

#: The 15-layer variant of Tables 10-11.
PAPER_15LAYER = AGCMConfig.paper_2x2_5(nlayers=15)

#: A small configuration for tests and quick examples.
TINY = AGCMConfig.tiny()

_PRESETS: Dict[str, AGCMConfig] = {
    "2x2.5x9": PAPER_9LAYER,
    "2x2.5x15": PAPER_15LAYER,
    "tiny": TINY,
}


def make_config(preset: str = "2x2.5x9", **overrides) -> AGCMConfig:
    """Look up a preset configuration, optionally overriding fields.

    Equivalent to :meth:`AGCMConfig.from_preset`; kept as the
    long-standing functional spelling.
    """
    return AGCMConfig.from_preset(preset, **overrides)
