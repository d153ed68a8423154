"""AGCM/Dynamics: C-grid finite differences, CFL analysis, leapfrog stepping."""

from repro.dynamics.geometry import LocalGeometry
from repro.dynamics.state import (
    PHI_SCALE,
    PROGNOSTIC_NAMES,
    PT_REFERENCE,
    ModelState,
    initial_fields_block,
    scatter_initial_fields,
)
from repro.dynamics.tendencies import (
    DynamicsParams,
    compute_tendencies,
    dynamics_flops,
    dynamics_mem_bytes,
)
from repro.dynamics.cfl import (
    CflReport,
    cfl_violation_rows,
    filter_speedup_factor,
    gravity_wave_speed,
    max_stable_dt,
    stable_dt_by_latitude,
)
from repro.dynamics.timestep import (
    DEFAULT_RA_COEFF,
    euler_step,
    leapfrog_step,
    pin_polar_v,
)

__all__ = [
    "LocalGeometry",
    "ModelState",
    "initial_fields_block",
    "scatter_initial_fields",
    "PROGNOSTIC_NAMES",
    "PT_REFERENCE",
    "PHI_SCALE",
    "DynamicsParams",
    "compute_tendencies",
    "dynamics_flops",
    "dynamics_mem_bytes",
    "CflReport",
    "max_stable_dt",
    "stable_dt_by_latitude",
    "cfl_violation_rows",
    "filter_speedup_factor",
    "gravity_wave_speed",
    "euler_step",
    "leapfrog_step",
    "pin_polar_v",
    "DEFAULT_RA_COEFF",
]
