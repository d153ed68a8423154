"""AGCM/Physics: column parameterisations with per-column cost accounting."""

from repro.physics.driver import (
    ColumnSet,
    PhysicsParams,
    PhysicsResult,
    block_physics,
    run_physics,
)
from repro.physics.solar import cos_zenith, declination
from repro.physics.clouds import cloud_fraction, cloudy_layer_count, saturation_q
from repro.physics.condensation import (
    large_scale_condensation,
    supersaturated_layers,
)
from repro.physics.convection import convective_adjustment, instability_iterations
from repro.physics.pbl import surface_fluxes
from repro.physics.radiation import longwave_heating, shortwave_heating
from repro.physics.workload import column_flops

__all__ = [
    "ColumnSet",
    "PhysicsParams",
    "PhysicsResult",
    "run_physics",
    "block_physics",
    "cos_zenith",
    "declination",
    "cloud_fraction",
    "cloudy_layer_count",
    "saturation_q",
    "convective_adjustment",
    "large_scale_condensation",
    "supersaturated_layers",
    "instability_iterations",
    "surface_fluxes",
    "longwave_heating",
    "shortwave_heating",
    "column_flops",
]
