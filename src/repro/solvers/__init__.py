"""Linear solvers for implicit time differencing (paper Section 5's
component wish-list: "fast (parallel) linear system solvers for implicit
time-differencing schemes"): the batched Thomas solve behind the model's
implicit vertical diffusion."""

from repro.solvers.tridiagonal import diffusion_system, solve_tridiagonal

__all__ = [
    "solve_tridiagonal",
    "diffusion_system",
]
