"""Deterministic fault injection, checkpoint/restart, and mitigation.

The resilience axis of the virtual machine (see ``docs/resilience.md``):

* :mod:`repro.faults.plan` — seeded :class:`FaultPlan` scheduling
  compute slowdowns, message drops/delays with retransmit, and rank
  failures; pass it to ``Simulator(..., faults=plan)``.
* :mod:`repro.faults.checkpoint` — coordinated checkpoints of the
  parallel AGCM's prognostic state and restart-from-last-checkpoint
  after an injected failure (the restart loop is
  :func:`repro.guard.supervisor.run_agcm_guarded`).
* :mod:`repro.faults.mitigation` — measured-time-driven scheme-3
  rebalancing that absorbs injected stragglers.

``checkpoint`` symbols are loaded lazily: that module imports the model
package, which itself imports :mod:`repro.faults.mitigation`, and the
lazy hop keeps the cycle open.
"""

from repro.faults.mitigation import (
    LoadMeasurement,
    estimate_rank_loads,
    physics_imbalance,
    run_straggler_demo,
    straggler_imbalance_metrics,
)
from repro.faults.plan import (
    ANY,
    Delivery,
    FaultPlan,
    FaultSpec,
    LinkFault,
    RankFailure,
    RetryPolicy,
    SlowdownWindow,
)

_CHECKPOINT_SYMBOLS = (
    "CheckpointCorruptError",
    "CheckpointData",
    "Checkpointer",
    "load_checkpoint",
    "save_checkpoint",
)

__all__ = [
    "ANY",
    "Delivery",
    "FaultPlan",
    "FaultSpec",
    "LinkFault",
    "RankFailure",
    "RetryPolicy",
    "SlowdownWindow",
    "LoadMeasurement",
    "estimate_rank_loads",
    "physics_imbalance",
    "run_straggler_demo",
    "straggler_imbalance_metrics",
    *_CHECKPOINT_SYMBOLS,
]


def __getattr__(name):
    if name in _CHECKPOINT_SYMBOLS:
        from repro.faults import checkpoint

        return getattr(checkpoint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
