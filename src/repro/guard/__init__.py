"""repro.guard — numerical-health supervision and self-healing recovery.

The robustness layer on top of :mod:`repro.faults`: per-step health
detectors (NaN/Inf, effective-CFL, energy/mass drift), diskless buddy
checkpointing (neighbour-replicated in-memory snapshots at memcpy+link
cost), and a recovery-policy engine (``halt`` / ``rollback_retry`` /
``rollback_adapt``) wired together by
:func:`~repro.guard.supervisor.run_agcm_guarded` and reachable through
``repro.api.run(..., options=RunOptions(guard=...))``.  See
``docs/resilience.md``.
"""

from repro.guard.buddy import (
    BuddyCheckpointer,
    BuddyRestartData,
    ChainCheckpointer,
)
from repro.guard.config import POLICY_NAMES, GuardConfig, StateCorruption
from repro.guard.detectors import (
    NULL_GUARD,
    HealthVerdict,
    NullGuard,
    NumericalHealthError,
    RankGuardState,
    StepGuard,
)
from repro.guard.policies import PolicyDecision, RecoveryPolicy, make_policy
from repro.guard.supervisor import GuardOutcome, run_agcm_guarded

__all__ = [
    "BuddyCheckpointer",
    "BuddyRestartData",
    "ChainCheckpointer",
    "GuardConfig",
    "GuardOutcome",
    "HealthVerdict",
    "NULL_GUARD",
    "NullGuard",
    "NumericalHealthError",
    "POLICY_NAMES",
    "PolicyDecision",
    "RankGuardState",
    "RecoveryPolicy",
    "StateCorruption",
    "StepGuard",
    "make_policy",
    "run_agcm_guarded",
]
