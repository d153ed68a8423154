"""The assembled AGCM: configuration, serial driver, parallel rank program."""

from repro.model.agcm import AGCM, StepDiagnostics
from repro.model.config import (
    AGCMConfig,
    PAPER_9LAYER,
    PAPER_15LAYER,
    TINY,
    make_config,
)
from repro.model.parallel_agcm import agcm_rank_program
from repro.model.physics_balance import (
    ColumnFlowPlan,
    PassMove,
    Run,
    plan_column_flow,
)
from repro.model.snapshot import RankSnapshot
from repro.model.timing_report import ComponentBreakdown, per_day

__all__ = [
    "AGCM",
    "StepDiagnostics",
    "AGCMConfig",
    "make_config",
    "PAPER_9LAYER",
    "PAPER_15LAYER",
    "TINY",
    "agcm_rank_program",
    "RankSnapshot",
    "ColumnFlowPlan",
    "PassMove",
    "Run",
    "plan_column_flow",
    "ComponentBreakdown",
    "per_day",
]
