"""The run supervisor: detectors + buddy snapshots + recovery policies.

:func:`run_agcm_guarded` is the closed loop the robustness story ends
in: run the parallel AGCM under a :class:`~repro.guard.config.
GuardConfig`, catch both machine failures
(:class:`~repro.parallel.scheduler.RankFailedError`) and numerical
alarms (:class:`~repro.guard.detectors.NumericalHealthError`), and heal
according to the policy — restore the cheapest valid snapshot (buddy ->
disk -> cold start), optionally integrate through the rough patch with a
reduced time step (``rollback_adapt``), and account every attempt's lost
virtual time.  Each decision lands in :class:`GuardOutcome.decisions`
and, when an observer is live, in the ``guard.decisions.*`` counters.

The bit-exactness contract: with ``rollback_retry`` and transient
corruptions, the recovered trajectory equals the fault-free one
bit-for-bit (asserted against the *serial* AGCM by the
``guard-buddy-nan-recovery`` differential pair).  ``rollback_adapt``
deliberately changes the trajectory (smaller dt through ``adapt_steps``
steps) and therefore trades that exactness for liveness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.faults.checkpoint import Checkpointer, CheckpointCorruptError
from repro.grid.decomposition import Decomposition
from repro.guard.buddy import BuddyCheckpointer, ChainCheckpointer
from repro.guard.config import GuardConfig
from repro.guard.detectors import (
    NULL_GUARD,
    HealthVerdict,
    NumericalHealthError,
    StepGuard,
)
from repro.guard.policies import PolicyDecision, make_policy
from repro.model.config import AGCMConfig
from repro.model.parallel_agcm import agcm_rank_program
from repro.obs.spans import NULL_OBSERVER, get_active
from repro.parallel.machine import MachineModel
from repro.parallel.scheduler import RankFailedError, Simulator
from repro.parallel.trace import SimResult

__all__ = ["GuardOutcome", "run_agcm_guarded"]


@dataclass
class GuardOutcome:
    """Everything a supervised AGCM run went through, end to end.

    ``total_elapsed`` charges every attempt (lost work up to each alarm
    or failure, plus the successful attempt).  ``recoveries`` counts the
    restarts; ``disk_checkpoints`` the coordinated disk snapshots written.
    """

    result: SimResult
    total_elapsed: float
    recoveries: int
    decisions: List[PolicyDecision]
    alarms: List[NumericalHealthError]
    failures: List[Tuple[int, float]]
    resumed_steps: List[int]
    buddy_checkpoints: int
    disk_checkpoints: int

    def describe(self) -> str:
        lines = [
            f"guarded run: {self.recoveries} recovery(ies), "
            f"{self.buddy_checkpoints} buddy + {self.disk_checkpoints} disk "
            f"checkpoint(s), total {self.total_elapsed:.6g} virtual s"
        ]
        lines.extend("  " + d.describe() for d in self.decisions)
        return "\n".join(lines)


def _count_decision(obs, kind: str, source: str) -> None:
    if obs.enabled:
        obs.metrics.counter(f"guard.decisions.{kind}").inc()
        if source != "none":
            obs.metrics.counter(f"guard.restore.{source}").inc()


def _restore(buddy: Optional[BuddyCheckpointer], disk: Optional[Checkpointer],
             failed_rank: Optional[int]):
    """Cheapest valid snapshot: buddy, then disk, then cold start.

    Returns ``(resume_or_None, source, note)``.  A corrupt disk
    checkpoint (:class:`CheckpointCorruptError`) is treated as "no
    checkpoint": a ``RuntimeWarning`` plus a note on the decision — a
    broken snapshot must not kill the recovery path.
    """
    if buddy is not None:
        data = buddy.load(failed_rank)
        if data is not None:
            return data, "buddy", ""
    note = ""
    if disk is not None:
        try:
            data = disk.load()
        except CheckpointCorruptError as exc:
            warnings.warn(
                f"ignoring corrupt checkpoint during recovery "
                f"(cold start instead): {exc}",
                RuntimeWarning,
                stacklevel=3,
            )
            data, note = None, f"disk checkpoint unusable: {exc.reason}"
        if data is not None:
            return data, "disk", note
    return None, "cold", note


def run_agcm_guarded(
    cfg: AGCMConfig,
    decomp: Decomposition,
    nsteps: int,
    machine: MachineModel,
    *,
    guard: Optional[GuardConfig] = None,
    faults=None,
    checkpoint_every: int = 0,
    checkpoint_path=None,
    record_events: bool = False,
    return_fields: bool = True,
    restart_overhead: float = 0.0,
    observer=None,
) -> GuardOutcome:
    """Run the parallel AGCM to completion under guard supervision.

    ``guard=None`` supervises with the default
    :class:`~repro.guard.config.GuardConfig` (all detectors on, buddy
    snapshots every 2 steps, ``rollback_retry``).  ``checkpoint_every``/
    ``checkpoint_path`` additionally keep the disk
    :class:`~repro.faults.checkpoint.Checkpointer` as the fallback for
    the cases diskless replication cannot cover (rank *and* guardian
    lost, 1-rank mesh).  Machine fault plans (``faults=``) compose with
    guard injections; a consumed rank failure never re-fires.

    ``GuardConfig(detect=False, buddy_every=0)`` with a disk checkpoint
    is plain checkpoint/restart: a config that can neither detect nor
    inject hands the rank program :data:`~repro.guard.detectors.
    NULL_GUARD`, so the run's clocks, spans and trace phases are those
    of an unguarded ``Simulator.run``.

    Raises the triggering exception unmodified under the ``halt``
    policy, or after ``max_recoveries`` is exhausted; a run that
    *completes* with non-finite state (detectors off) raises
    :class:`~repro.guard.detectors.NumericalHealthError` at the end.
    """
    gcfg = guard if guard is not None else GuardConfig()
    policy = make_policy(gcfg.policy)
    step_guard = (
        StepGuard(gcfg) if gcfg.detect or gcfg.injections else NULL_GUARD
    )
    mesh = decomp.mesh
    buddy = BuddyCheckpointer(gcfg.buddy_every, mesh) if gcfg.buddy_every else None
    disk = None
    if checkpoint_every:
        if checkpoint_path is None:
            raise ValueError("checkpoint_every > 0 requires checkpoint_path")
        disk = Checkpointer(checkpoint_every, checkpoint_path)
    mobs = observer if observer is not None else (get_active() or NULL_OBSERVER)

    plan = faults
    resume = None
    total = 0.0
    recoveries = 0
    decisions: List[PolicyDecision] = []
    alarms: List[NumericalHealthError] = []
    failures: List[Tuple[int, float]] = []
    resumed_steps = [0]
    # rollback_adapt segment state: run [restore_step, adapt_end) with a
    # reduced dt, snapshot at the segment end, then resume normally.
    adapt_end: Optional[int] = None
    seg_snap: Optional[BuddyCheckpointer] = None
    base_dt = cfg.timestep()
    adapt_cfg = cfg.with_(dt=base_dt * gcfg.adapt_dt_factor)

    def enter_adapt(restore_step: int) -> Optional[int]:
        nonlocal seg_snap
        end = min(restore_step + gcfg.adapt_steps, nsteps)
        seg_snap = buddy if buddy is not None else BuddyCheckpointer(10**9, mesh)
        # Snapshot the segment's final state only when something resumes
        # from it; a segment reaching nsteps is the end of the run.
        seg_snap.capture_final = end < nsteps
        return end

    extra_buddy_saves = 0

    def leave_adapt() -> None:
        nonlocal seg_snap, adapt_end, extra_buddy_saves
        if seg_snap is not None:
            seg_snap.capture_final = False
            if seg_snap is not buddy:
                extra_buddy_saves += seg_snap.written
        seg_snap = None
        adapt_end = None

    while True:
        in_adapt = adapt_end is not None
        target = adapt_end if in_adapt else nsteps
        run_cfg = adapt_cfg if in_adapt else cfg
        chain = ChainCheckpointer([seg_snap if in_adapt else buddy, disk],
                                  target)
        ckpt = chain if chain.members else None

        sim = Simulator(
            mesh.size, machine,
            record_events=record_events, faults=plan, observer=observer,
        )
        try:
            res = sim.run(
                agcm_rank_program, run_cfg, decomp, target,
                return_fields and target == nsteps,
                checkpointer=ckpt, resume=resume, guard=step_guard,
            )
        except (NumericalHealthError, RankFailedError) as exc:
            failed = isinstance(exc, RankFailedError)
            if failed:
                failures.append((exc.rank, exc.at))
                step, cause = -1, "rank_failure"
            else:
                alarms.append(exc)
                step, cause = exc.step, exc.verdict.detector
            total += exc.at + restart_overhead
            if not policy.rollback or recoveries == gcfg.max_recoveries:
                kind, note = "halt", ""
                if policy.rollback:
                    kind = "giveup"
                    note = f"max_recoveries={gcfg.max_recoveries} exhausted"
                decisions.append(PolicyDecision(
                    exc.at, step, kind, cause, exc.rank, -1, "none", note=note,
                ))
                _count_decision(mobs, kind, "none")
                raise
            recoveries += 1
            if failed:
                if plan is not None:
                    plan = plan.without_failure(exc.rank)
                if buddy is not None:
                    buddy.note_failure(exc.rank)
                if seg_snap is not None and seg_snap is not buddy:
                    seg_snap.note_failure(exc.rank)
            resume, source, note = _restore(
                buddy, disk, exc.rank if failed else None
            )
            restore_step = resume.step if resume is not None else 0
            kind = "adapt" if policy.adapt and not failed else "rollback"
            decisions.append(PolicyDecision(
                exc.at, step, kind, cause, exc.rank, restore_step, source,
                note=note,
            ))
            _count_decision(mobs, kind, source)
            resumed_steps.append(restore_step)
            # An alarm under rollback_adapt starts an adapted segment; a
            # rank failure inside one replays it from the restore.
            if policy.adapt and (in_adapt or not failed):
                adapt_end = enter_adapt(restore_step)
            continue

        total += res.elapsed
        if in_adapt and target < nsteps:
            # Adapted segment done: resume the remainder at the normal dt
            # from the segment-end snapshot (an all-alive local restore).
            resume = seg_snap.load() if seg_snap is not None else None
            leave_adapt()
            resumed_steps.append(resume.step if resume is not None else 0)
            continue

        bad = [r for r in res.returns if not r["finite"]]
        if bad:
            # The run *completed* numerically dead — detection was off
            # (GuardConfig.detect=False) or cadences skipped the step.
            raise NumericalHealthError(
                HealthVerdict(
                    "nonfinite", bad[0]["rank"], nsteps,
                    "non-finite prognostic state at run end "
                    "(guard detection was disabled or skipped)",
                ),
                at=res.elapsed,
            )
        return GuardOutcome(
            result=res,
            total_elapsed=total,
            recoveries=recoveries,
            decisions=decisions,
            alarms=alarms,
            failures=failures,
            resumed_steps=resumed_steps,
            buddy_checkpoints=(
                (buddy.written if buddy is not None else 0) + extra_buddy_saves
            ),
            disk_checkpoints=disk.written if disk is not None else 0,
        )
