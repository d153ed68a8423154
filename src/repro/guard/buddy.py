"""Diskless buddy checkpointing: neighbour-replicated in-memory snapshots.

The disk :class:`~repro.faults.checkpoint.Checkpointer` funnels every
rank's :class:`~repro.model.snapshot.RankSnapshot` to rank 0 (gather
cost grows with the mesh) and pays the host-I/O rate.  The buddy scheme
instead keeps two copies of every snapshot in *RAM*: each rank memcpys
its own snapshot and ships one replica to a partner rank one step around a
topology ring (:meth:`~repro.parallel.topology.ProcessorMesh.buddy_of`)
— a pairwise ``sendrecv``, no collective, no host I/O.  Cost per
checkpoint is one memcpy plus one neighbour message, independent of the
mesh size; that is why buddy checkpointing beats the disk path at scale
(held at 240 ranks by ``tests/verify/test_paper_numbers.py``).

Failure coverage is the classic diskless trade-off: a *single* rank
failure (or a detected blow-up, which loses nothing) is recoverable from
RAM; losing a rank *and* its guardian before the next replication round
is not — :meth:`BuddyCheckpointer.load` then returns ``None`` and the
supervisor falls back to the disk checkpoint (or a cold start).

The host-side object stores the snapshots (like the disk ``Checkpointer``
it is shared by all rank programs of a run), but validity mirrors what
real RAM would hold: a failed rank loses its own snapshot *and* the
replica it kept for its ward until the next save refreshes both.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.model.snapshot import RankSnapshot
from repro.parallel.topology import ProcessorMesh

_TAG_BUDDY = 0x00DD0001
_TAG_RESTORE = 0x00DD0002


class BuddyRestartData:
    """One recoverable buddy checkpoint, ready to restore into a run.

    Mirrors :class:`~repro.faults.checkpoint.CheckpointData` as far as
    the rank program cares: a ``step`` attribute and a ``restore``
    generator returning each rank's :class:`RankSnapshot`.
    """

    def __init__(self, step: int, snapshots: List[RankSnapshot],
                 mesh: ProcessorMesh, failed_rank: Optional[int] = None):
        self.step = step
        self.snapshots = snapshots
        self.mesh = mesh
        self.failed_rank = failed_rank

    def restore(self, ctx, decomp):
        """Generator: restore this rank's state at memcpy + link cost.

        Survivors memcpy their own snapshot back; a failed rank receives
        its replica from its guardian (one neighbour message — the whole
        point of the scheme).  No rank-0 funnel, no host I/O.
        """
        snap = self.snapshots[ctx.rank]
        if self.failed_rank is None or self.mesh.size == 1:
            yield from ctx.memcpy(snap.nbytes, label="guard.buddy_restore")
        else:
            failed = self.failed_rank
            guardian = self.mesh.buddy_of(failed)
            if ctx.rank == guardian:
                replica = self.snapshots[failed]
                yield from ctx.send(
                    failed, replica, tag=_TAG_RESTORE,
                    nbytes=replica.nbytes, droppable=False,
                )
                yield from ctx.memcpy(snap.nbytes, label="guard.buddy_restore")
            elif ctx.rank == failed:
                snap = yield from ctx.recv(guardian, tag=_TAG_RESTORE)
            else:
                yield from ctx.memcpy(snap.nbytes, label="guard.buddy_restore")
        ctx.instant("guard.restore", step=self.step, source="buddy")
        return snap.copy()


class BuddyCheckpointer:
    """Periodic diskless neighbour-replicated checkpoints.

    Drop-in for the disk :class:`~repro.faults.checkpoint.Checkpointer`
    inside :func:`~repro.model.parallel_agcm.agcm_rank_program`: same
    ``due``/``save`` generator interface, but ``save`` costs one local
    memcpy plus one pairwise ``sendrecv`` per rank instead of a global
    gather + npz write.

    ``capture_final=True`` additionally snapshots after the *last* step
    of a run — used by the ``rollback_adapt`` policy to hand the adapted
    segment's end state to the resumed normal-dt run.
    """

    def __init__(self, every: int, mesh: ProcessorMesh,
                 capture_final: bool = False):
        if every <= 0:
            raise ValueError(f"buddy interval must be positive, got {every}")
        self.every = every
        self.mesh = mesh
        self.capture_final = capture_final
        self.written = 0
        self.last_step: Optional[int] = None
        # step -> rank -> snapshot, promoted to _home/_replica only once
        # every rank has contributed (a save a failure interrupts must
        # never shadow the last complete snapshot).
        self._pending: Dict[int, Dict[int, RankSnapshot]] = {}
        self._step: Optional[int] = None
        #: rank -> snapshot held in the rank's own memory
        self._home: Dict[int, RankSnapshot] = {}
        #: rank -> replica of that rank's snapshot held at its guardian
        self._replica: Dict[int, RankSnapshot] = {}

    # -- rank-program interface (mirrors Checkpointer) -------------------
    def due(self, step: int, nsteps: int) -> bool:
        """Snapshot after ``step``?  Periodic, plus optionally the final
        step (``capture_final``) so a bounded segment can hand off."""
        done = step + 1
        if done % self.every == 0 and done < nsteps:
            return True
        return self.capture_final and done == nsteps

    def save(self, ctx, snap: RankSnapshot):
        """Generator: memcpy the local snapshot, swap replicas pairwise.

        Each rank sends its snapshot to its guardian (``buddy_of``) and
        receives its ward's — one ``sendrecv`` around the ring, with the
        message exempt from fault-injected drops (recovery traffic is
        the control plane).  No barrier: the pairwise exchange is the
        only synchronisation the scheme needs.
        """
        stored = snap.copy()
        nbytes = stored.nbytes
        with ctx.span("guard.buddy_save", step=snap.step):
            yield from ctx.memcpy(nbytes, label="guard.buddy_memcpy")
            guardian = self.mesh.buddy_of(ctx.rank)
            if guardian is not None:
                yield from ctx.sendrecv(
                    dest=guardian, payload=None, source=self.mesh.ward_of(ctx.rank),
                    tag=_TAG_BUDDY, nbytes=nbytes, droppable=False,
                )
        self._note_save(ctx.rank, snap.step, stored)

    # -- host-side snapshot store ---------------------------------------
    def _note_save(self, rank: int, step: int, snap: RankSnapshot) -> None:
        pending = self._pending.setdefault(step, {})
        pending[rank] = snap
        if len(pending) == self.mesh.size:
            self._step = step
            self._home = dict(pending)
            self._replica = dict(pending)
            self.written += 1
            self.last_step = step
            self._pending = {
                s: p for s, p in self._pending.items() if s > step
            }

    def note_failure(self, rank: int) -> None:
        """Model the RAM loss of a failed rank: its own snapshot and the
        replica it held for its ward are both gone until the next save."""
        self._home.pop(rank, None)
        ward = self.mesh.ward_of(rank)
        if ward is not None:
            self._replica.pop(ward, None)

    def load(self, failed_rank: Optional[int] = None) -> Optional[BuddyRestartData]:
        """The last complete snapshot, or ``None`` if RAM cannot cover it.

        ``failed_rank=None`` is the blow-up rollback (every rank alive,
        pure local restore — works even on a 1-rank mesh).  With a failed
        rank, its guardian must still hold the replica: if the guardian
        itself died since the last save, or the mesh has no partner to
        hold one, the buddy scheme cannot help and the caller falls back
        to the disk checkpoint.
        """
        if self._step is None:
            return None
        if failed_rank is not None:
            replica = self._replica.get(failed_rank)
            if replica is None:
                return None
            self._home[failed_rank] = replica
        if len(self._home) != self.mesh.size:
            return None
        snapshots = [self._home[r] for r in range(self.mesh.size)]
        return BuddyRestartData(
            self._step, snapshots, self.mesh, failed_rank=failed_rank,
        )


class ChainCheckpointer:
    """Run several checkpointers side by side in one rank program.

    Presents the single ``due``/``save`` interface the AGCM step loop
    expects while dispatching to every member that is due — the
    supervisor uses it to keep cheap frequent buddy snapshots *and* a
    rarer disk checkpoint (the two-failure fallback) in the same run.
    """

    def __init__(self, members, nsteps: int):
        self.members = [m for m in members if m is not None]
        self.nsteps = nsteps

    def due(self, step: int, nsteps: int) -> bool:
        return any(m.due(step, nsteps) for m in self.members)

    def save(self, ctx, snap: RankSnapshot):
        for m in self.members:
            if m.due(snap.step - 1, self.nsteps):
                yield from m.save(ctx, snap)

    @property
    def written(self) -> int:
        return sum(m.written for m in self.members)
