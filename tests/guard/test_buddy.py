"""Buddy topology, snapshot store semantics, and the fallback chain."""

import numpy as np
import pytest

from repro.dynamics.state import PROGNOSTIC_NAMES
from repro.faults.checkpoint import Checkpointer
from repro.grid import Decomposition
from repro.guard import (
    BuddyCheckpointer,
    GuardConfig,
    StateCorruption,
    run_agcm_guarded,
)
from repro.guard.buddy import ChainCheckpointer
from repro.guard.supervisor import _restore
from repro.model import make_config
from repro.model.parallel_agcm import agcm_rank_program
from repro.model.snapshot import RankSnapshot
from repro.parallel import GENERIC, ProcessorMesh, Simulator

pytestmark = pytest.mark.guard

NSTEPS = 6


def _setup(dims=(2, 2)):
    cfg = make_config("tiny", physics_every=2)
    mesh = ProcessorMesh(*dims)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    return cfg, mesh, decomp


def _snapshot(step=2):
    def fields():
        return {n: np.zeros((2, 2, 1)) for n in PROGNOSTIC_NAMES}

    return RankSnapshot(
        now=fields(), prev=fields(),
        forcing_pt=np.zeros((2, 2, 1)), forcing_q=np.zeros((2, 2, 1)),
        time=1.0, step=step, counters={},
    )


class TestBuddyTopology:
    @pytest.mark.parametrize("dims", [(2, 2), (1, 4), (3, 1)])
    def test_buddy_and_ward_are_inverse_bijections(self, dims):
        mesh = ProcessorMesh(*dims)
        buddies = [mesh.buddy_of(r) for r in range(mesh.size)]
        assert sorted(buddies) == list(range(mesh.size))  # bijection
        for r in range(mesh.size):
            assert mesh.buddy_of(r) != r  # never self-guarding
            assert mesh.ward_of(mesh.buddy_of(r)) == r
            assert mesh.buddy_of(mesh.ward_of(r)) == r

    def test_one_rank_mesh_has_no_partner(self):
        mesh = ProcessorMesh(1, 1)
        assert mesh.buddy_of(0) is None
        assert mesh.ward_of(0) is None


class TestSnapshotStore:
    def test_interval_validation(self):
        with pytest.raises(ValueError, match="positive"):
            BuddyCheckpointer(0, ProcessorMesh(2, 2))

    def test_promotion_needs_every_rank(self):
        mesh = ProcessorMesh(2, 2)
        ck = BuddyCheckpointer(1, mesh)
        for rank in range(mesh.size - 1):
            ck._note_save(rank, 2, _snapshot())
        assert ck.load() is None  # incomplete round must not be visible
        ck._note_save(mesh.size - 1, 2, _snapshot())
        assert ck.written == 1 and ck.last_step == 2
        data = ck.load()
        assert data is not None and data.step == 2
        assert len(data.snapshots) == mesh.size

    def test_failure_drops_home_and_held_replica(self):
        mesh = ProcessorMesh(2, 2)
        ck = BuddyCheckpointer(1, mesh)
        for rank in range(mesh.size):
            ck._note_save(rank, 2, _snapshot())
        failed = 1
        guardian = mesh.buddy_of(failed)
        ck.note_failure(failed)
        # the failed rank's replica survives at its guardian ...
        assert ck.load(failed_rank=failed) is not None
        # ... but a snapshot needing the failed rank's own RAM is gone
        assert ck.load(failed_rank=mesh.ward_of(failed)) is None
        # and if the guardian dies too, the replica is lost with it
        for rank in range(mesh.size):
            ck._note_save(rank, 4, _snapshot(step=4))
        ck.note_failure(failed)
        ck.note_failure(guardian)
        assert ck.load(failed_rank=failed) is None

    def test_due_periodic_and_capture_final(self):
        mesh = ProcessorMesh(2, 2)
        ck = BuddyCheckpointer(2, mesh)
        assert [ck.due(s, 6) for s in range(6)] == [
            False, True, False, True, False, False
        ]
        ck.capture_final = True
        assert ck.due(5, 6) is True


class _Recorder:
    """Minimal checkpointer double: periodic due, records save steps."""

    def __init__(self, every):
        self.every = every
        self.saved = []
        self.written = 0

    def due(self, step, nsteps):
        return (step + 1) % self.every == 0

    def save(self, ctx, snap):
        self.saved.append(snap.step)
        self.written += 1
        if False:
            yield


class TestChainCheckpointer:
    def test_dispatches_only_to_due_members(self):
        fast, slow = _Recorder(1), _Recorder(3)
        chain = ChainCheckpointer([fast, None, slow], nsteps=NSTEPS)
        assert len(chain.members) == 2  # None members are dropped
        for step in range(NSTEPS):
            if chain.due(step, NSTEPS):
                # the rank program calls save with the *post-step* count
                list(chain.save(None, _snapshot(step=step + 1)))
        assert fast.saved == [1, 2, 3, 4, 5, 6]
        assert slow.saved == [3, 6]
        assert chain.written == fast.written + slow.written


class TestGuardedRunCheckpointCounts:
    def test_buddy_saves_counted(self):
        cfg, mesh, decomp = _setup()
        out = run_agcm_guarded(
            cfg, decomp, NSTEPS, GENERIC,
            guard=GuardConfig(buddy_every=1), return_fields=False,
        )
        # due at done=1..5 (never after the final step)
        assert out.buddy_checkpoints == NSTEPS - 1
        assert out.disk_checkpoints == 0 and out.recoveries == 0


class TestOneRankMesh:
    def test_local_restore_recovers_without_a_partner(self):
        cfg, mesh, decomp = _setup(dims=(1, 1))
        clean = Simulator(mesh.size, GENERIC).run(
            agcm_rank_program, cfg, decomp, NSTEPS, True
        )
        out = run_agcm_guarded(
            cfg, decomp, NSTEPS, GENERIC,
            guard=GuardConfig(
                policy="rollback_retry", buddy_every=1,
                injections=(StateCorruption(step=3, rank=0),),
            ),
        )
        assert out.recoveries == 1
        assert out.decisions[0].source == "buddy"  # pure local memcpy
        for name, want in clean.returns[0]["fields"].items():
            np.testing.assert_array_equal(
                out.result.returns[0]["fields"][name], want, err_msg=name
            )


class TestFallbackChain:
    def _disk_with_snapshot(self, tmp_path, cfg, mesh, decomp):
        ck = Checkpointer(2, tmp_path / "fallback.npz")
        Simulator(mesh.size, GENERIC).run(
            agcm_rank_program, cfg, decomp, NSTEPS, False, ck
        )
        assert ck.written >= 1
        return ck

    def test_partner_failed_falls_back_to_disk(self, tmp_path):
        cfg, mesh, decomp = _setup()
        disk = self._disk_with_snapshot(tmp_path, cfg, mesh, decomp)
        buddy = BuddyCheckpointer(1, mesh)
        for rank in range(mesh.size):
            buddy._note_save(rank, 2, _snapshot())
        failed = 0
        buddy.note_failure(failed)
        buddy.note_failure(mesh.buddy_of(failed))  # guardian gone too
        resume, source, note = _restore(buddy, disk, failed)
        assert source == "disk" and resume is not None and note == ""
        assert resume.step == disk.last_step

    def test_corrupt_disk_checkpoint_means_cold_start(self, tmp_path):
        cfg, mesh, decomp = _setup()
        disk = self._disk_with_snapshot(tmp_path, cfg, mesh, decomp)
        disk.path.write_bytes(disk.path.read_bytes()[:100])  # truncate
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            resume, source, note = _restore(None, disk, None)
        assert resume is None and source == "cold"
        assert "disk checkpoint unusable" in note

    def test_no_checkpointers_at_all_is_cold(self):
        resume, source, note = _restore(None, None, None)
        assert (resume, source, note) == (None, "cold", "")
