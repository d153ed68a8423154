"""Checkpoint round-trip and bit-for-bit recovery of the parallel AGCM."""

import numpy as np
import pytest

from repro.faults import FaultPlan, LinkFault, RankFailure
from repro.faults.checkpoint import (
    CheckpointCorruptError,
    CheckpointData,
    Checkpointer,
    load_checkpoint,
    save_checkpoint,
)
from repro.grid import Decomposition2D
from repro.guard import GuardConfig, run_agcm_guarded
from repro.model import make_config
from repro.model.agcm import AGCM
from repro.parallel import GENERIC, ProcessorMesh, Simulator


def _cfg():
    return make_config("tiny", physics_every=2)


#: Disk checkpoint/restart only: no detectors, no buddy snapshots.
DISK_ONLY = GuardConfig(detect=False, buddy_every=0)


def _random_snapshot(rng, cfg):
    from repro.dynamics.state import PROGNOSTIC_NAMES

    def fields():
        out = {}
        for name in PROGNOSTIC_NAMES:
            layers = 1 if name == "ps" else cfg.nlayers
            out[name] = rng.standard_normal((cfg.nlat, cfg.nlon, layers))
        return out

    return CheckpointData(
        step=3,
        time=123.5,
        now=fields(),
        prev=fields(),
        forcing_pt=rng.standard_normal((cfg.nlat, cfg.nlon, cfg.nlayers)),
        forcing_q=rng.standard_normal((cfg.nlat, cfg.nlon, cfg.nlayers)),
        counters=[
            {"measure": (0.25, 10, 12), "physics_calls": 2,
             "columns_moved": 7, "phys_compute_seconds": 0.5,
             "phys_compute_steady": 0.4},
            {"measure": None, "physics_calls": 2, "columns_moved": 0,
             "phys_compute_seconds": 0.3, "phys_compute_steady": 0.3},
        ],
    )


class TestSaveLoadRoundTrip:
    def test_bit_for_bit(self, tmp_path, rng):
        cfg = _cfg()
        data = _random_snapshot(rng, cfg)
        path = save_checkpoint(tmp_path / "snap.npz", data)
        back = load_checkpoint(path)
        assert back.step == data.step and back.time == data.time
        for name in data.now:
            np.testing.assert_array_equal(back.now[name], data.now[name])
            np.testing.assert_array_equal(back.prev[name], data.prev[name])
        np.testing.assert_array_equal(back.forcing_pt, data.forcing_pt)
        np.testing.assert_array_equal(back.forcing_q, data.forcing_q)
        assert back.counters == data.counters  # incl. measure as a tuple

    def test_nbytes_positive_and_exact(self, rng):
        data = _random_snapshot(rng, _cfg())
        want = sum(a.nbytes for a in data.now.values())
        want += sum(a.nbytes for a in data.prev.values())
        want += data.forcing_pt.nbytes + data.forcing_q.nbytes
        assert data.total_nbytes() == want

    def test_checkpointer_validation(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            Checkpointer(0, tmp_path / "x.npz")
        ck = Checkpointer(2, tmp_path / "x")  # suffix normalised
        assert ck.path.suffix == ".npz"
        assert ck.load() is None  # nothing written yet

    def test_due_never_after_final_step(self, tmp_path):
        ck = Checkpointer(2, tmp_path / "x.npz")
        assert [ck.due(s, 6) for s in range(6)] == [
            False, True, False, True, False, False
        ]


class TestIntegrity:
    """Corruption must surface as CheckpointCorruptError, never as an
    opaque numpy/zipfile error or — worse — silently wrong state."""

    def _saved(self, tmp_path, rng):
        cfg = _cfg()
        return save_checkpoint(tmp_path / "snap.npz", _random_snapshot(rng, cfg))

    def _rewrite(self, path, mutate):
        with np.load(path, allow_pickle=False) as z:
            arrays = {k: z[k].copy() for k in z.files}
        mutate(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    def test_truncated_archive(self, tmp_path, rng):
        path = self._saved(tmp_path, rng)
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(CheckpointCorruptError, match="unreadable archive") as err:
            load_checkpoint(path)
        assert path.name in str(err.value)  # names the offending file
        assert err.value.reason.startswith("unreadable archive")

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(CheckpointCorruptError, match="unreadable archive"):
            load_checkpoint(path)

    def test_silent_bit_rot_caught_by_checksum(self, tmp_path, rng):
        path = self._saved(tmp_path, rng)

        def flip(arrays):
            arrays["now_u"][0, 0, 0] += 1.0  # archive still loads fine

        self._rewrite(path, flip)
        with pytest.raises(CheckpointCorruptError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_missing_checksum_rejected(self, tmp_path, rng):
        import json

        path = self._saved(tmp_path, rng)

        def strip(arrays):
            meta = json.loads(str(arrays["meta"]))
            del meta["checksum"]
            arrays["meta"] = np.array(json.dumps(meta))

        self._rewrite(path, strip)
        with pytest.raises(CheckpointCorruptError, match="no content checksum"):
            load_checkpoint(path)

    def test_missing_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "never-written.npz")

    def test_checkpointer_load_propagates_corruption(self, tmp_path, rng):
        ck = Checkpointer(2, tmp_path / "ck.npz")
        save_checkpoint(ck.path, _random_snapshot(rng, _cfg()))
        ck.written = 1  # as if the save above went through this instance
        ck.path.write_bytes(ck.path.read_bytes()[:200])
        with pytest.raises(CheckpointCorruptError):
            ck.load()


def _serial_fields(cfg, nsteps):
    serial = AGCM(cfg)
    serial.initialize()
    serial.run(nsteps)
    return serial.state.fields()


@pytest.mark.faults
class TestRecovery:
    """End-to-end: fail a rank mid-run, restart, match the serial model."""

    NSTEPS = 6

    def test_recovery_bit_for_bit(self, tmp_path):
        cfg = _cfg()
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
        from repro.model.parallel_agcm import agcm_rank_program

        probe = Simulator(mesh.size, GENERIC).run(
            agcm_rank_program, cfg, decomp, self.NSTEPS, False
        )
        plan = FaultPlan(
            seed=11,
            link_faults=(LinkFault(drop_rate=0.01),),
            failures=(RankFailure(rank=2, at=0.55 * probe.elapsed),),
        )
        out = run_agcm_guarded(
            cfg, decomp, self.NSTEPS, GENERIC, guard=DISK_ONLY,
            faults=plan, checkpoint_every=2,
            checkpoint_path=tmp_path / "ck.npz",
        )
        assert out.recoveries == 1
        assert out.resumed_steps[0] == 0 and out.resumed_steps[1] > 0
        assert out.disk_checkpoints >= 1
        assert out.total_elapsed > out.result.elapsed  # lost work charged
        ref = _serial_fields(cfg, self.NSTEPS)
        for name, want in ref.items():
            gathered = decomp.gather(
                [out.result.returns[r]["fields"][name]
                 for r in range(mesh.size)]
            )
            np.testing.assert_array_equal(gathered, want, err_msg=name)

    def test_cold_restart_without_checkpoints(self, tmp_path):
        cfg = _cfg()
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
        from repro.model.parallel_agcm import agcm_rank_program

        probe = Simulator(mesh.size, GENERIC).run(
            agcm_rank_program, cfg, decomp, self.NSTEPS, False
        )
        plan = FaultPlan(
            seed=11, failures=(RankFailure(rank=1, at=0.5 * probe.elapsed),)
        )
        out = run_agcm_guarded(
            cfg, decomp, self.NSTEPS, GENERIC, guard=DISK_ONLY, faults=plan,
        )
        assert out.recoveries == 1 and out.resumed_steps == [0, 0]
        ref = _serial_fields(cfg, self.NSTEPS)
        for name, want in ref.items():
            gathered = decomp.gather(
                [out.result.returns[r]["fields"][name]
                 for r in range(mesh.size)]
            )
            np.testing.assert_array_equal(gathered, want, err_msg=name)

    def test_rerun_is_identical(self, tmp_path):
        cfg = _cfg()
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
        plan = FaultPlan(
            seed=5,
            link_faults=(LinkFault(drop_rate=0.02),),
            failures=(RankFailure(rank=0, at=1.0),),
        )

        def go(path):
            return run_agcm_guarded(
                cfg, decomp, self.NSTEPS, GENERIC, guard=DISK_ONLY,
                faults=plan, checkpoint_every=3, checkpoint_path=path,
            )

        a = go(tmp_path / "a.npz")
        b = go(tmp_path / "b.npz")
        assert a.total_elapsed == b.total_elapsed
        assert a.failures == b.failures
        assert a.result.clocks == b.result.clocks

    def test_corrupt_checkpoint_degrades_to_cold_start(
        self, tmp_path, monkeypatch
    ):
        """A torn checkpoint write must cost the recovery its resume
        point, not the whole run: warn, cold-start, still bit-for-bit."""
        import repro.faults.checkpoint as ckpt_mod

        cfg = _cfg()
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
        from repro.model.parallel_agcm import agcm_rank_program

        probe = Simulator(mesh.size, GENERIC).run(
            agcm_rank_program, cfg, decomp, self.NSTEPS, False
        )
        real_save = save_checkpoint

        def torn_write(path, data):
            out = real_save(path, data)
            raw = out.read_bytes()
            out.write_bytes(raw[: len(raw) // 2])
            return out

        monkeypatch.setattr(ckpt_mod, "save_checkpoint", torn_write)
        plan = FaultPlan(
            seed=11, failures=(RankFailure(rank=2, at=0.55 * probe.elapsed),)
        )
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            out = run_agcm_guarded(
                cfg, decomp, self.NSTEPS, GENERIC, guard=DISK_ONLY,
                faults=plan, checkpoint_every=2,
                checkpoint_path=tmp_path / "torn.npz",
            )
        assert out.recoveries == 1
        assert out.resumed_steps == [0, 0]  # cold start, not a crash
        (decision,) = out.decisions
        assert decision.source == "cold"
        assert "disk checkpoint unusable" in decision.note
        assert "unreadable archive" in decision.note
        ref = _serial_fields(cfg, self.NSTEPS)
        for name, want in ref.items():
            gathered = decomp.gather(
                [out.result.returns[r]["fields"][name]
                 for r in range(mesh.size)]
            )
            np.testing.assert_array_equal(gathered, want, err_msg=name)

    def test_max_recoveries_exhausted(self, tmp_path):
        from repro.parallel import RankFailedError

        cfg = _cfg()
        mesh = ProcessorMesh(2, 2)
        decomp = Decomposition2D(cfg.nlat, cfg.nlon, mesh)
        # a failure at t=0 re-injected manually is consumed after one
        # restart, so exhaustion needs max_recoveries=0
        plan = FaultPlan(seed=0, failures=(RankFailure(rank=0, at=0.0),))
        with pytest.raises(RankFailedError):
            run_agcm_guarded(
                cfg, decomp, self.NSTEPS, GENERIC, faults=plan,
                guard=DISK_ONLY.with_(max_recoveries=0),
            )
