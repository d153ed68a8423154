"""Checkpoint round-trip and bit-for-bit recovery of the parallel AGCM."""

import numpy as np
import pytest

from repro.dynamics.state import PROGNOSTIC_NAMES, initial_fields_block
from repro.faults import FaultPlan, LinkFault, RankFailure
from repro.faults.checkpoint import (
    CheckpointCorruptError,
    CheckpointData,
    Checkpointer,
    load_checkpoint,
    save_checkpoint,
)
from repro.grid import Decomposition
from repro.guard import GuardConfig, run_agcm_guarded
from repro.model import make_config
from repro.model.agcm import AGCM
from repro.model.parallel_agcm import agcm_rank_program
from repro.model.snapshot import RankSnapshot
from repro.parallel import GENERIC, ProcessorMesh, Simulator


def _cfg():
    return make_config("tiny", physics_every=2)


#: Disk checkpoint/restart only: no detectors, no buddy snapshots.
DISK_ONLY = GuardConfig(detect=False, buddy_every=0)


def _random_checkpoint(rng, cfg):
    """Two ranks, each holding one half of the longitudes."""
    shape = (cfg.nlat, cfg.nlon // 2)

    def fields():
        out = {}
        for name in PROGNOSTIC_NAMES:
            layers = 1 if name == "ps" else cfg.nlayers
            out[name] = rng.standard_normal((*shape, layers))
        return out

    counters = [
        {"measure": (0.25, 10, 12), "physics_calls": 2,
         "columns_moved": 7, "phys_compute_seconds": 0.5,
         "phys_compute_steady": 0.4},
        {"measure": None, "physics_calls": 2, "columns_moved": 0,
         "phys_compute_seconds": 0.3, "phys_compute_steady": 0.3},
    ]
    return CheckpointData([
        RankSnapshot(
            now=fields(),
            prev=fields(),
            forcing_pt=rng.standard_normal((*shape, cfg.nlayers)),
            forcing_q=rng.standard_normal((*shape, cfg.nlayers)),
            time=123.5,
            step=3,
            counters=c,
        )
        for c in counters
    ])


@pytest.fixture(scope="module")
def written_2x2(tmp_path_factory):
    """A real checkpoint of a 6-step run on a 2x2 mesh (last at step 4)."""
    cfg = _cfg()
    decomp = Decomposition(cfg.nlat, cfg.nlon, ProcessorMesh(2, 2))
    ck = Checkpointer(2, tmp_path_factory.mktemp("ckpt") / "2x2.npz")
    Simulator(4, GENERIC).run(agcm_rank_program, cfg, decomp, 6, False, ck)
    assert ck.last_step == 4
    return ck


class TestSaveLoadRoundTrip:
    def test_bit_for_bit(self, tmp_path, rng):
        cfg = _cfg()
        data = _random_checkpoint(rng, cfg)
        path = save_checkpoint(tmp_path / "snap.npz", data)
        back = load_checkpoint(path)
        assert len(back.snapshots) == len(data.snapshots)
        for got, want in zip(back.snapshots, data.snapshots):
            assert got.step == want.step and got.time == want.time
            for name in want.now:
                np.testing.assert_array_equal(got.now[name], want.now[name])
                np.testing.assert_array_equal(got.prev[name], want.prev[name])
            np.testing.assert_array_equal(got.forcing_pt, want.forcing_pt)
            np.testing.assert_array_equal(got.forcing_q, want.forcing_q)
            assert got.counters == want.counters  # incl. measure as a tuple

    def test_nbytes_positive_and_exact(self, rng):
        data = _random_checkpoint(rng, _cfg())
        for snap in data.snapshots:
            want = sum(a.nbytes for a in snap.now.values())
            want += sum(a.nbytes for a in snap.prev.values())
            want += snap.forcing_pt.nbytes + snap.forcing_q.nbytes
            assert snap.nbytes == want > 0
            assert snap.copy().nbytes == want
        assert data.nbytes == sum(s.nbytes for s in data.snapshots)

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

    @pytest.mark.parametrize("dims", [(2, 3), (1, 2), (3, 2)])
    def test_resume_on_another_mesh_is_rejected(self, written_2x2, dims):
        cfg = _cfg()
        mesh = ProcessorMesh(*dims)
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        with pytest.raises(ValueError, match=(
            rf"checkpoint of 4 ranks .* on the {dims[0]} x {dims[1]} mesh "
            rf"\({mesh.size} ranks"
        )):
            Simulator(mesh.size, GENERIC).run(
                agcm_rank_program, cfg, decomp, 6, False,
                resume=written_2x2.load(),
            )


class TestCheckpointerOnMesh:
    """One coordinated save of the initial fields on a 2x3 mesh, with
    the rank clocks skewed beforehand."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        cfg = _cfg()
        decomp = Decomposition(cfg.nlat, cfg.nlon, ProcessorMesh(2, 3))
        grid = cfg.make_grid()
        ck = Checkpointer(1, tmp_path_factory.mktemp("mesh") / "ck.npz")

        def program(ctx):
            sub = decomp.subdomain(ctx.rank)
            fields = initial_fields_block(
                grid.lat_rad[sub.lat_slice], grid.lon_rad[sub.lon_slice],
                cfg.nlayers, seed=cfg.seed,
            )
            forcing = np.zeros((sub.nlat, sub.nlon, cfg.nlayers))
            snap = RankSnapshot(
                now=fields, prev={n: -a for n, a in fields.items()},
                forcing_pt=forcing, forcing_q=forcing + 1.0,
                time=1234.0, step=1, counters={"measure": None},
            )
            yield from ctx.compute(seconds=1e-3 * ctx.rank)  # skew clocks
            yield from ck.save(ctx, snap)
            return ctx.clock

        res = Simulator(6, GENERIC).run(program)
        return cfg, grid, decomp, ck, res

    def test_saved_snapshots_assemble_the_global_fields(self, saved):
        cfg, grid, decomp, ck, _ = saved
        data = ck.load()
        assert len(data.snapshots) == decomp.mesh.size
        ref = initial_fields_block(
            grid.lat_rad, grid.lon_rad, cfg.nlayers, seed=cfg.seed
        )
        for name in PROGNOSTIC_NAMES:
            whole = np.full_like(ref[name], np.nan)
            for rank, snap in enumerate(data.snapshots):
                sub = decomp.subdomain(rank)
                whole[sub.lat_slice, sub.lon_slice] = snap.now[name]
            np.testing.assert_array_equal(whole, ref[name])

    def test_each_restored_block_is_its_slice_of_the_global_fields(
            self, saved):
        cfg, grid, decomp, ck, _ = saved
        data = ck.load()

        def program(ctx):
            snap = yield from data.restore(ctx, decomp)
            return snap

        res = Simulator(6, GENERIC).run(program)
        ref = initial_fields_block(
            grid.lat_rad, grid.lon_rad, cfg.nlayers, seed=cfg.seed
        )
        for rank, snap in enumerate(res.returns):
            assert (snap.step, snap.time) == (1, 1234.0)
            sub = decomp.subdomain(rank)
            for name in PROGNOSTIC_NAMES:
                want = ref[name][sub.lat_slice, sub.lon_slice]
                np.testing.assert_array_equal(snap.now[name], want)
                np.testing.assert_array_equal(snap.prev[name], -want)

    def test_gather_moves_every_non_root_snapshot(self, saved):
        _, _, _, ck, res = saved
        non_root = sum(s.nbytes for s in ck.load().snapshots[1:])
        # Tree forwarding moves at least every non-root block once.
        assert res.trace.total_bytes() >= non_root

    def test_closing_barrier_aligns_every_rank_clock(self, saved):
        res = saved[-1]
        assert max(res.returns) - min(res.returns) < 1e-9


class TestIntegrity:
    """Corruption must surface as CheckpointCorruptError, never as an
    opaque numpy/zipfile error or — worse — silently wrong state."""

    def _saved(self, tmp_path, rng):
        cfg = _cfg()
        return save_checkpoint(tmp_path / "snap.npz", _random_checkpoint(rng, cfg))

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
            arrays["0/now_u"][0, 0, 0] += 1.0  # archive still loads fine

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
        save_checkpoint(ck.path, _random_checkpoint(rng, _cfg()))
        ck.written = 1  # as if the save above went through this instance
        ck.path.write_bytes(ck.path.read_bytes()[:200])
        with pytest.raises(CheckpointCorruptError):
            ck.load()

    def test_torn_write_keeps_the_previous_checkpoint(
            self, tmp_path, monkeypatch, written_2x2):
        path = tmp_path / "ck.npz"
        path.write_bytes(written_2x2.path.read_bytes())

        def dies_part_way(fh, **arrays):
            fh.write(b"PK\x03\x04 torn")
            raise OSError("disk full")

        with monkeypatch.context() as m:
            m.setattr(np, "savez", dies_part_way)
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(path, written_2x2.load())
        assert load_checkpoint(path).step == 4
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]


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
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)

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
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)

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
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
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
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)

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
        decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
        # a failure at t=0 re-injected manually is consumed after one
        # restart, so exhaustion needs max_recoveries=0
        plan = FaultPlan(seed=0, failures=(RankFailure(rank=0, at=0.0),))
        with pytest.raises(RankFailedError):
            run_agcm_guarded(
                cfg, decomp, self.NSTEPS, GENERIC, faults=plan,
                guard=DISK_ONLY.with_(max_recoveries=0),
            )
