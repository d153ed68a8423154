"""Recovery policies end to end: the closed loop the guard exists for."""

import numpy as np
import pytest

from repro.faults import FaultPlan, RankFailure
from repro.grid import Decomposition
from repro.guard import (
    GuardConfig,
    NumericalHealthError,
    StateCorruption,
    run_agcm_guarded,
)
from repro.guard.policies import POLICY_NAMES, make_policy
from repro.model import make_config
from repro.model.parallel_agcm import agcm_rank_program
from repro.obs import Observer
from repro.parallel import GENERIC, ProcessorMesh, Simulator

pytestmark = pytest.mark.guard

NSTEPS = 6


def _setup(dims=(2, 2)):
    cfg = make_config("tiny", physics_every=2)
    mesh = ProcessorMesh(*dims)
    decomp = Decomposition(cfg.nlat, cfg.nlon, mesh)
    return cfg, mesh, decomp


def _clean_run(cfg, mesh, decomp, return_fields=True):
    return Simulator(mesh.size, GENERIC).run(
        agcm_rank_program, cfg, decomp, NSTEPS, return_fields
    )


def _assert_fields_equal(out, clean, mesh):
    for rank in range(mesh.size):
        for name, want in clean.returns[rank]["fields"].items():
            np.testing.assert_array_equal(
                out.result.returns[rank]["fields"][name], want,
                err_msg=f"rank {rank} field {name}",
            )


class TestPolicyResolution:
    def test_known_names(self):
        assert make_policy("halt").rollback is False
        assert make_policy("rollback_retry").rollback is True
        assert make_policy("rollback_adapt").adapt is True

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="rollback_adapt"):
            make_policy("reboot")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="policy"):
            GuardConfig(policy="reboot")
        with pytest.raises(ValueError, match="nan_every"):
            GuardConfig(nan_every=-1)
        with pytest.raises(ValueError, match="adapt_dt_factor"):
            GuardConfig(adapt_dt_factor=1.5)
        with pytest.raises(ValueError, match="max_recoveries"):
            GuardConfig(max_recoveries=-1)
        assert GuardConfig().with_(policy="halt").policy == "halt"
        assert POLICY_NAMES == ("halt", "rollback_retry", "rollback_adapt")


class TestHalt:
    def test_alarm_reraised_unrecovered(self):
        cfg, mesh, decomp = _setup()
        with pytest.raises(NumericalHealthError) as err:
            run_agcm_guarded(
                cfg, decomp, NSTEPS, GENERIC,
                guard=GuardConfig(
                    policy="halt",
                    injections=(StateCorruption(step=3, rank=1),),
                ),
            )
        assert err.value.step == 3 and err.value.rank == 1


class TestRollbackRetry:
    def test_nan_recovery_bit_for_bit(self):
        """The headline contract: heal a soft error, lose no bits."""
        cfg, mesh, decomp = _setup()
        clean = _clean_run(cfg, mesh, decomp)
        out = run_agcm_guarded(
            cfg, decomp, NSTEPS, GENERIC,
            guard=GuardConfig(
                policy="rollback_retry", buddy_every=2,
                injections=(StateCorruption(step=3, rank=1, field="u"),),
            ),
        )
        assert out.recoveries == 1 and len(out.alarms) == 1
        d = out.decisions[0]
        assert d.kind == "rollback" and d.cause == "nonfinite"
        assert d.source == "buddy" and d.restore_step == 2
        assert out.resumed_steps == [0, 2]
        assert out.total_elapsed > out.result.elapsed  # lost work charged
        _assert_fields_equal(out, clean, mesh)

    def test_rank_failure_recovered_from_buddy(self):
        cfg, mesh, decomp = _setup()
        clean = _clean_run(cfg, mesh, decomp)
        probe = _clean_run(cfg, mesh, decomp, return_fields=False)
        plan = FaultPlan(
            seed=7,
            failures=(RankFailure(rank=2, at=0.6 * probe.elapsed),),
        )
        out = run_agcm_guarded(
            cfg, decomp, NSTEPS, GENERIC, faults=plan,
            guard=GuardConfig(policy="rollback_retry", buddy_every=1),
        )
        assert out.failures and out.failures[0][0] == 2
        d = out.decisions[0]
        assert d.cause == "rank_failure" and d.source == "buddy"
        assert d.restore_step > 0  # diskless restore, not a cold start
        _assert_fields_equal(out, clean, mesh)

    def test_max_recoveries_exhausted_gives_up(self):
        cfg, mesh, decomp = _setup()
        with pytest.raises(NumericalHealthError):
            run_agcm_guarded(
                cfg, decomp, NSTEPS, GENERIC,
                guard=GuardConfig(
                    policy="rollback_retry", max_recoveries=0,
                    injections=(StateCorruption(step=2, rank=0),),
                ),
            )


class TestRollbackAdapt:
    def test_adapted_segment_completes_finite(self):
        cfg, mesh, decomp = _setup()
        out = run_agcm_guarded(
            cfg, decomp, NSTEPS, GENERIC,
            guard=GuardConfig(
                policy="rollback_adapt", buddy_every=2,
                injections=(StateCorruption(step=3, rank=0),),
            ),
        )
        assert out.recoveries == 1
        assert out.decisions[0].kind == "adapt"
        # the segment-end handoff resumes the normal-dt remainder
        assert len(out.resumed_steps) == 3
        for rank in range(mesh.size):
            for name, arr in out.result.returns[rank]["fields"].items():
                assert np.isfinite(arr).all(), f"rank {rank} field {name}"


class TestOverheadContract:
    def test_disabled_guard_is_exactly_free(self):
        cfg, mesh, decomp = _setup()
        plain = _clean_run(cfg, mesh, decomp, return_fields=False)
        off = run_agcm_guarded(
            cfg, decomp, NSTEPS, GENERIC, return_fields=False,
            guard=GuardConfig(detect=False, buddy_every=0),
        )
        assert off.result.elapsed == plain.elapsed  # not "close": equal

    def test_config_that_cannot_detect_or_inject_runs_unguarded(self):
        """Detectors off and nothing to inject: the rank program gets the
        null guard, so the run records exactly what a plain one does."""
        cfg, mesh, decomp = _setup()
        plain_obs, off_obs = Observer(), Observer()
        plain = Simulator(mesh.size, GENERIC, observer=plain_obs).run(
            agcm_rank_program, cfg, decomp, NSTEPS, False
        )
        off = run_agcm_guarded(
            cfg, decomp, NSTEPS, GENERIC, return_fields=False,
            observer=off_obs, guard=GuardConfig(detect=False, buddy_every=0),
        )
        assert [s for s in off_obs.spans if s.name == "guard"] == []
        assert "guard" not in off.result.trace.phases()
        assert off.result.clocks == plain.clocks
        assert sorted(s.name for s in off_obs.spans) \
            == sorted(s.name for s in plain_obs.spans)

    def test_detectors_within_five_percent(self):
        cfg, mesh, decomp = _setup()
        plain = _clean_run(cfg, mesh, decomp, return_fields=False)
        on = run_agcm_guarded(
            cfg, decomp, NSTEPS, GENERIC, return_fields=False,
            guard=GuardConfig(buddy_every=0),
        )
        overhead = on.result.elapsed / plain.elapsed - 1.0
        assert 0.0 <= overhead <= 0.05


class TestObservability:
    def test_guard_counters_and_decisions_recorded(self):
        cfg, mesh, decomp = _setup()
        obs = Observer()
        out = run_agcm_guarded(
            cfg, decomp, NSTEPS, GENERIC, observer=obs,
            guard=GuardConfig(
                policy="rollback_retry", buddy_every=2,
                injections=(StateCorruption(step=3, rank=1),),
            ),
        )
        assert out.recoveries == 1
        m = obs.metrics
        assert m.counter("guard.injections").value >= 1
        assert m.counter("guard.alarms.nonfinite").value == 1
        assert m.counter("guard.decisions.rollback").value == 1
        assert m.counter("guard.restore.buddy").value == 1
        assert m.counter("guard.checks").value > 0

    def test_outcome_describe_mentions_the_decision(self):
        cfg, mesh, decomp = _setup()
        out = run_agcm_guarded(
            cfg, decomp, NSTEPS, GENERIC,
            guard=GuardConfig(
                injections=(StateCorruption(step=3, rank=0),),
            ),
        )
        text = out.describe()
        assert "1 recovery(ies)" in text and "buddy" in text


class TestApiIntegration:
    def test_guard_argument_resolution(self):
        from repro import api

        assert api._resolve_guard(None) is None
        assert api._resolve_guard(False) is None
        assert api._resolve_guard(True).policy == "rollback_retry"
        assert api._resolve_guard("rollback_adapt").policy == "rollback_adapt"
        gcfg = GuardConfig(buddy_every=4)
        assert api._resolve_guard(gcfg) is gcfg
        with pytest.raises(TypeError, match="guard must be"):
            api._resolve_guard(3.14)

    def test_guard_experiment_runs_via_api(self):
        from repro import api

        result = api.run(
            "guard", options={"guard": GuardConfig(buddy_every=2)},
            nsteps=4,
        )
        text = result.render()
        assert "overhead" in text.lower()
        assert "buddy" in text.lower()

    def test_cli_guard_command_writes_report(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        report = tmp_path / "guard-report.md"
        monkeypatch.chdir(tmp_path)
        rc = main(["guard", "--policy", "rollback_retry",
                   "--report-out", str(report)])
        assert rc == 0
        assert report.exists()
        assert "Guard supervision report" in report.read_text()

    def test_cli_rejects_bad_policy(self, capsys):
        from repro.__main__ import main

        rc = main(["guard", "--policy", "reboot"])
        assert rc == 2
        assert "rollback_retry" in capsys.readouterr().err
