"""The repro.api facade, Figure-1 parity and the profile/report CLI."""

from __future__ import annotations

import json

import pytest

import repro
from repro import api
from repro.__main__ import main as cli_main
from repro.obs import Observer, validate_chrome_trace
from repro.options import RunOptions
from repro.reporting import EXPERIMENTS, ExperimentSpec
from repro.verify.tolerances import CLOCK_RTOL

pytestmark = pytest.mark.obs

#: fig1 on its small 16-node mesh only: seconds instead of minutes.
FIG1_FAST = {"meshes": ((4, 4),), "nsteps": 4}


class TestFacade:
    def test_run_plain_returns_wrapped_experiment(self):
        res = api.run("fig4_6")
        assert isinstance(res, api.RunResult)
        assert res.experiment == "fig4_6"
        assert not res.observed
        assert res.value.ident == "fig4_6"
        assert res.render() == res.value.render()

    def test_unobserved_accessors_raise(self):
        res = api.run("fig4_6")
        with pytest.raises(ValueError, match="not observed"):
            res.trace()
        with pytest.raises(ValueError, match="not observed"):
            res.metrics()

    def test_obs_true_records_and_exports(self):
        res = api.run("fig1", options=RunOptions(obs=True), **FIG1_FAST)
        assert res.observed and len(res.observer.spans) > 0
        assert validate_chrome_trace(res.trace()) == []
        assert res.flamegraph()

    def test_existing_observer_aggregates_runs(self):
        obs = Observer()
        api.run("fig1", options=RunOptions(obs=obs), **FIG1_FAST)
        api.run("fig1", options=RunOptions(obs=obs), **FIG1_FAST)
        assert len(obs.runs) == 2
        assert {s.run for s in obs.spans} == {0, 1}

    def test_options_are_keyword_only(self):
        with pytest.raises(TypeError):
            api.run("fig1", Observer())  # obs must be by keyword
        with pytest.raises(TypeError, match="obs must be"):
            api.run("fig1", options=RunOptions(obs="yes"))

    def test_unknown_experiment_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            api.run("nope")

    def test_profile_writes_both_artefacts(self, tmp_path):
        t, m = tmp_path / "t.json", tmp_path / "m.json"
        res = api.profile("fig1", trace_out=str(t), metrics_out=str(m),
                          **FIG1_FAST)
        assert res.observed
        assert validate_chrome_trace(json.loads(t.read_text())) == []
        summary = json.loads(m.read_text())
        assert summary["runs"][0]["figure1"]["dynamics_fraction"] > 0

    def test_facade_exported_at_package_root(self):
        assert repro.api is api
        assert repro.RunResult is api.RunResult


class TestExperimentSpecs:
    def test_registry_values_are_specs(self):
        for ident, spec in EXPERIMENTS.items():
            assert isinstance(spec, ExperimentSpec)
            assert spec.name == ident
            assert spec.cost in ("fast", "medium", "slow")
            assert spec.doc  # every runner documents itself

    def test_specs_stay_callable(self):
        res = EXPERIMENTS["fig4_6"]()
        assert res.ident == "fig4_6"

    def test_bad_cost_tier_rejected(self):
        with pytest.raises(ValueError, match="cost"):
            ExperimentSpec("x", lambda: None, cost="cheap")


class TestFigure1Parity:
    def test_span_fractions_match_component_breakdown(self):
        res = api.run("fig1", options=RunOptions(obs=True), **FIG1_FAST)
        reference = res.value.data[16]
        spans = res.figure1(run=0)
        assert spans["dynamics_fraction"] == pytest.approx(
            reference["dynamics_fraction"], rel=CLOCK_RTOL
        )
        assert spans["filtering_fraction"] == pytest.approx(
            reference["filtering_fraction"], rel=CLOCK_RTOL
        )


class TestCLI:
    def test_list_renders_cost_hints(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "[medium]" in out and "[fast" in out

    def test_report_rejects_unknown_flag(self, capsys):
        assert cli_main(["report", "--qiuck"]) == 2
        assert "unknown option" in capsys.readouterr().err

    def test_profile_writes_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["profile", "fig4_6",
                         "--trace-out", str(tmp_path / "t.json"),
                         "--metrics-out"]) == 0
        doc = json.loads((tmp_path / "t.json").read_text())
        assert validate_chrome_trace(doc) == []
        # --metrics-out with no value falls back to the default name
        assert (tmp_path / "metrics-fig4_6.json").exists()

    def test_profile_rejects_unknown_flag_and_experiment(self, capsys):
        assert cli_main(["profile", "fig4_6", "--bogus"]) == 2
        assert cli_main(["profile", "nope"]) == 2
        assert cli_main(["profile"]) == 2


class TestRunResultRenderFallbacks:
    """The render() chain for values that are not ExperimentResults."""

    def test_value_with_render_method_wins(self):
        class Rendered:
            def render(self):
                return "custom table"

        res = api.wrap_sim_result("x", Rendered())
        assert res.render() == "custom table"

    def test_elapsed_only_value_renders_a_summary_line(self):
        class SimLike:
            elapsed = 12.5

        res = api.wrap_sim_result("my-sim", SimLike())
        assert res.render() == "my-sim: elapsed 12.5 virtual s"

    def test_bare_value_falls_back_to_repr(self):
        res = api.wrap_sim_result("raw", {"answer": 42})
        assert res.render() == "raw: {'answer': 42}"

    def test_wrap_sim_result_keeps_observer(self):
        obs = Observer()
        res = api.wrap_sim_result("w", object(), obs)
        assert res.observed and res.observer is obs
        assert api.wrap_sim_result("w", object()).observed is False


class TestArgumentResolvers:
    """The TypeError/ValueError paths of the facade's normalisers."""

    def test_resolve_observer_rejects_non_observers(self):
        for bad in ("yes", 1, 0, object()):
            with pytest.raises(TypeError, match="obs must be"):
                api._resolve_observer(bad)

    def test_resolve_observer_accepted_spellings(self):
        assert api._resolve_observer(None) is None
        assert api._resolve_observer(False) is None
        assert isinstance(api._resolve_observer(True), Observer)
        obs = Observer()
        assert api._resolve_observer(obs) is obs

    def test_resolve_guard_accepted_spellings(self):
        from repro.guard import GuardConfig

        assert api._resolve_guard(None) is None
        assert api._resolve_guard(False) is None
        assert isinstance(api._resolve_guard(True), GuardConfig)
        from_name = api._resolve_guard("halt")
        assert isinstance(from_name, GuardConfig)
        assert from_name.policy == "halt"
        cfg = GuardConfig()
        assert api._resolve_guard(cfg) is cfg

    def test_resolve_guard_rejects_other_types(self):
        with pytest.raises(TypeError, match="guard must be"):
            api._resolve_guard(123)
        with pytest.raises(TypeError, match="guard must be"):
            api._resolve_guard(["halt"])

    def test_unobserved_flamegraph_and_figure1_raise(self):
        res = api.run("fig4_6")
        with pytest.raises(ValueError, match="not observed"):
            res.flamegraph()
        with pytest.raises(
            ValueError, match=r"pass options=RunOptions\(obs=True\)"
        ):
            res.figure1()


class TestRunCampaignValidation:
    """workers=0 (and friends) must die at the facade, not inside
    multiprocessing."""

    def test_zero_workers_rejected_early(self):
        with pytest.raises(ValueError, match="workers.*positive.*got 0"):
            api.run_campaign(["fig4_6"], options={"workers": 0})

    def test_negative_workers_rejected_early(self):
        with pytest.raises(ValueError, match="workers.*positive.*got -2"):
            api.run_campaign(["fig4_6"], options={"workers": -2})

    def test_non_integer_workers_rejected(self):
        with pytest.raises(TypeError, match="workers.*positive integer"):
            api.run_campaign(["fig4_6"], options={"workers": 2.5})
        with pytest.raises(TypeError, match="workers.*positive integer"):
            api.run_campaign(["fig4_6"], options={"workers": "four"})

    def test_scheduler_guards_direct_callers_too(self):
        from repro.campaign.scheduler import run_campaign

        with pytest.raises(ValueError, match="workers.*positive"):
            run_campaign(["sleep:0.01#v"], workers=0)
