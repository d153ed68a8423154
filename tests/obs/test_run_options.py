"""RunOptions: coercion, the removed keyword surface and facade integration."""

from __future__ import annotations

import pytest

from repro import api
from repro.options import RunOptions
from repro.serve.config import ServeConfig

pytestmark = pytest.mark.obs


class TestCoercion:
    def test_none_gives_defaults(self):
        opts = RunOptions.coerce(None)
        assert opts == RunOptions()
        assert opts.resume is False and opts.workers == 1

    def test_instance_passes_through(self):
        opts = RunOptions(resume=True)
        assert RunOptions.coerce(opts) is opts

    def test_dict_builds_options(self):
        opts = RunOptions.coerce({"resume": True, "workers": 3})
        assert opts.resume is True and opts.workers == 3

    def test_unknown_dict_key_gets_did_you_mean(self):
        with pytest.raises(TypeError, match=r"did you mean 'workers'"):
            RunOptions.coerce({"worker": 2})

    def test_unknown_dict_key_lists_known_options(self):
        with pytest.raises(TypeError, match="known options"):
            RunOptions.coerce({"definitely_not_a_knob": 1})

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="must be a RunOptions"):
            RunOptions.coerce(["obs"])

    def test_workers_validated_on_construction(self):
        with pytest.raises(ValueError, match="workers must be positive"):
            RunOptions(workers=0)
        with pytest.raises(TypeError, match="positive integer"):
            RunOptions(workers=2.5)

    @pytest.mark.parametrize("bad, error", [
        (0, ValueError), (-1, ValueError), (2.5, TypeError), ("3", TypeError),
    ])
    def test_max_attempts_validated_on_construction(self, bad, error):
        with pytest.raises(error, match="max_attempts"):
            RunOptions(max_attempts=bad)
        assert RunOptions(max_attempts=None).max_attempts is None
        assert RunOptions(max_attempts=2).max_attempts == 2


class TestWith:
    def test_with_replaces_and_keeps_rest(self):
        opts = RunOptions(resume=True)
        other = opts.with_(workers=4)
        assert other.workers == 4 and other.resume is True
        assert opts.workers == 1  # frozen original untouched

    def test_with_unknown_field_errors(self):
        with pytest.raises(TypeError, match=r"did you mean 'resume'"):
            RunOptions().with_(resum=True)


class TestRemovedSurface:
    """``fast`` and ``faults`` are gone, and a knob has one spelling:
    ``options=``."""

    def test_fast_is_not_a_field(self):
        with pytest.raises(TypeError, match=r"unknown option 'fast'.*"
                           r"known options"):
            RunOptions(fast=True)
        with pytest.raises(TypeError, match=r"unknown option 'fast'.*"
                           r"known options"):
            api.run("fig4_6", options={"fast": True})

    def test_faults_is_not_a_field(self):
        """No runner took ``faults=``; plans go to ``Simulator`` or
        ``run_agcm_guarded`` directly."""
        with pytest.raises(TypeError, match=r"unknown option 'faults'"):
            RunOptions(faults=object())

    @pytest.mark.parametrize("call, knob", [
        (lambda: api.run("fig4_6", obs=True), "obs"),
        (lambda: api.run("fig4_6", guard=True), "guard"),
        (lambda: api.run("fig4_6", faults=object()), "faults"),
        (lambda: api.profile("fig4_6", obs=True), "obs"),
        (lambda: api.run_campaign(["fig4_6"], workers=2), "workers"),
    ])
    def test_knob_as_keyword_names_the_replacement(self, call, knob):
        # ``faults`` is no option any more: it reaches the runner, which
        # refuses it itself.
        match = (r"unexpected keyword argument 'faults'" if knob == "faults"
                 else rf"options=RunOptions\({knob}=\.\.\.\)")
        with pytest.raises(TypeError, match=match):
            call()

    def test_run_campaign_rejects_other_keywords_too(self):
        with pytest.raises(TypeError, match="unexpected keyword.*'swep'"):
            api.run_campaign(["fig4_6"], swep="smoke")


class TestApiIntegration:
    def test_run_accepts_options(self):
        res = api.run("fig4_6", options=RunOptions(obs=True))
        assert res.run_options is not None
        assert res.run_options.obs is True and res.observed
        assert res.value.ident == "fig4_6"

    def test_run_accepts_options_dict(self):
        res = api.run("fig4_6", options={"obs": True})
        assert res.run_options.obs is True and res.observed


class TestServeConfigFromOptions:
    def test_maps_shared_knobs(self):
        cfg = ServeConfig.from_options(
            RunOptions(cache_dir="/tmp/c", results_db="/tmp/r.sqlite",
                       workers=3)
        )
        assert cfg.cache_dir == "/tmp/c"
        assert cfg.results_db == "/tmp/r.sqlite"
        assert cfg.pool_workers == 3

    def test_overrides_beat_mapped_fields(self):
        cfg = ServeConfig.from_options(
            RunOptions(workers=3), pool_workers=8, queue_limit=2
        )
        assert cfg.pool_workers == 8
        assert cfg.queue_limit == 2
