"""The cache key is sound: no run option changes what a key stores.

``cache_key`` hashes the experiment, its parameters and the code
version — not the :class:`repro.options.RunOptions` the campaign ran
under.  That is only right while no option can change a unit's result,
so the invariant is checked here for every execution knob that reaches
a unit, and the field list is pinned so that a new knob has to be
weighed against the key.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.campaign.cache import ResultCache
from repro.options import FIELD_NAMES

#: Cheap units covering a phase-reading table (table8), vertically
#: split meshes (fig_3d) and two that run no simulator regions at all.
UNITS = ["fig_3d", "fig2_3", "fig4_6", "table8@4x4"]


def _sidecar_hashes(cache_dir, **knobs):
    report = api.run_campaign(
        UNITS, options=dict(cache_dir=str(cache_dir), **knobs)
    )
    assert report.failures == 0 and report.cache_hits == 0
    cache = ResultCache(str(cache_dir))
    return {key: cache.meta(key)["result_sha256"] for key in cache.keys()}


@pytest.fixture(scope="module")
def default_hashes(tmp_path_factory):
    hashes = _sidecar_hashes(tmp_path_factory.mktemp("default"))
    assert len(hashes) >= len(UNITS)
    return hashes


@pytest.mark.parametrize("knobs", [{"obs": True}, {"workers": 2}],
                         ids=["obs", "workers"])
def test_execution_knob_leaves_cached_results_unchanged(
        knobs, default_hashes, tmp_path):
    assert _sidecar_hashes(tmp_path, **knobs) == default_hashes


def test_option_fields_are_pinned():
    assert FIELD_NAMES == (
        "obs", "guard", "cache_dir", "results_db", "workers",
        "resume", "use_cache", "fleet", "max_attempts",
    )
