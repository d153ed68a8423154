"""Digests of the two AGCM recovery experiments, recorded at a parent commit.

``run_faults`` and ``run_guard`` drive the recovery loop
(:func:`repro.guard.supervisor.run_agcm_guarded`) through rank failures,
corrupt state, disk and buddy checkpoints.  Both are virtual-time
deterministic and finish in under a second, so pinning the sha256 of
their raw data and of their rendered tables puts the whole recovery
path under tier 1.  The values were recorded at a parent commit; never
re-record them to make a change pass.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.reporting.experiments import run_faults, run_guard


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("run, kwargs, data_sha, table_sha", [
    (run_faults, {"nsteps": 6},
     "36d1689daf3e15b047534a6fb2cc52a9b0c37ad17d441882bb39eb759ce2b94b",
     "ecfa39a3e1dc2a1be2417f58d8370d5ac655b92299ba67aa58594c0f136a22a2"),
    (run_guard, {},
     "6c98bb3d63e4a1f60c9642d0ff4bfe828fe35d33fcdfb95793901e8176408cb2",
     "2071a093cc9f95dd7666b65b98a82c88bc5bc8f3bb125f0683c8875c5325a0e7"),
], ids=["faults", "guard"])
def test_recovery_experiment_digests(run, kwargs, data_sha, table_sha):
    result = run(**kwargs)
    assert _sha256(json.dumps(result.data, sort_keys=True)) == data_sha
    assert _sha256(result.render()) == table_sha
