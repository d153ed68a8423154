"""Golden regression tests: archived tables must match fresh recomputes.

``benchmarks/results/*.txt`` are the checked-in renderings the paper
comparison rests on.  The virtual machine is deterministic, so a fresh
recompute must reproduce them byte for byte; silent drift in
``reporting/`` or ``util/tables.py`` fails here loudly.

Only the cheap, fully deterministic experiments are recomputed — the
expensive sweeps stay in ``benchmarks/``, whose renderings CI
regenerates and compares byte for byte.
"""

from __future__ import annotations

import difflib
import os

import pytest

from repro.reporting.experiments import run_fig2_3, run_fig4_6, run_tables1_3

_RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
    "results",
)


def _assert_matches_golden(result):
    path = os.path.join(_RESULTS_DIR, f"{result.ident}.txt")
    assert os.path.exists(path), f"golden file missing: {path}"
    golden = open(path).read()
    fresh = result.render() + "\n"
    if fresh != golden:
        diff = "\n".join(
            difflib.unified_diff(
                golden.splitlines(), fresh.splitlines(),
                fromfile=f"golden:{result.ident}.txt",
                tofile="recomputed", lineterm="",
            )
        )
        pytest.fail(
            f"{result.ident} drifted from the archived golden rendering:\n{diff}"
        )


def test_fig4_6_scheme_walkthrough_matches_golden():
    _assert_matches_golden(run_fig4_6())


def test_fig2_3_row_redistribution_matches_golden():
    # the archived file is the 8x30 (paper mesh) run: the benchmark
    # archives both meshes and the second write wins
    _assert_matches_golden(run_fig2_3(mesh_dims=(8, 30)))


def test_tables1_3_physics_lb_matches_golden():
    _assert_matches_golden(run_tables1_3())
