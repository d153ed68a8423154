"""Plans are a function of the seed; unit lists resolve in the registry."""

import json
import os
import subprocess
import sys

import pytest

import catalogue
import workloads as wl
from conftest import BENCH, ROOT
from repro.campaign import enumerate_units

UNITS = {"agcm_model": 6, "filter_tables": 4, "engine_scale": 3,
         "service_plane": 8}


@pytest.mark.parametrize("workload", list(catalogue.WORKLOADS))
def test_same_seed_same_plan(workload):
    a, b = wl.make_plan(workload, 7), wl.make_plan(workload, 7)
    assert a == b
    assert sorted(a.order) == sorted(wl.unit_labels(workload))
    assert len(a.order) == UNITS[workload]
    others = [wl.make_plan(workload, seed).order for seed in range(8, 16)]
    assert any(order != a.order for order in others)
    if workload == "service_plane":
        assert len(a.hit_sequences) == wl.PARALLELISM
        assert all(len(seq) == wl.WARM_HITS_PER_CONNECTION
                   and set(seq) <= set(a.order) for seq in a.hit_sequences)
        assert wl.make_plan(workload, 8).hit_sequences != a.hit_sequences
    else:
        assert a.hit_sequences == []


@pytest.mark.parametrize("workload", list(catalogue.WORKLOADS))
def test_units_resolve_through_enumerate_units(workload):
    labels = wl.unit_labels(workload)
    registry = [l for l in labels if l not in wl.ENGINE_PROGRAMS]
    # Each label is itself a selector of exactly that one unit.
    assert [u.label for u in enumerate_units(registry)] == registry
    assert not any(l.startswith("sleep:") for l in labels)
    warm = wl.make_warmup_plan(wl.make_plan(workload, 0))
    assert sorted(warm.order) == sorted(labels)


def test_one_pass_smoke_prints_the_driver_line():
    """``--passes 1`` on the cheapest workload, end to end."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "filter_tables", "--passes", "1", "--seed", "5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert set(doc["metrics"]) == set(catalogue.DRIVER_END_TO_END)
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    for name in ("wall_s", "setup_s", "peak_rss_mb", "failed_frac"):
        assert name in proc.stdout
