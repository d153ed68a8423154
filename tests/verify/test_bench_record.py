"""Schema, trajectory and gating logic of the benchmark-regression gate.

The fast tests here use synthetic metrics; the ``bench_gate``-marked
tests actually recompute the deterministic benchmarks and exercise the
``tools/bench_gate.py`` CLI end to end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.verify import bench_record as br

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
_GATE = os.path.join(_REPO_ROOT, "tools", "bench_gate.py")


def _fake_metrics(**overrides):
    metrics = {name: 2.0 for name in br.TRACKED_RATIOS}
    metrics["agcm_old_total_s_per_day"] = 1000.0
    metrics.update(overrides)
    return metrics


def _entry(**overrides):
    return br.make_entry(_fake_metrics(**overrides), timestamp="2026-08-06T00:00:00")


# ----------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------

def test_make_entry_is_valid():
    assert br.validate_entry(_entry()) == []


def test_validate_catches_missing_keys_and_bad_values():
    entry = _entry()
    del entry["metrics"]
    assert any("missing key 'metrics'" in p for p in br.validate_entry(entry))

    entry = _entry()
    entry["schema_version"] = 99
    assert any("schema_version" in p for p in br.validate_entry(entry))

    entry = _entry()
    entry["metrics"]["bad"] = "not a number"
    assert any("'bad'" in p for p in br.validate_entry(entry))

    entry = _entry()
    del entry["metrics"][br.TRACKED_RATIOS[0]]
    assert any("missing from metrics" in p for p in br.validate_entry(entry))

    assert br.validate_entry([1, 2]) == ["entry is list, expected dict"]


# ----------------------------------------------------------------------
# trajectory file
# ----------------------------------------------------------------------

def test_missing_file_loads_as_empty_trajectory(tmp_path):
    traj = br.load_trajectory(str(tmp_path / "nope.json"))
    assert traj == br.empty_trajectory()
    assert br.baseline_entry(traj) is None


def test_save_load_roundtrip(tmp_path):
    path = str(tmp_path / "BENCH_agcm.json")
    traj = br.empty_trajectory()
    traj["entries"].append(_entry())
    br.save_trajectory(path, traj)
    loaded = br.load_trajectory(path)
    assert loaded == traj
    assert br.baseline_entry(loaded) == traj["entries"][-1]


def test_non_trajectory_file_rejected(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError, match="not a benchmark trajectory"):
        br.load_trajectory(str(path))


def test_invalid_entry_fails_load_with_actionable_error(tmp_path):
    """A hand-edited entry fails at load, naming the entry and problem,
    instead of KeyError-ing deep inside the baseline comparison."""
    path = str(tmp_path / "BENCH_agcm.json")
    traj = br.empty_trajectory()
    good = _entry()
    bad = dict(_entry(), metrics="not-a-dict")
    traj["entries"] = [good, bad]
    with open(path, "w") as fh:
        json.dump(traj, fh)
    with pytest.raises(ValueError) as err:
        br.load_trajectory(path)
    msg = str(err.value)
    assert "invalid benchmark trajectory" in msg
    assert "entry #1" in msg  # the bad entry is named, the good one not
    assert "entry #0" not in msg
    assert "bench_gate.py" in msg  # the fix hint


def test_many_invalid_entries_are_summarized(tmp_path):
    path = str(tmp_path / "BENCH_agcm.json")
    traj = br.empty_trajectory()
    traj["entries"] = [{"timestamp": f"t{i}"} for i in range(9)]
    with open(path, "w") as fh:
        json.dump(traj, fh)
    with pytest.raises(ValueError, match=r"more\)"):
        br.load_trajectory(path)


def test_repo_trajectory_passes_validation():
    """The committed BENCH_agcm.json must always load cleanly."""
    traj = br.load_trajectory(os.path.join(_REPO_ROOT, "BENCH_agcm.json"))
    assert traj["entries"]


#: Name prefixes of the metrics nothing writes any more: the second
#: event engine's two (retired with it) and the host wall-clock scalars
#: whose ledger is now ``bench/``.  The historical entries keep theirs.
_RETIRED_PREFIXES = ("campaign_", "serve_", "fleet_", "sim_event",
                     "sim_probe")


def test_entry_without_retired_engine_metrics_joins_the_trajectory(
    tmp_path, capsys
):
    from repro.results.cli import main as results_main

    traj = br.load_trajectory(os.path.join(_REPO_ROOT, "BENCH_agcm.json"))
    carrying = traj["entries"][7]  # entry #8, the last with host scalars
    retired = sorted(
        name for name in carrying["metrics"]
        if name.startswith(_RETIRED_PREFIXES)
    )
    assert len(retired) == 32, "the historical entries were rewritten"
    # Values below the deleted floors are history now, not a failure.
    assert br.check_constraints(dict(
        carrying["metrics"], sim_event_engine_speedup=1.0,
        serve_failed_requests=3.0, fleet_recovery_overhead=9.0,
        campaign_parallel_speedup_4w=1.0,
    )) == []

    # Dated after anything the gate can have recorded, so it sorts last.
    metrics = _fake_metrics()
    entry = br.make_entry(metrics, timestamp="2099-01-01T00:00:00+00:00",
                          label="one host-time ledger")
    assert not set(retired) & set(entry["metrics"])
    assert br.validate_entry(entry) == []
    assert br.check_constraints(metrics) == []

    traj["entries"].append(entry)
    path = str(tmp_path / "BENCH_agcm.json")
    br.save_trajectory(path, traj)
    db = str(tmp_path / "index.db")
    assert results_main(["ingest", "--db", db, "--bench", path, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["sources"][0]["added"] == len(traj["entries"])
    assert stats["sources"][0]["errors"] == []

    argv = ["trajectory", "--db", db, "--json"]
    for name in retired:
        argv += ["--metric", name]
    assert results_main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["entries"]
    assert len(rows) == len(traj["entries"])
    assert rows[-1]["values"] == dict.fromkeys(retired)
    assert None not in rows[7]["values"].values()
    for row, old in zip(rows, traj["entries"]):
        for name in retired:
            assert row["values"][name] == old["metrics"].get(name)


# ----------------------------------------------------------------------
# gating
# ----------------------------------------------------------------------

def test_no_baseline_means_no_regressions():
    assert br.compare_to_baseline(_fake_metrics(), None) == []


def test_regression_at_threshold_is_flagged():
    baseline = _entry()
    name = br.TRACKED_RATIOS[0]
    degraded = _fake_metrics(**{name: 2.0 * (1 - br.DEFAULT_THRESHOLD)})
    regs = br.compare_to_baseline(degraded, baseline)
    assert [r.name for r in regs] == [name]
    assert regs[0].drop == pytest.approx(br.DEFAULT_THRESHOLD)
    assert "degradation" in str(regs[0])


def test_small_degradation_and_improvements_pass():
    baseline = _entry()
    ok = _fake_metrics(**{br.TRACKED_RATIOS[0]: 1.9, br.TRACKED_RATIOS[1]: 5.0})
    assert br.compare_to_baseline(ok, baseline) == []


def test_untracked_metrics_never_gate():
    baseline = _entry()
    worse = _fake_metrics(agcm_old_total_s_per_day=1.0)
    assert br.compare_to_baseline(worse, baseline) == []


def test_metric_missing_on_either_side_is_skipped():
    baseline = _entry()
    partial = {br.TRACKED_RATIOS[0]: 2.0}  # others missing from current
    assert br.compare_to_baseline(partial, baseline) == []


# ----------------------------------------------------------------------
# the real thing (slow: recomputes the deterministic benchmarks)
# ----------------------------------------------------------------------

@pytest.mark.bench_gate
def test_collected_metrics_cover_all_tracked_ratios():
    metrics = br.collect_metrics()
    for name in br.TRACKED_RATIOS:
        assert name in metrics and metrics[name] > 0
    entry = br.make_entry(metrics, timestamp="now")
    assert br.validate_entry(entry) == []
    # the virtual machine is deterministic: the optimised variants must
    # actually be faster, or the repo's whole story is broken
    assert metrics["speedup_filter_fft_lb_vs_convolution"] > 1.0
    assert metrics["speedup_agcm_total_new_vs_old"] > 1.0


@pytest.mark.bench_gate
def test_collected_metrics_are_reproducible_and_virtual_time_only():
    """The whole entry is deterministic: nothing host-timed is in it."""
    metrics = br.collect_metrics()
    assert metrics == br.collect_metrics()
    assert not [k for k in metrics if k.startswith(_RETIRED_PREFIXES)]


@pytest.mark.bench_gate
def test_collected_metrics_match_recorded_baseline():
    """Drift vs the checked-in BENCH_agcm.json is a real change."""
    recorded = br.baseline_entry(
        br.load_trajectory(os.path.join(_REPO_ROOT, "BENCH_agcm.json"))
    )
    if recorded is None:
        pytest.skip("no recorded baseline yet")
    metrics = br.collect_metrics()
    for name in br.TRACKED_RATIOS:
        assert metrics[name] == pytest.approx(
            recorded["metrics"][name], rel=1e-9
        ), f"{name} drifted from the recorded baseline"


@pytest.mark.bench_gate
def test_cli_gate_passes_and_fails_correctly(tmp_path):
    env = dict(os.environ)
    out = str(tmp_path / "BENCH_agcm.json")

    # first run: establishes the baseline, exit 0
    first = subprocess.run(
        [sys.executable, _GATE, "--output", out], env=env,
        capture_output=True, text=True,
    )
    assert first.returncode == 0, first.stdout + first.stderr
    traj = br.load_trajectory(out)
    assert len(traj["entries"]) == 1
    assert br.validate_entry(traj["entries"][0]) == []

    # inflate a tracked ratio in the baseline: the gate must fail with
    # exit 2 and must NOT record the failing run
    traj["entries"][0]["metrics"][br.TRACKED_RATIOS[0]] *= 2.0
    br.save_trajectory(out, traj)
    second = subprocess.run(
        [sys.executable, _GATE, "--output", out], env=env,
        capture_output=True, text=True,
    )
    assert second.returncode == 2, second.stdout + second.stderr
    assert "GATE FAILED" in second.stdout
    assert len(br.load_trajectory(out)["entries"]) == 1
