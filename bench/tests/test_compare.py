"""``compare.py`` verdicts on synthetic result files."""

import json

import compare
from catalogue import BY_NAME, Metric, steady

# The verdict rules, on bounds fixed here so that re-measured bounds in
# the catalogue do not move these tests.
WALL = Metric("wall_s", "s", "lower", 0.10)
RPS = Metric("serve_hit_rps", "1/s", "higher", 0.10)


def _file(tmp_path, name, per_workload):
    runs = []
    for workload, metrics in per_workload.items():
        n = max(len(v) for v in metrics.values())
        for i in range(n):
            runs.append({"workload": workload, "metrics": {
                m: {"value": v[i], "unit": BY_NAME[m].unit, "n": 1}
                for m, v in metrics.items() if i < len(v)}})
    path = tmp_path / name
    path.write_text(json.dumps({"env": {}, "runs": runs}))
    return str(path)


STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98]


def test_steady_is_the_fastest_sample():
    assert steady([2.4, 1.7, 3.1, 1.8]) == 1.7
    assert steady([0.5]) == 0.5


def test_verdicts():
    wall = WALL
    assert compare.verdict(wall, STEADY, [v * 1.05 for v in STEADY]) == "ok"
    assert compare.verdict(wall, STEADY, [v * 1.2 for v in STEADY]) == "regressed"
    assert compare.verdict(wall, STEADY, [v * 0.5 for v in STEADY]) == "ok"
    noisy = [8.0, 12.0, 9.0, 11.5, 8.5, 12.5, 10.0, 10.0]
    assert compare.verdict(wall, noisy, noisy) == "unresolved"
    assert compare.verdict(wall, noisy, [v * 1.3 for v in noisy]) == "unresolved"
    # Wide spread, yet every run of B beats every run of A: resolved.
    assert compare.verdict(wall, noisy, [v * 0.5 for v in noisy]) == "ok"


def test_higher_is_better_and_exact_metrics():
    rps = RPS
    assert compare.verdict(rps, [300.0] * 4, [280.0] * 4) == "ok"
    assert compare.verdict(rps, [300.0] * 4, [250.0] * 4) == "regressed"
    assert compare.verdict(rps, [300.0] * 4, [400.0] * 4) == "ok"
    virtual = BY_NAME["virtual_s"]
    assert compare.verdict(virtual, [52.5644], [52.5644]) == "ok"
    assert compare.verdict(virtual, [52.5644], [52.5645]) == "regressed"
    failed = BY_NAME["failed_frac"]
    assert compare.verdict(failed, [0.0] * 3, [0.0] * 3) == "ok"
    assert compare.verdict(failed, [0.0] * 3, [0.01] * 3) == "regressed"
    assert compare.verdict(failed, [0.0] * 3, [0.0, 0.01, 0.01]) == "unresolved"


def test_main_exit_code_and_pairs(tmp_path, capsys):
    a = _file(tmp_path, "a.json", {
        "agcm_model": {"wall_s": STEADY, "virtual_s": [52.5]},
        "service_plane": {"wall_s": STEADY, "serve_hit_p50_ms": [6.0] * 4},
    })
    same = _file(tmp_path, "same.json", {
        "agcm_model": {"wall_s": STEADY, "virtual_s": [52.5]},
        "service_plane": {"wall_s": STEADY, "serve_hit_p50_ms": [6.1] * 4},
    })
    slow = _file(tmp_path, "slow.json", {
        "agcm_model": {"wall_s": STEADY, "virtual_s": [52.5]},
        "service_plane": {"wall_s": STEADY, "serve_hit_p50_ms": [9.0] * 4},
    })
    assert compare.main([a, same]) == 0
    out = capsys.readouterr().out
    assert "4 pairs: 4 ok, 0 unresolved, 0 regressed" in out
    assert "B/A" in out and "(base A)" in out
    assert compare.main([a, slow]) == 1
    out = capsys.readouterr().out
    assert "serve_hit_p50_ms" in out and "regressed" in out
    # A metric the catalogue does not give a workload is not compared.
    assert "agcm_model     serve_hit_p50_ms" not in out
