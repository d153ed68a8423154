"""``BENCHMARK.json`` keeps to its contract and to ``catalogue.py``."""

import json
import os
import re

import catalogue
from conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_keys_and_limits():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    # 4 + 22 x workloads runs must fit the driver's 3420 s with room for
    # the three set-ups (a pass each) every run starts with: 7-9 s here.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 10) <= 3420


def test_names_units_and_shapes():
    spec = _spec()
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    for name in names:
        assert NAME.match(name), name
    assert len(set(names)) == len(names)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


def test_agrees_with_catalogue():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == catalogue.WORKLOADS
    assert [m["name"] for m in spec["end_to_end"]] == list(
        catalogue.DRIVER_END_TO_END)
    for m in spec["end_to_end"] + spec["per_layer"]:
        known = catalogue.BY_NAME[m["name"]]
        assert (m["unit"], m["better"]) == (known.unit, known.better)
        assert m.get("bound") == known.bound
        # The driver asks every workload for every metric it lists.
        assert known.workloads == catalogue.ALL
    assert [m["name"] for m in spec["per_layer"]] == [
        m.name for m in catalogue.PER_LAYER if m.workloads == catalogue.ALL]


def test_catalogue_counts():
    assert len(catalogue.WORKLOADS) == 4
    assert len(catalogue.END_TO_END) == 13
    for name in catalogue.BY_NAME:
        assert NAME.match(name), name
