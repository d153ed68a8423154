"""Unit enumeration, selectors, sweeps, and LPT scheduling order."""

from __future__ import annotations

import pytest

from repro.campaign.units import (
    SWEEPS,
    CampaignUnit,
    describe_sweep,
    enumerate_units,
    execute_unit,
    sort_for_schedule,
    unit_manifest_entry,
    _resolve_options,
)
from repro.parallel import MachineModel
from repro.reporting.experiments import EXPERIMENTS, FILTER_MESHES


class TestEnumeration:
    def test_bare_ident_expands_every_point(self):
        units = enumerate_units(["table8"])
        assert len(units) == len(FILTER_MESHES)
        assert all(u.ident == "table8" for u in units)
        assert len({u.key for u in units}) == len(units)

    def test_point_selector_narrows_to_one(self):
        (unit,) = enumerate_units(["table8@4x4"])
        assert unit.label == "table8@4x4"
        assert unit.point.as_dict() == {"meshes": ((4, 4),)}

    def test_default_point_for_unparametrized_experiment(self):
        (unit,) = enumerate_units(["blockarray"])
        assert unit.point.label == "default"

    def test_duplicate_selectors_dedupe_by_key(self):
        units = enumerate_units(["table8@4x4", "table8", "table8@4x4"])
        assert len(units) == len(FILTER_MESHES)

    def test_unknown_ident_raises_with_hint(self):
        with pytest.raises(KeyError, match="unknown experiment 'tabel8'"):
            enumerate_units(["tabel8"])

    def test_unknown_point_label_raises(self):
        with pytest.raises(KeyError, match="no point '3x3'"):
            enumerate_units(["table8@3x3"])

    def test_version_changes_every_key(self):
        old = {u.label: u.key for u in enumerate_units(["table8"], "1")}
        new = {u.label: u.key for u in enumerate_units(["table8"], "2")}
        assert old.keys() == new.keys()
        assert all(old[lbl] != new[lbl] for lbl in old)


class TestSyntheticUnits:
    def test_sleep_selector_parses(self):
        (unit,) = enumerate_units(["sleep:0.25#tag"])
        assert unit.is_synthetic
        assert unit.est_cost == 0.25
        assert unit.point.as_dict()["seconds"] == 0.25

    def test_tags_distinguish_identical_durations(self):
        units = enumerate_units(["sleep:0.1#a", "sleep:0.1#b"])
        assert len(units) == 2
        assert units[0].key != units[1].key

    def test_bad_sleep_selector_raises(self):
        with pytest.raises(ValueError, match="bad synthetic selector"):
            enumerate_units(["sleep:fast"])

    def test_execute_returns_marker(self):
        (unit,) = enumerate_units(["sleep:0.01#x"])
        out = execute_unit(unit)
        assert out == {"slept": 0.01, "unit": unit.label}


class TestScheduling:
    def test_lpt_orders_longest_first(self):
        units = enumerate_units(
            ["sleep:0.1#a", "sleep:3#b", "sleep:1#c", "sleep:0.5#d"]
        )
        ordered = sort_for_schedule(units)
        costs = [u.est_cost for u in ordered]
        assert costs == sorted(costs, reverse=True)

    def test_ties_break_deterministically_by_label(self):
        units = enumerate_units(["sleep:1#b", "sleep:1#a", "sleep:1#c"])
        ordered = sort_for_schedule(units)
        assert [u.point.label for u in ordered] == ["1#a", "1#b", "1#c"]

    def test_bigger_mesh_costs_more(self):
        by_label = {u.label: u for u in enumerate_units(["table8"])}
        assert (by_label["table8@8x30"].est_cost
                > by_label["table8@4x4"].est_cost)


class TestSweeps:
    def test_known_sweeps_enumerate(self):
        for name in SWEEPS:
            assert enumerate_units(describe_sweep(name))

    def test_full_sweep_covers_registry(self):
        idents = {u.ident for u in enumerate_units(describe_sweep("full"))}
        assert idents == set(EXPERIMENTS)

    def test_unknown_sweep_raises(self):
        with pytest.raises(KeyError, match="unknown sweep"):
            describe_sweep("gigantic")


class TestOptionsAndManifest:
    def test_machine_string_resolves_to_model(self):
        resolved = _resolve_options({"machine": "t3d", "nsteps": 4})
        assert isinstance(resolved["machine"], MachineModel)
        assert resolved["machine"].name == "t3d"
        assert resolved["nsteps"] == 4

    def test_manifest_entry_round_trips_invalidation(self):
        units = enumerate_units(["table8"])
        manifest = {"units": [unit_manifest_entry(u) for u in units]}
        keys = {entry["key"] for entry in manifest["units"]}
        assert keys == {u.key for u in units}
        stale = enumerate_units(["table8"], "other-version")
        assert not keys & {u.key for u in stale}

    def test_units_are_frozen(self):
        (unit,) = enumerate_units(["blockarray"])
        assert isinstance(unit, CampaignUnit)
        with pytest.raises(AttributeError):
            unit.ident = "other"
