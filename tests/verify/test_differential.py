"""Unit tests for the differential-testing engine (synthetic pairs only).

The real registry is exercised under ``pytest -m differential``; here we
pin down the engine mechanics — sampling, comparison, shrinking,
reporting — with cheap arithmetic pairs whose minimal counterexample is
known exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.verify.differential import (
    DEFAULT_SEED,
    Counterexample,
    DifferentialFailure,
    ImplementationPair,
    ParamSpace,
    assert_pair,
    case_seed_for,
    check_pair,
    compare_outputs,
    main,
    run_case,
    shrink_config,
)


def _sum_pair(break_at=None, atol=1e-12):
    """Reference sums a random vector; candidate breaks for n >= break_at."""
    space = ParamSpace({"n": (1, 20)})

    def ref(config, rng):
        return rng.standard_normal(config["n"]).sum()

    def cand(config, rng):
        out = rng.standard_normal(config["n"]).sum()
        if break_at is not None and config["n"] >= break_at:
            out += 0.1
        return out

    return ImplementationPair("sum", space, ref, cand, atol=atol, rtol=0.0)


# ----------------------------------------------------------------------
# ParamSpace
# ----------------------------------------------------------------------

def test_sample_respects_bounds_and_constraint():
    space = ParamSpace(
        {"a": (1, 6), "b": (2, 9)}, constraint=lambda c: c["a"] < c["b"]
    )
    rng = np.random.default_rng(0)
    for _ in range(50):
        config = space.sample(rng)
        assert 1 <= config["a"] <= 6
        assert 2 <= config["b"] <= 9
        assert config["a"] < config["b"]
        assert space.is_valid(config)


def test_sample_is_deterministic_per_seed():
    space = ParamSpace({"a": (0, 100), "b": (0, 100)})
    draws1 = [space.sample(np.random.default_rng(7)) for _ in range(1)]
    draws2 = [space.sample(np.random.default_rng(7)) for _ in range(1)]
    assert draws1 == draws2


def test_bad_bounds_rejected():
    with pytest.raises(ValueError, match="low 5 > high 2"):
        ParamSpace({"a": (5, 2)})


def test_impossible_constraint_raises():
    space = ParamSpace({"a": (1, 3)}, constraint=lambda c: False)
    with pytest.raises(RuntimeError, match="could not sample"):
        space.sample(np.random.default_rng(0), max_tries=10)


def test_shrink_candidates_are_valid_and_strictly_simpler():
    space = ParamSpace(
        {"a": (1, 20), "b": (1, 20)}, constraint=lambda c: c["a"] <= c["b"]
    )
    config = {"a": 10, "b": 15}
    cands = list(space.shrink_candidates(config))
    assert cands, "a non-minimal config must have shrink candidates"
    for cand in cands:
        assert space.is_valid(cand)
        assert cand != config
        # exactly one parameter moved, strictly toward its lower bound
        changed = [k for k in config if cand[k] != config[k]]
        assert len(changed) == 1
        assert cand[changed[0]] < config[changed[0]]


def test_shrink_candidates_empty_at_lower_bounds():
    space = ParamSpace({"a": (3, 9)})
    assert list(space.shrink_candidates({"a": 3})) == []


# ----------------------------------------------------------------------
# compare_outputs
# ----------------------------------------------------------------------

def test_compare_equal_nested_structures():
    out = {"x": np.arange(6.0).reshape(2, 3), "y": [1.0, (2, 3)], "s": "ok",
           "flag": True, "none": None}
    assert compare_outputs(out, out, atol=0.0, rtol=0.0) is None


def test_compare_reports_path_of_mismatch():
    ref = {"x": [np.zeros(3), np.zeros(3)]}
    cand = {"x": [np.zeros(3), np.array([0.0, 1.0, 0.0])]}
    detail = compare_outputs(ref, cand, atol=1e-12, rtol=0.0)
    assert detail is not None and "output['x'][1]" in detail


def test_compare_key_and_shape_and_length_mismatches():
    assert "key sets differ" in compare_outputs({"a": 1}, {"b": 1}, 0, 0)
    assert "shape" in compare_outputs(np.zeros(3), np.zeros(4), 0, 0)
    assert "length" in compare_outputs([1], [1, 2], 0, 0)
    assert "type mismatch" in compare_outputs({"a": 1}, [1], 0, 0)


def test_compare_respects_tolerance():
    a, b = np.ones(4), np.ones(4) + 1e-11
    assert compare_outputs(a, b, atol=1e-10, rtol=0.0) is None
    assert compare_outputs(a, b, atol=1e-12, rtol=0.0) is not None


def test_compare_bools_are_not_numeric():
    assert compare_outputs(True, False, atol=10.0, rtol=10.0) is not None
    assert compare_outputs(True, True, atol=0.0, rtol=0.0) is None


def test_compare_nan_never_equal():
    assert compare_outputs(np.array([np.nan]), np.array([np.nan]), 1.0, 1.0)


# ----------------------------------------------------------------------
# seeds and cases
# ----------------------------------------------------------------------

def test_case_seed_is_deterministic_and_distinct():
    s0 = case_seed_for(DEFAULT_SEED, "pair", 0)
    assert s0 == case_seed_for(DEFAULT_SEED, "pair", 0)
    seeds = {case_seed_for(DEFAULT_SEED, "pair", i) for i in range(10)}
    assert len(seeds) == 10
    assert case_seed_for(DEFAULT_SEED, "other", 0) != s0


def test_run_case_shares_the_input_stream():
    # reference and candidate draw identical data, so the pure-sum pair
    # agrees bit-for-bit even with atol 0
    pair = _sum_pair(atol=0.0)
    assert run_case(pair, {"n": 13}, case_seed=42) is None


def test_run_case_turns_exceptions_into_mismatches():
    def boom(config, rng):
        raise RuntimeError("kaboom")

    pair = ImplementationPair(
        "boom", ParamSpace({"n": (1, 4)}), _sum_pair().reference, boom
    )
    detail = run_case(pair, {"n": 2}, case_seed=1)
    assert "candidate raised RuntimeError: kaboom" in detail


# ----------------------------------------------------------------------
# check / shrink / assert
# ----------------------------------------------------------------------

def test_check_pair_passes_clean_pair():
    report = check_pair(_sum_pair(), nconfigs=8)
    assert report.ok and report.cases_run == 8
    assert len(report.configs) == 8
    assert "PASS" in str(report)


def test_check_pair_shrinks_to_exact_minimal_config():
    report = check_pair(_sum_pair(break_at=7), nconfigs=10)
    assert not report.ok
    cx = report.counterexample
    assert cx.config == {"n": 7}, "greedy shrink must find the threshold"
    assert cx.original_config["n"] >= 7
    assert cx.shrink_steps >= 1
    # the printed form carries everything needed to reproduce
    text = str(cx)
    assert "MINIMAL COUNTEREXAMPLE" in text
    assert "case_seed" in text and str(cx.case_seed) in text


def test_check_pair_without_shrink_keeps_original():
    report = check_pair(_sum_pair(break_at=7), nconfigs=10, shrink=False)
    assert not report.ok
    assert report.counterexample.config == report.counterexample.original_config
    assert report.counterexample.shrink_steps == 0


def test_shrink_config_rejects_passing_config():
    with pytest.raises(ValueError, match="passing configuration"):
        shrink_config(_sum_pair(break_at=7), {"n": 3}, case_seed=1)


def test_assert_pair_raises_differential_failure():
    with pytest.raises(DifferentialFailure) as err:
        assert_pair(_sum_pair(break_at=2), nconfigs=5)
    assert isinstance(err.value.counterexample, Counterexample)
    assert "MINIMAL COUNTEREXAMPLE" in str(err.value)


def test_failures_reproduce_from_the_printed_seed():
    report = check_pair(_sum_pair(break_at=7), nconfigs=10)
    cx = report.counterexample
    detail = run_case(_sum_pair(break_at=7), cx.config, cx.case_seed)
    assert detail is not None


# ----------------------------------------------------------------------
# registry sanity (imports pairs, but runs nothing expensive)
# ----------------------------------------------------------------------

def test_registry_names_unique_and_described():
    from repro.verify.pairs import default_pairs, pair_by_name

    pairs = default_pairs()
    names = [p.name for p in pairs]
    assert len(names) == len(set(names))
    assert len(pairs) >= 12
    for pair in pairs:
        assert pair.description, f"{pair.name} needs a description"
        assert pair.space.bounds
    assert pair_by_name(names[0]).name == names[0]
    with pytest.raises(KeyError):
        pair_by_name("no-such-pair")


def test_cli_list_and_unknown_pair(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "agcm-serial-vs-parallel" in out
    assert main(["--pairs", "definitely-not-registered"]) == 2
