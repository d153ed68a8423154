"""Verification subsystem: differential testing and invariants.

Two legs, mirroring how the paper validates its own optimizations:

* :mod:`repro.verify.differential` / :mod:`repro.verify.pairs` — a
  QuickCheck-style engine that drives every equivalent-implementation
  pair (convolution vs FFT filter, serial vs parallel AGCM, ...) over
  seeded randomized configurations and shrinks failures to minimal
  counterexamples.
* :mod:`repro.verify.invariants` — conservation laws every simulator
  trace must satisfy (bytes sent == received, per-rank clock identity,
  comm-matrix symmetry for pairwise exchanges).

The paper's headline ratios and the guard and 3-D bounds are held by
``tests/verify/test_paper_numbers.py``.

:mod:`repro.verify.tolerances` centralises the floating-point
comparison budgets used across all of the above and the test suite.
"""

from repro.verify import tolerances
from repro.verify.differential import (
    Counterexample,
    DifferentialFailure,
    ImplementationPair,
    PairReport,
    ParamSpace,
    assert_pair,
    check_pair,
)

__all__ = [
    "tolerances",
    "ParamSpace",
    "ImplementationPair",
    "PairReport",
    "Counterexample",
    "DifferentialFailure",
    "check_pair",
    "assert_pair",
]
