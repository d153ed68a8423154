"""Regression test for a kernel-layer bugfix.

``pointwise_multiply_naive`` (and ``_tiled``'s default allocation)
returned float64 for float32 inputs, so the semantics oracle disagreed in
dtype with the vectorised variants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf import kernels


class TestPointwiseDtype:
    VARIANTS = (
        kernels.pointwise_multiply_naive,
        kernels.pointwise_multiply_reshaped,
        kernels.pointwise_multiply_tiled,
    )

    @pytest.mark.parametrize("fn", VARIANTS, ids=lambda f: f.__name__)
    def test_float32_round_trip(self, fn):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(24).astype(np.float32)
        b = rng.standard_normal(8).astype(np.float32)
        out = fn(a, b)
        assert out.dtype == np.float32

    def test_float32_variants_agree_exactly(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal(36).astype(np.float32)
        b = rng.standard_normal(9).astype(np.float32)
        ref = kernels.pointwise_multiply_naive(a, b)
        for fn in self.VARIANTS[1:]:
            got = fn(a, b)
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    def test_mixed_dtype_promotes_like_numpy(self):
        a = np.ones(8, dtype=np.float32)
        b = np.ones(4, dtype=np.float64)
        for fn in self.VARIANTS:
            assert fn(a, b).dtype == np.float64

    def test_float64_unchanged(self):
        a, b = np.ones(8), np.ones(4)
        for fn in self.VARIANTS:
            assert fn(a, b).dtype == np.float64
