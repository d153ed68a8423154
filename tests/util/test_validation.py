"""Tests for validation helpers."""

import pytest

from repro.util.validation import (
    check_in_range,
    check_positive_int,
    require,
)


class TestRequire:
    def test_passes(self):
        require(True, "never raised")

    def test_raises(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")


class TestCheckPositiveInt:
    def test_accepts_int(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_integral_float(self):
        assert check_positive_int(4.0, "x") == 4

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(-2, "x")

    def test_rejects_fraction(self):
        with pytest.raises(TypeError):
            check_positive_int(2.5, "x")

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            check_positive_int("many", "x")


class TestCheckInRange:
    def test_inside(self):
        assert check_in_range(0.5, "x", 0, 1) == 0.5

    def test_boundaries_inclusive(self):
        check_in_range(0.0, "x", 0, 1)
        check_in_range(1.0, "x", 0, 1)

    def test_outside(self):
        with pytest.raises(ValueError):
            check_in_range(1.5, "x", 0, 1)
