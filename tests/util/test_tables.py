"""Tests for the table renderer."""

import pytest

from repro.util.tables import Table, format_seconds


class TestFormatSeconds:
    def test_large_values_no_decimals(self):
        assert format_seconds(8702.3) == "8702"

    def test_mid_values_one_decimal(self):
        assert format_seconds(848.52) == "848.5"

    def test_small_values(self):
        assert format_seconds(35.123) == "35.12"
        assert format_seconds(7.4) == "7.400"

    def test_zero(self):
        assert format_seconds(0) == "0"


class TestTable:
    def test_renders_headers_and_rows(self):
        t = Table("Demo", ["a", "bb"])
        t.add_row(1, "x")
        text = t.render()
        assert "Demo" in text
        assert "a" in text and "bb" in text
        assert "x" in text

    def test_float_cells_formatted(self):
        t = Table("T", ["v"])
        t.add_row(1234.5)
        assert "1234" in t.render()

    def test_wrong_cell_count(self):
        t = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_alignment_consistent_width(self):
        t = Table("T", ["col"])
        t.add_row("short")
        t.add_row("a much longer cell")
        lines = t.render().splitlines()
        data_lines = lines[2:]
        assert len({len(line) for line in data_lines}) == 1
