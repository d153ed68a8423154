"""Shared utilities: validation, block partitioning, tables."""

from repro.util.validation import (
    check_chunk_count,
    check_positive_int,
    check_in_range,
    require,
)
from repro.util.partition import block_partition, block_bounds, owner_of
from repro.util.tables import Table, format_seconds

__all__ = [
    "check_chunk_count",
    "check_positive_int",
    "check_in_range",
    "require",
    "block_partition",
    "block_bounds",
    "owner_of",
    "Table",
    "format_seconds",
]
