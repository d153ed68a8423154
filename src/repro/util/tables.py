"""Paper-style ASCII table rendering for benchmark harness output.

Every benchmark that regenerates one of the paper's tables prints its rows
through :class:`Table`, so that ``pytest benchmarks/ --benchmark-only``
output can be compared side-by-side with the paper.
"""

from __future__ import annotations

from typing import List, Sequence


def format_seconds(value: float) -> str:
    """Format a virtual-seconds quantity the way the paper prints timings."""
    if value == 0:
        return "0"
    if value >= 1000:
        return f"{value:.0f}"
    if value >= 100:
        return f"{value:.1f}"
    if value >= 10:
        return f"{value:.2f}"
    return f"{value:.3f}"


class Table:
    """Minimal monospace table with a title, headers and aligned columns."""

    def __init__(self, title: str, headers: Sequence[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: object) -> None:
        """Append a row; cells are stringified (floats via format_seconds)."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        rendered = []
        for cell in cells:
            if isinstance(cell, float):
                rendered.append(format_seconds(cell))
            else:
                rendered.append(str(cell))
        self.rows.append(rendered)

    def render(self) -> str:
        """Return the formatted table as a string."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * max(len(self.title), len(sep))]
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
