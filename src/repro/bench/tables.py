"""Fixed-width table rendering for the benchmark harnesses.

Every benchmark prints its result in the same row/column structure as the
paper's table or figure, so EXPERIMENTS.md can be filled by copy-paste.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class Table:
    """A fixed-width text table.

    Args:
        title: printed above the table.
        columns: column headers.
        aligns: per-column 'l' or 'r' (defaults to right for all).
    """

    title: str
    columns: Sequence[str]
    aligns: Sequence[str] | None = None
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        """Append a row; cells are str()-ed, floats get 3 significant digits."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        formatted = []
        for cell in cells:
            if isinstance(cell, float):
                formatted.append(f"{cell:.3g}")
            else:
                formatted.append(str(cell))
        self.rows.append(formatted)

    def render(self) -> str:
        aligns = list(self.aligns or ["r"] * len(self.columns))
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt(cells: Sequence[str]) -> str:
            parts = []
            for cell, width, align in zip(cells, widths, aligns):
                parts.append(cell.ljust(width) if align == "l" else cell.rjust(width))
            return "  ".join(parts)

        sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
        lines = [self.title, sep, fmt(list(self.columns)), sep]
        lines += [fmt(row) for row in self.rows]
        lines.append(sep)
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console side effect
        print("\n" + self.render() + "\n")

    def to_markdown(self) -> str:
        """GitHub-flavored pipe table (header + alignment row + rows).

        The title is *not* included — markdown callers put it in a
        heading of their own.
        """
        aligns = list(self.aligns or ["r"] * len(self.columns))
        header = "| " + " | ".join(self.columns) + " |"
        rule = "| " + " | ".join(
            ":---" if a == "l" else "---:" for a in aligns
        ) + " |"
        rows = ["| " + " | ".join(row) + " |" for row in self.rows]
        return "\n".join([header, rule, *rows])
