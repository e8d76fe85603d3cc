"""Text rendering of experiment tables.

No plotting libraries are available offline, so figures are rendered as
aligned text tables / series — the same rows a paper table would hold.
``Table`` is the single currency between experiment modules, the CLI,
the benchmark suite and EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Union

__all__ = ["Table", "format_cell"]

Cell = Union[str, int, float, None]


def format_cell(value: Cell) -> str:
    """Uniform cell formatting: floats to 3 significant decimals,
    NaN/None as '-'."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if value == int(value) and abs(value) < 1e12:
            return str(int(value))
        return f"{value:.3f}"
    return str(value)


@dataclass
class Table:
    """An experiment table: id, caption, named columns, rows of cells."""

    table_id: str
    caption: str
    columns: Sequence[str]
    rows: List[Sequence[Cell]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table {self.table_id} has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(cells)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        """Aligned monospace rendering, ready for a terminal or a README."""
        header = [str(c) for c in self.columns]
        body = [[format_cell(c) for c in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [
            f"[{self.table_id}] {self.caption}",
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            sep,
        ]
        for row in body:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Comma-separated rendering for downstream tooling."""
        out = [",".join(str(c) for c in self.columns)]
        for row in self.rows:
            out.append(",".join(format_cell(c) for c in row))
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()
