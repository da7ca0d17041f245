"""Plain-text report formatting for benchmark output.

The benchmark harness prints the same rows / series the paper's tables and
figures report; these helpers render them as aligned text tables so the
output of ``pytest benchmarks/`` is directly comparable with the paper.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str],
    title: str = "",
    float_format: str = "{:.3f}",
) -> str:
    """Render dict rows as an aligned text table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)
    widths = [
        max(len(column), *(len(row[index]) for row in rendered_rows)) if rendered_rows else len(column)
        for index, column in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(widths[index]) for index, column in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)
