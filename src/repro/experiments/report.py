"""Plain-text table formatting for experiment output."""

from __future__ import annotations

from typing import Any, Sequence


def _render_value(value: Any) -> str:
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        if abs(value) >= 1000 or (value != 0 and abs(value) < 0.001):
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Sequence[dict[str, Any]]) -> str:
    """Render a list of row dictionaries as an aligned text table.

    The columns are the keys of the first row, in order.  Every experiment
    prints its results through this helper, so the output is directly
    comparable to ``tests/golden/runner.txt``.
    """
    rows = list(rows)
    if not rows:
        return "(no rows)"
    column_names = list(rows[0].keys())
    rendered = [[_render_value(row.get(name, "")) for name in column_names] for row in rows]
    widths = [
        max(len(name), *(len(line[index]) for line in rendered))
        for index, name in enumerate(column_names)
    ]
    header = "  ".join(name.ljust(widths[index]) for index, name in enumerate(column_names))
    separator = "  ".join("-" * widths[index] for index in range(len(column_names)))
    body = [
        "  ".join(line[index].ljust(widths[index]) for index in range(len(column_names)))
        for line in rendered
    ]
    return "\n".join([header, separator, *body])
