"""Plain-text table formatting for the benchmarks and the CLI.

Everything prints through these helpers so that the benchmark output and the
documented results share one format (a GitHub-flavoured Markdown table).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Sequence


def format_table(rows: Sequence[Mapping[str, Any]], title: str = "") -> str:
    """Render a list of dict rows as a Markdown table.

    Column order follows the keys of the first row; later rows may omit keys
    (rendered blank) but must not add new ones.
    """
    if not rows:
        return f"## {title}\n\n(no rows)\n" if title else "(no rows)\n"
    columns = list(rows[0].keys())
    widths = {c: max(len(str(c)), max(len(str(r.get(c, ""))) for r in rows)) for c in columns}

    def fmt_row(values: Iterable[str]) -> str:
        return "| " + " | ".join(str(v).ljust(widths[c]) for c, v in zip(columns, values)) + " |"

    lines: List[str] = []
    if title:
        lines.append(f"## {title}")
        lines.append("")
    lines.append(fmt_row(columns))
    lines.append("| " + " | ".join("-" * widths[c] for c in columns) + " |")
    for row in rows:
        lines.append(fmt_row([row.get(c, "") for c in columns]))
    lines.append("")
    return "\n".join(lines)


def series_to_rows(series: Mapping[Any, Mapping[str, Any]], key_name: str = "key") -> List[Dict[str, Any]]:
    """Turn ``{key: {col: val}}`` into a list of rows with the key as first column."""
    rows: List[Dict[str, Any]] = []
    for key, values in series.items():
        row: Dict[str, Any] = {key_name: key}
        row.update(values)
        rows.append(row)
    return rows
