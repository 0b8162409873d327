"""Plain-text table rendering for benchmark output."""

from __future__ import annotations

from typing import Sequence


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3g}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table (paper-style)."""
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(headers, rows, title=None) -> None:
    print()
    print(format_table(headers, rows, title))
    print()


def record_table(name: str, headers, rows, title=None) -> str:
    """Print the table AND persist it under ``benchmarks/results/``.

    The output directory is overridable via ``REPRO_RESULTS_DIR``; the
    rendered text is returned. Benchmarks call this so the regenerated
    paper tables survive the pytest run (they feed EXPERIMENTS.md).
    """
    import os
    from pathlib import Path

    text = format_table(headers, rows, title)
    print()
    print(text)
    print()
    out_dir = Path(os.environ.get("REPRO_RESULTS_DIR", "benchmarks/results"))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(text + "\n")
    except OSError:
        pass  # read-only environments still get the printed table
    return text
