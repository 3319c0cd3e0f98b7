"""Plain-text rendering helpers for experiment output.

Each experiment prints the same rows/series the paper reports, so a
bench run reads like the evaluation section of the paper.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

__all__ = ["render_table", "render_cdf_summary", "banner",
           "format_delta", "format_band"]


def banner(title: str) -> str:
    """A section header line."""
    bar = "=" * max(len(title), 8)
    return f"\n{bar}\n{title}\n{bar}"


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """A fixed-width text table."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def format_delta(value: float, baseline: Optional[float],
                 unit: str = "") -> str:
    """``value`` against ``baseline`` as ``"+0.12s (+34%)"``.

    The check/compare scoreboards lean on this so every delta column
    reads the same way; a missing baseline renders as ``"-"``.
    """
    if baseline is None:
        return "-"
    delta = value - baseline
    text = f"{delta:+.3g}{unit}"
    if baseline:
        text += f" ({delta / baseline:+.0%})"
    return text


def format_band(lo: float, hi: float) -> str:
    """An accepted band as ``"[lo, hi]"`` with short float rendering."""
    return f"[{lo:g}, {hi:g}]"


def render_cdf_summary(
    label: str, values: Sequence[float], quantiles: Sequence[float] = (0.25, 0.5, 0.75, 0.9)
) -> str:
    """One line summarising a distribution by its quantiles.

    An empty sample renders as ``n=0`` alone: it has no quantiles.
    """
    from ..mobility import percentile

    if not values:
        return f"{label}: n=0"
    parts = [f"p{int(q * 100)}={percentile(values, q):.3g}" for q in quantiles]
    parts.append(f"max={max(values):.3g}")
    return f"{label}: n={len(values)} " + " ".join(parts)
