"""Plain-text rendering of experiment tables and series."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.errors import ConfigError


def _format_cell(value: object, width: int) -> str:
    if isinstance(value, float):
        text = f"{value:,.3f}" if abs(value) < 1000 else f"{value:,.1f}"
    else:
        text = str(value)
    return text.rjust(width)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Fixed-width table; every row must match the header arity."""
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != len(headers):
            raise ConfigError(
                f"row arity {len(r)} != header arity {len(headers)}: {r!r}"
            )
    rendered = [[str(h) for h in headers]] + [
        [_format_cell(c, 0).strip() for c in r] for r in rows
    ]
    widths = [max(len(row[i]) for row in rendered) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(rendered[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: Sequence[float], *, lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """Render a series as a one-line ASCII sparkline.

    Values are scaled to ``[lo, hi]`` (defaulting to the data range);
    useful for eyeballing Figure 12-style timelines in terminal output.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ConfigError("cannot sparkline an empty series")
    lo = min(vals) if lo is None else float(lo)
    hi = max(vals) if hi is None else float(hi)
    if hi < lo:
        raise ConfigError(f"hi {hi} < lo {lo}")
    span = hi - lo
    chars = []
    for v in vals:
        if span <= 0:
            idx = 0
        else:
            frac = min(1.0, max(0.0, (v - lo) / span))
            idx = round(frac * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[idx])
    return "".join(chars)


def render_timelines(
    labels: Sequence[str],
    series: Sequence[Sequence[float]],
    *,
    title: Optional[str] = None,
    lo: float = 0.0,
    hi: Optional[float] = None,
) -> str:
    """Aligned sparklines for several same-length series.

    >>> print(render_timelines(["a"], [[10.0, 5.0, 10.0]], hi=10.0))
    a | @=@  [min 5.0, max 10.0]
    """
    if len(labels) != len(series):
        raise ConfigError("labels/series arity mismatch")
    if not labels:
        raise ConfigError("nothing to render")
    common_hi = hi if hi is not None else max(max(s) for s in series if s)
    width = max(len(str(l)) for l in labels)
    lines: List[str] = []
    if title:
        lines.append(title)
    for label, vals in zip(labels, series):
        spark = sparkline(vals, lo=lo, hi=common_hi)
        lines.append(
            f"{str(label).ljust(width)} | {spark}  "
            f"[min {min(vals):.1f}, max {max(vals):.1f}]"
        )
    return "\n".join(lines)
