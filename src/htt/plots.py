"""Standalone SVG histograms rendered directly from histogram CSV files.

The renderer is deterministic: identical input produces byte-identical SVG,
and each series is emitted as a single path whose data depends only on the
numbers, so overlaying two identical histograms yields two identical path
elements.  No plotting library is involved.
"""

from __future__ import annotations

from pathlib import Path

from .serialize import load_histogram_csv

__all__ = ["render_histogram_svg", "emit_plots"]

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 56
_MARGIN_R = 16
_MARGIN_T = 28
_MARGIN_B = 44
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _bar_path(edges, masses, xmap, ymap) -> str:
    """One path tracing the histogram outline: every bin contributes a
    closed rectangle, including zero-mass bins (zero-height bars)."""
    parts = []
    y0 = _fmt(ymap(0.0))
    for left, right, mass in zip(edges[:-1], edges[1:], masses):
        x0, x1, y1 = _fmt(xmap(left)), _fmt(xmap(right)), _fmt(ymap(mass))
        parts.append(f"M{x0} {y0}L{x0} {y1}L{x1} {y1}L{x1} {y0}Z")
    return "".join(parts)


def render_histogram_svg(series, title: str = "") -> str:
    """Render one or more (label, edges, masses) histogram series.

    Multiple series share axes and are drawn as translucent outlined bars
    with a legend.
    """
    if not series:
        raise ValueError("nothing to plot")
    xs_lo = min(float(edges[0]) for _, edges, _ in series)
    xs_hi = max(float(edges[-1]) for _, edges, _ in series)
    y_hi = max(float(max(masses)) for _, _, masses in series)
    if xs_hi == xs_lo:
        xs_lo, xs_hi = xs_lo - 0.5, xs_hi + 0.5
    if y_hi <= 0.0:
        y_hi = 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def xmap(x):
        return _MARGIN_L + (x - xs_lo) / (xs_hi - xs_lo) * plot_w

    def ymap(y):
        return _MARGIN_T + plot_h - y / y_hi * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        lines.append(
            f'<text x="{_WIDTH // 2}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title}</text>'
        )
    for i, (label, edges, masses) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        path = _bar_path(edges, masses, xmap, ymap)
        lines.append(
            f'<path d="{path}" fill="{color}" fill-opacity="0.35" '
            f'stroke="{color}" stroke-width="1"/>'
        )
        ly = _MARGIN_T + 14 + 16 * i
        lines.append(
            f'<rect x="{_WIDTH - 150}" y="{ly - 9}" width="10" height="10" '
            f'fill="{color}" fill-opacity="0.35" stroke="{color}"/>'
        )
        lines.append(
            f'<text x="{_WIDTH - 136}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    # axes
    ax_y = _MARGIN_T + plot_h
    lines.append(
        f'<line x1="{_MARGIN_L}" y1="{ax_y}" x2="{_WIDTH - _MARGIN_R}" '
        f'y2="{ax_y}" stroke="black" stroke-width="1"/>'
    )
    lines.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{ax_y}" stroke="black" stroke-width="1"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = xs_lo + frac * (xs_hi - xs_lo)
        xp = _fmt(xmap(xv))
        lines.append(
            f'<line x1="{xp}" y1="{ax_y}" x2="{xp}" y2="{ax_y + 4}" '
            f'stroke="black" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{xp}" y="{ax_y + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(xv)}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        yv = frac * y_hi
        yp = _fmt(ymap(yv))
        lines.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{yp}" x2="{_MARGIN_L}" y2="{yp}" '
            f'stroke="black" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{_MARGIN_L - 8}" y="{yp}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(yv)}</text>'
        )
    lines.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">location</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_plots(csv_paths, out_path=None, overlay: bool = True, title: str = ""):
    """Render histogram CSVs to SVG.

    With ``overlay`` all inputs share one SVG, ``out_path`` or the first
    CSV's path with suffix .svg; otherwise one SVG per input, next to it, and
    an ``out_path`` is rejected.  Returns the list of files written.
    """
    csv_paths = [Path(p) for p in csv_paths]
    if not csv_paths:
        raise ValueError("no histogram CSVs given")
    if out_path is not None and not overlay:
        raise ValueError("an output path names the overlay SVG; separate plots "
                         "are written next to their CSVs")
    series = []
    for p in csv_paths:
        edges, masses = load_histogram_csv(p)
        series.append((p.stem, edges, masses))
    written = []
    if overlay:
        target = Path(out_path) if out_path else csv_paths[0].with_suffix(".svg")
        target.write_text(render_histogram_svg(series, title=title))
        written.append(target)
    else:
        for (label, edges, masses), p in zip(series, csv_paths):
            target = p.with_suffix(".svg")
            target.write_text(render_histogram_svg([(label, edges, masses)], title=title))
            written.append(target)
    return written
