"""Minimal SVG line charts with no plotting dependency.

Produces a fixed-size chart with axes, tick labels, one polyline per series
and a legend. Rendering is deterministic: coordinates are formatted with a
fixed precision, so identical inputs give byte-identical output.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

WIDTH = 960
HEIGHT = 600
MARGIN_LEFT = 80
MARGIN_RIGHT = 250
MARGIN_TOP = 60
MARGIN_BOTTOM = 70

COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
    "#e377c2",
)


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _plot_box() -> tuple[float, float, float, float]:
    return (
        float(MARGIN_LEFT),
        float(MARGIN_TOP),
        float(WIDTH - MARGIN_RIGHT),
        float(HEIGHT - MARGIN_BOTTOM),
    )


def _to_px(v, lo: float, hi: float, start: float, stop: float):
    """Pixels of the values ``v`` (a float or an array) on an axis that maps ``lo``
    to ``start`` and ``hi`` to ``stop``; the axis middle for a one-value range."""
    if hi == lo:
        return 0.5 * (start + stop)
    return start + (v - lo) / (hi - lo) * (stop - start)


def polyline_points(
    xs: Sequence[float],
    ys: Sequence[float],
    x_range: tuple[float, float],
    y_range: tuple[float, float],
) -> str:
    """The exact ``points`` attribute a series renders to: ``_to_px`` of every
    point, on the x axis from left to right and the y axis from bottom to top."""
    left, top, right, bottom = _plot_box()
    pixels = np.empty((len(xs), 2))
    pixels[:, 0] = _to_px(np.asarray(xs, dtype=float), *x_range, left, right)
    pixels[:, 1] = _to_px(np.asarray(ys, dtype=float), *y_range, bottom, top)
    return " ".join(["%.3f,%.3f"] * len(xs)) % tuple(pixels.ravel().tolist())


def render_line_chart(
    xs: Sequence[float],
    series: Sequence[tuple[str, Sequence[float]]],
    title: str,
    x_label: str,
) -> str:
    """Render a complete SVG document for the given series."""
    if not len(xs := np.asarray(xs, dtype=float)):
        raise ValueError("no x values to plot")
    if not series:
        raise ValueError("no series to plot")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    all_y = np.concatenate([np.asarray(ys, dtype=float) for _, ys in series])
    y_lo = min(0.0, float(all_y.min()))
    y_hi = float(all_y.max())
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_hi *= 1.05
    left, top, right, bottom = _plot_box()

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="32" text-anchor="middle" font-size="20" '
        f'font-family="sans-serif">{_escape(title)}</text>',
    ]

    n_ticks = 5
    for i in range(n_ticks + 1):
        yv = y_lo + (y_hi - y_lo) * i / n_ticks
        py = _to_px(yv, y_lo, y_hi, bottom, top)
        lines.append(
            f'<line x1="{left:.1f}" y1="{py:.3f}" x2="{right:.1f}" y2="{py:.3f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{left - 8:.1f}" y="{py + 4:.3f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">{yv:.3g}</text>'
        )
        xv = x_lo + (x_hi - x_lo) * i / n_ticks
        px = _to_px(xv, x_lo, x_hi, left, right)
        lines.append(
            f'<line x1="{px:.3f}" y1="{bottom:.1f}" x2="{px:.3f}" y2="{bottom + 6:.1f}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{px:.3f}" y="{bottom + 22:.1f}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{xv:.3g}</text>'
        )

    lines.append(
        f'<line x1="{left:.1f}" y1="{bottom:.1f}" x2="{right:.1f}" y2="{bottom:.1f}" '
        'stroke="#000000" stroke-width="2"/>'
    )
    lines.append(
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{bottom:.1f}" '
        'stroke="#000000" stroke-width="2"/>'
    )
    lines.append(
        f'<text x="{(left + right) / 2:.1f}" y="{HEIGHT - 18}" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{_escape(x_label)}</text>'
    )
    lines.append(
        f'<text x="22" y="{(top + bottom) / 2:.1f}" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif" transform="rotate(-90 22 {(top + bottom) / 2:.1f})">'
        "value</text>"
    )

    legend_x = right + 18
    legend_y = top + 10
    for idx, (label, ys) in enumerate(series):
        color = COLORS[idx % len(COLORS)]
        pts = polyline_points(xs, ys, (x_lo, x_hi), (y_lo, y_hi))
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>'
        )
        ly = legend_y + idx * 20
        lines.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        lines.append(
            f'<text x="{legend_x + 28}" y="{ly + 4}" text-anchor="start" font-size="12" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
