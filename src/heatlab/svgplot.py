"""Minimal dependency-free SVG line plots.

CSV files are the contract of every scenario; these plots are a convenience
for eyeballing curves, enabled by the --plot flag.
"""

from __future__ import annotations

import math
from pathlib import Path

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 640, 400
MARGIN = 54


def _ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * span:
        out.append(v)
        v += step
    return out


def write_line_plot(
    path,
    x,
    series,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logy: bool = False,
) -> None:
    """Write polyline plots of ``series`` = [(label, y-array), ...] against x."""
    xs = [float(v) for v in x]
    prepared = []
    for label, ys in series:
        ys = [float(v) for v in ys]
        if logy:
            ys = [math.log10(v) if v > 0 else float("nan") for v in ys]
        prepared.append((label, ys))
    all_y = [v for _, ys in prepared for v in ys if not math.isnan(v)]
    if not all_y:
        all_y = [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(v: float) -> float:
        return MARGIN + (v - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def py(v: float) -> float:
        return HEIGHT - MARGIN - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    axis = (
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>'
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>'
    )
    parts.append(axis)
    for tv in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{px(tv):.1f}" y="{HEIGHT - MARGIN + 16}" text-anchor="middle" '
            f'font-size="10">{tv:.4g}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        label = f"1e{tv:.3g}" if logy else f"{tv:.4g}"
        parts.append(
            f'<text x="{MARGIN - 6}" y="{py(tv):.1f}" text-anchor="end" '
            f'font-size="10">{label}</text>'
        )
    for i, (label, ys) in enumerate(prepared):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(
            f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(xs, ys) if not math.isnan(yv)
        )
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN + 4}" y="{MARGIN + 14 * i + 10}" font-size="10" '
            f'fill="{color}">{label}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-size="11">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{HEIGHT / 2:.1f}" text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 14 {HEIGHT / 2:.1f})">{ylabel}</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
