"""Minimal deterministic SVG line plots.

Fixed 800x500 canvas, polylines only, no external assets or scripts: the
output is meant to be diffed and committed, not styled.  Series are
distinguished by dash pattern (solid / dashed / dotted), matching the way
the reproduced plots label their curves.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 44, 56

_DASHES = {"solid": None, "dashed": "9,5", "dotted": "2,4"}

#: (label, y-array, style) — label None suppresses the legend entry.
Series = Tuple[Optional[str], Sequence[float], str]


def _ticks(lo: float, hi: float, n: int = 6) -> np.ndarray:
    return np.linspace(lo, hi, n)


def _fmt(v: float) -> str:
    out = f"{v:.4g}"
    return "0" if out == "-0" else out


def write_text(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` whole or not at all, via ``<path>.<pid>.tmp``."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def line_plot(path: str, title: str, xlabel: str, ylabel: str,
              xdata: Sequence[float], series: List[Series]) -> None:
    """Write one SVG line plot with axes, tick labels, and a legend."""
    x = np.asarray(xdata, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y, _ in series]
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo = min(float(y.min()) for y in ys)
    y_hi = max(float(y.max()) for y in ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.04 * (y_hi - y_lo) if y_hi > y_lo else 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # Pixel coordinates; scalars (ticks) and arrays (curves) alike.
    def sx(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="Helvetica,Arial,sans-serif" font-size="16">{title}</text>',
    ]

    # Axes box and ticks.
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>')
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(f'<line x1="{px:.2f}" y1="{MARGIN_T + plot_h}" '
                     f'x2="{px:.2f}" y2="{MARGIN_T + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{MARGIN_T + plot_h + 20}" '
                     f'text-anchor="middle" font-family="Helvetica,Arial,sans-serif" '
                     f'font-size="12">{_fmt(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" '
                     f'x2="{MARGIN_L}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" '
                     f'text-anchor="end" font-family="Helvetica,Arial,sans-serif" '
                     f'font-size="12">{_fmt(ty)}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
                 f'text-anchor="middle" font-family="Helvetica,Arial,sans-serif" '
                 f'font-size="14">{xlabel}</text>')
    parts.append(f'<text x="20" y="{MARGIN_T + plot_h / 2:.1f}" '
                 f'text-anchor="middle" font-family="Helvetica,Arial,sans-serif" '
                 f'font-size="14" transform="rotate(-90 20 {MARGIN_T + plot_h / 2:.1f})">'
                 f'{ylabel}</text>')

    # Curves: one "x,y" template per point, filled by one % operation.
    px = sx(x)
    points = " ".join(["%.2f,%.2f"] * len(x))
    for (_, _, style), y in zip(series, ys):
        dash = _DASHES[style]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        pts = points % tuple(np.column_stack((px, sy(y))).ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" stroke="black" '
                     f'stroke-width="1.2"{dash_attr}/>')

    # Legend (labeled series only), top-right inside the plot box.
    labeled = [(lab, sty) for lab, _, sty in series if lab]
    if labeled:
        lx = MARGIN_L + plot_w - 170
        ly = MARGIN_T + 12
        parts.append(f'<rect x="{lx - 8}" y="{ly - 4}" width="172" '
                     f'height="{18 * len(labeled) + 8}" fill="white" '
                     f'stroke="black" stroke-width="0.5"/>')
        for i, (lab, sty) in enumerate(labeled):
            yy = ly + 10 + 18 * i
            dash = _DASHES[sty]
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            parts.append(f'<line x1="{lx}" y1="{yy - 4}" x2="{lx + 30}" '
                         f'y2="{yy - 4}" stroke="black" stroke-width="1.2"{dash_attr}/>')
            parts.append(f'<text x="{lx + 36}" y="{yy}" '
                         f'font-family="Helvetica,Arial,sans-serif" '
                         f'font-size="12">{lab}</text>')

    parts.append("</svg>")
    write_text(path, ["\n".join(parts) + "\n"])
