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


def _escape(text: str) -> str:
    """``text`` as SVG character data: ``&``, ``<`` and ``>`` as entities.

    ``html.escape(text, quote=False)`` does the same, but importing
    ``html`` costs about 2 ms of start-up.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x, y, size: int, text: str, anchor: Optional[str] = "middle", extra: str = "") -> str:
    """A ``<text>`` label at ``(x, y)``, both already formatted; ``extra`` follows the font size."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor_attr} font-family="Helvetica,Arial,sans-serif" '
            f'font-size="{size}"{extra}>{_escape(text)}</text>')


def _dash_attr(style: str) -> str:
    """The ``stroke-dasharray`` attribute of a series style, empty for a solid line."""
    dash = _DASHES[style]
    return f' stroke-dasharray="{dash}"' if dash else ""


#: Values the array path of :func:`_points` formats: ``|v| < FAST_MAX``
#: keeps ``100·|v|`` below 1e9, where its rounding error is under 6e-8.
FAST_MAX = 1e7
#: Values whose ``100·|v|`` has a fraction this close to one half go
#: through ``%``, which rounds the exact binary value (ties to even).
TIE_MARGIN = 1e-6


def _points(x: np.ndarray, y: np.ndarray) -> str:
    """``" ".join(["%.2f,%.2f"] * len(x)) % pairs`` for the pairs ``(x[i], y[i])``.

    Each value's digits come from the integer ``r = floor(100·|v| + 0.5)``.
    Every value gets a field as wide as the widest one: its sign, integer
    digits, point, two decimals, then ``,`` after an x and a space after a
    y, with unused bytes 0; one ``translate`` deletes the 0s.  NaN,
    infinities, ``|v| >= FAST_MAX`` and near ties (:data:`TIE_MARGIN`) are
    formatted by Python's ``%`` and spliced in before their separator.  A
    negative value keeps its sign when it rounds to zero, as with ``%``:
    ``-0.001`` gives ``-0.00``.
    """
    v = np.column_stack((np.asarray(x, dtype=float), np.asarray(y, dtype=float))).ravel()
    a = np.abs(v)
    fast = a < FAST_MAX                       # NaN fails too
    if not fast.all():
        a[~fast] = 0.0
    a *= 100.0
    whole = np.floor(a)
    a -= whole                                # the fraction
    r = whole.astype(np.uint32)
    r += a > 0.5
    a -= 0.5
    fast &= np.abs(a, out=a) >= TIE_MARGIN

    width = len(str(int(r.max(initial=0)) // 100)) + 5
    cells = np.zeros((v.size, width), dtype=np.uint8)
    cells[:, 0] = np.signbit(v)
    cells[:, 0] *= ord("-")
    cells[:, -4] = ord(".")
    cells[0::2, -1] = ord(",")
    cells[1::2, -1] = ord(" ")
    # Digit k of r (of 10**k) goes left of the point from k = 2 on; past
    # the units digit, a digit of a zero leading part stays 0.
    rest = r
    for k in range(width - 3):
        high = rest // 10
        digit = rest - high * 10
        digit += ord("0")
        if k > 2:
            digit *= rest > 0
        cells[:, -2 - k if k < 2 else -3 - k] = digit
        rest = high

    slow = np.flatnonzero(~fast)
    cells[slow, :-1] = 0
    text = cells.tobytes().translate(None, b"\0")
    if slow.size:
        ends = np.cumsum(np.count_nonzero(cells, axis=1))
        pieces, start = [], 0
        for i in slow.tolist():
            # Field i is its separator alone, which ends at ends[i].
            pieces += [text[start:ends[i] - 1], b"%.2f" % v[i]]
            start = ends[i] - 1
        pieces.append(text[start:])
        text = b"".join(pieces)
    return text[:-1].decode("ascii")


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
        _text(f"{WIDTH / 2:.1f}", 24, 16, title),
    ]

    # Axes box and ticks.
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>')
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(f'<line x1="{px:.2f}" y1="{MARGIN_T + plot_h}" '
                     f'x2="{px:.2f}" y2="{MARGIN_T + plot_h + 5}" stroke="black"/>')
        parts.append(_text(f"{px:.2f}", MARGIN_T + plot_h + 20, 12, _fmt(tx)))
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" '
                     f'x2="{MARGIN_L}" y2="{py:.2f}" stroke="black"/>')
        parts.append(_text(MARGIN_L - 8, f"{py + 4:.2f}", 12, _fmt(ty), anchor="end"))
    parts.append(_text(f"{MARGIN_L + plot_w / 2:.1f}", HEIGHT - 12, 14, xlabel))
    mid = f"{MARGIN_T + plot_h / 2:.1f}"
    parts.append(_text(20, mid, 14, ylabel, extra=f' transform="rotate(-90 20 {mid})"'))

    # Curves: every point's "x,y" formatted at once by _points.
    px = sx(x)
    for (_, _, style), y in zip(series, ys):
        pts = _points(px, sy(y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="black" '
                     f'stroke-width="1.2"{_dash_attr(style)}/>')

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
            parts.append(f'<line x1="{lx}" y1="{yy - 4}" x2="{lx + 30}" '
                         f'y2="{yy - 4}" stroke="black" stroke-width="1.2"{_dash_attr(sty)}/>')
            parts.append(_text(lx + 36, yy, 12, lab, anchor=None))

    parts.append("</svg>")
    write_text(path, ["\n".join(parts) + "\n"])
