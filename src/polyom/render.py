"""Deterministic SVG figures: points plus their interpolating curves.

Curves are the exact degree-k interpolants through each run of k+1
consecutive points; samples are evaluated in rational arithmetic and
only converted to floats for formatting, so output bytes depend only on
the inputs and flags.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .combinat import _check_degree, lex_rank
from .errors import InputError
from .points import chirotope_of, newton_coeffs, newton_eval

_CURVE_COLORS = ("#1f6f8b", "#c44536", "#6a8d3f", "#8d5a97", "#b88a2e")


def render_svg(
    config,
    k,
    width=640,
    height=480,
    samples=256,
    annotate=False,
):
    """SVG text for a configuration and its consecutive-window curves.

    Each curve interpolates points (i, ..., i+k); samples are spread
    uniformly over the x-span.  With annotate, the signs of the
    consecutive (k+2)-tuples are listed in a corner block.  The degree
    is checked as everywhere (k >= 1), but curves need only k+1 points;
    the block appears when there are k+2.
    """
    n = len(config)
    _check_degree(k)
    if n < k + 1:
        raise InputError(f"rendering degree {k} needs at least {k + 1} points")
    if samples < 2:
        raise InputError("need at least 2 samples per curve")
    if width < 1 or height < 1:
        raise InputError(f"need a width and height of at least 1, got {width}x{height}")
    pts = config.points
    pxs = [p[0] for p in pts]
    pys = [p[1] for p in pts]
    xmin, xmax = min(pxs), max(pxs)
    ymin, ymax = min(pys), max(pys)
    xspan = xmax - xmin if xmax > xmin else Fraction(1)
    yspan = ymax - ymin if ymax > ymin else Fraction(1)
    pad = Fraction(8, 100)
    xmin -= xspan * pad
    xmax += xspan * pad
    ymin -= yspan * pad
    ymax += yspan * pad
    xspan = xmax - xmin
    yspan = ymax - ymin

    def to_screen(x, y):
        try:
            sx = float((x - xmin) / xspan) * width
            sy = height - float((y - ymin) / yspan) * height
        except OverflowError:
            sx = sy = math.inf
        if not (math.isfinite(sx) and math.isfinite(sy)):
            raise InputError("coordinates too far apart to render: a curve leaves the float range")
        return sx, sy

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')

    sample_xs = [xmin + xspan * Fraction(i, samples - 1) for i in range(samples)]
    for ci in range(n - k):
        base = range(ci, ci + k + 1)
        bxs = [pts[i][0] for i in base]
        bys = [pts[i][1] for i in base]
        coeffs = newton_coeffs(bxs, bys)
        d = []
        for j, x in enumerate(sample_xs):
            y = newton_eval(coeffs, bxs, x)
            sx, sy = to_screen(x, y)
            d.append(f"{'M' if j == 0 else 'L'}{sx:.2f},{sy:.2f}")
        color = _CURVE_COLORS[ci % len(_CURVE_COLORS)]
        out.append(
            f'<path d="{" ".join(d)}" fill="none" stroke="{color}" '
            f'stroke-width="1.2" opacity="0.8"/>'
        )

    for i, (x, y) in enumerate(pts, start=1):
        sx, sy = to_screen(x, y)
        out.append(f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="3.5" fill="black"/>')
        out.append(
            f'<text x="{sx + 6:.2f}" y="{sy - 6:.2f}" font-size="12" '
            f'font-family="monospace">{i}</text>'
        )

    if annotate and n >= k + 2:
        record = chirotope_of(config, k).sign_string()
        for row in range(n - k - 1):
            t = range(row + 1, row + k + 3)
            out.append(
                f'<text x="8" y="{16 + 14 * row}" font-size="11" font-family="monospace">'
                f'chi({",".join(map(str, t))})={record[lex_rank(t, n)]}</text>'
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"
