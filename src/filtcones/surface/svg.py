"""Static SVG emission for curve systems and planar diagrams."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from .curves import TorusCurve, wrap_point
from .shadow import PlanarDiagram

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f"]
_SIZE = 480  # pixels on each side of the picture


def _f(x) -> str:
    return f"{float(x):.6g}"


def curves_to_svg(curves: Dict[str, TorusCurve]) -> str:
    """Render named torus curves on the fundamental square."""
    scale = _SIZE / 2.2
    cx = cy = _SIZE / 2

    def pt(p):
        return f"{_f(cx + float(p[0]) * scale)},{_f(cy - float(p[1]) * scale)}"

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
             f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">']
    corner = pt((-1, 1))
    side = _f(2 * scale)
    parts.append(f'<rect x="{corner.split(",")[0]}" y="{corner.split(",")[1]}" '
                 f'width="{side}" height="{side}" fill="none" '
                 'stroke="#999" stroke-dasharray="4 3"/>')
    for i, (name, c) in enumerate(sorted(curves.items())):
        color = _PALETTE[i % len(_PALETTE)]
        for a, b in c.edges():
            # draw each edge wrapped into the square, splitting at wraps
            for (u, v) in _wrap_edge(a, b):
                parts.append(f'<polyline points="{pt(u)} {pt(v)}" '
                             f'fill="none" stroke="{color}" stroke-width="1.5"/>')
        anchor = wrap_point(c.vertices[0])
        parts.append(f'<text x="{_f(cx + float(anchor[0]) * scale + 4)}" '
                     f'y="{_f(cy - float(anchor[1]) * scale - 4)}" '
                     f'font-size="12" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _wrap_edge(a, b):
    """Cut a lift edge into pieces inside the fundamental square."""
    pieces = []
    steps = 8
    prev = a
    for k in range(1, steps + 1):
        t = Fraction(k, steps)
        cur = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        wa, wb = wrap_point(prev), wrap_point(cur)
        # skip pieces that cross the square boundary (drawn approximately)
        if abs(float(wb[0] - wa[0])) <= 1 and abs(float(wb[1] - wa[1])) <= 1:
            pieces.append((wa, wb))
        prev = cur
    return pieces


def diagram_to_svg(diagram: PlanarDiagram) -> str:
    x0, y0, x1, y1 = diagram.bounds()
    w = float(x1 - x0) or 1.0
    h = float(y1 - y0) or 1.0
    pad = 0.1 * max(w, h) + 0.2
    scale = _SIZE / (max(w, h) + 2 * pad)

    def pt(p):
        return (f"{_f((float(p[0]) - float(x0) + pad) * scale)},"
                f"{_f((float(y1) - float(p[1]) + pad) * scale)}")

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
             f'height="{_SIZE}">']
    for a, b in diagram.segments:
        parts.append(f'<polyline points="{pt(a)} {pt(b)}" fill="none" '
                     'stroke="#1f77b4" stroke-width="1.5"/>')
    for (p, d) in diagram.rays:
        tip = (p[0] + d * Fraction(1, 1), p[1])
        parts.append(f'<polyline points="{pt(p)} {pt(tip)}" fill="none" '
                     'stroke="#d62728" stroke-width="1.5" '
                     'stroke-dasharray="5 3"/>')
    parts.append("</svg>")
    return "\n".join(parts)
