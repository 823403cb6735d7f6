"""Plane framework drawings with optional velocity arrows.

Output is deterministic for a fixed input: vertices and edges are walked in
graph order and every coordinate is formatted the same way, so a rendering
can be compared byte for byte in regression tests.
"""

import math

import numpy as np

from .errors import InputError
from .frameworks import Placement
from .graphs import SimpleGraph

__all__ = ["check_plane", "render_svg"]

_W, _H, _MARGIN = 480, 480, 48
# longest velocity arrow relative to the drawing's bounding box
_ARROW_SHARE = 0.15
_HEAD = 7.0


def _fmt(x: float) -> str:
    out = f"{x:.3f}".rstrip("0").rstrip(".")
    return "0" if out == "-0" else out


def check_plane(p: Placement) -> None:
    """Raise InputError unless p is a placement in the plane."""
    if p.dim != 2:
        raise InputError(f"render supports plane frameworks only, got d={p.dim}")


def render_svg(
    g: SimpleGraph,
    p: Placement,
    flex=None,
    labels: bool = True,
) -> str:
    """Draw a 2D framework; velocities (a vertex-to-vector map) become
    arrows scaled so the fastest vertex gets 15% of the bounding box."""
    check_plane(p)
    missing = [v for v in g.vertices if v not in p]
    if missing:
        raise InputError(f"placement misses vertices {missing}")
    pts = {v: np.asarray(p[v], dtype=float) for v in g.vertices}
    xs = [pt[0] for pt in pts.values()]
    ys = [pt[1] for pt in pts.values()]
    span_x = max(xs) - min(xs)
    span_y = max(ys) - min(ys)
    span = max(span_x, span_y, 1e-9)

    arrows = {}
    if flex:
        speeds = {v: float(np.linalg.norm(np.asarray(u))) for v, u in flex.items()}
        top = max(speeds.values())
        if top > 0.0:
            world_scale = _ARROW_SHARE * span / top
            arrows = {
                v: np.asarray(u, dtype=float) * world_scale
                for v, u in flex.items()
                if speeds[v] > 0.0
            }

    # fit world box (points plus arrow tips) into the canvas, y flipped
    for v, vec in arrows.items():
        tip = pts[v] + vec
        xs.append(tip[0])
        ys.append(tip[1])
    lo = np.array([min(xs), min(ys)])
    hi = np.array([max(xs), max(ys)])
    extent = np.maximum(hi - lo, 1e-9)
    scale = min((_W - 2 * _MARGIN) / extent[0], (_H - 2 * _MARGIN) / extent[1])
    centre = (lo + hi) / 2.0

    def to_canvas(pt: np.ndarray) -> tuple[float, float]:
        x = _W / 2.0 + (pt[0] - centre[0]) * scale
        y = _H / 2.0 - (pt[1] - centre[1]) * scale
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    for a, b in g.edges:
        xa, ya = to_canvas(pts[a])
        xb, yb = to_canvas(pts[b])
        parts.append(
            f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" y2="{_fmt(yb)}" '
            f'stroke="#444444" stroke-width="2"/>'
        )
    for v, vec in sorted(arrows.items()):
        xa, ya = to_canvas(pts[v])
        xb, yb = to_canvas(pts[v] + vec)
        angle = math.atan2(yb - ya, xb - xa)
        head = []
        for turn in (math.pi * 5 / 6, -math.pi * 5 / 6):
            hx = xb + _HEAD * math.cos(angle + turn)
            hy = yb + _HEAD * math.sin(angle + turn)
            head.append(f"{_fmt(hx)},{_fmt(hy)}")
        parts.append(
            f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" y2="{_fmt(yb)}" '
            f'stroke="#c0392b" stroke-width="2"/>'
        )
        parts.append(
            f'<polyline points="{head[0]} {_fmt(xb)},{_fmt(yb)} {head[1]}" '
            f'fill="none" stroke="#c0392b" stroke-width="2"/>'
        )
    for v in g.vertices:
        x, y = to_canvas(pts[v])
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="#2c5f8a"/>'
        )
        if labels:
            parts.append(
                f'<text x="{_fmt(x + 8)}" y="{_fmt(y - 8)}" '
                f'font-family="sans-serif" font-size="13">{v}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
