"""Deterministic SVG pictures of two-dimensional scenes.

Output is a pure function of the inputs: fixed palette, fixed float
formatting, no timestamps, so rendering the same scene twice gives
byte-identical files.
"""
from __future__ import annotations

import numpy as np

from .bodies import Ball, HPolytope, IntersectionBody, VPolytope
from .geometry import as_points, planar_hull

PALETTE = [
    ("#4e79a7", "#2f4b6e"),
    ("#f28e2b", "#a05a0e"),
    ("#59a14f", "#356b2f"),
    ("#e15759", "#8f2e30"),
    ("#b07aa1", "#6d4364"),
    ("#76b7b2", "#417a76"),
]
HOLLOW_FILL = "#8c8c8c"
SIMPLEX_STROKE = "#222222"
SVG_SIZE = 640.0  # pixels along the picture's longer side
SVG_PAD = 0.05  # margin, as a share of the scene's larger extent


def _fmt(x):
    return format(float(x), ".3f")


def _hull_ring(V):
    """Hull ring of a 2-D point set, rounded to 12 decimals: the vertices of
    :func:`~hollowkit.geometry.planar_hull`, counterclockwise from the
    vertex of least angle around the mean of the points.  A point on a hull
    edge is not a vertex, and a collinear set gives its two end points.

    The ring is the monotone chain over the lexicographic order, since an
    angle sort around the mean cannot order points that lie on one ray
    from it exactly, and a ring in that order then keeps reflex points.
    """
    pts = np.unique(np.round(as_points(V), 12), axis=0)
    if pts.shape[0] < 3:
        return pts
    ring = pts[planar_hull(pts)]
    off = ring - pts.mean(axis=0)
    return np.roll(ring, -np.argmin(np.arctan2(off[:, 1], off[:, 0])), axis=0)


class _Frame:
    """World-to-pixel transform with the vertical axis flipped."""

    def __init__(self, lo, hi, size):
        span = np.maximum(hi - lo, 1e-9)
        self.scale = size / float(span.max())
        self.lo = lo
        self.hi = hi
        self.width = float(span[0]) * self.scale
        self.height = float(span[1]) * self.scale

    def pt(self, p):
        x = (p[0] - self.lo[0]) * self.scale
        y = (self.hi[1] - p[1]) * self.scale
        return x, y

    def xy(self, p):
        x, y = self.pt(p)
        return f'{_fmt(x)},{_fmt(y)}'


def _polygon(frame, ring, fill, stroke, opacity="0.30", extra=""):
    if ring.shape[0] == 0:
        return []
    if ring.shape[0] == 1:
        x, y = frame.pt(ring[0])
        return [f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.0" '
                f'fill="{stroke}"/>']
    pts = " ".join(frame.xy(p) for p in ring)
    if ring.shape[0] == 2:
        a, b = frame.pt(ring[0]), frame.pt(ring[1])
        return [f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
                f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" stroke="{stroke}" '
                f'stroke-width="2.0"/>']
    return [f'<polygon points="{pts}" fill="{fill}" fill-opacity="{opacity}" '
            f'stroke="{stroke}" stroke-width="1.5"{extra}/>']


def _body_elements(frame, body, fill, stroke, opacity="0.30"):
    if isinstance(body, Ball):
        cx, cy = frame.pt(body.center)
        r = body.radius * frame.scale
        return [f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
                f'fill="{fill}" fill-opacity="{opacity}" stroke="{stroke}" '
                f'stroke-width="1.5"/>']
    if isinstance(body, (HPolytope, VPolytope)):
        return _polygon(frame, _hull_ring(body.vertices), fill, stroke,
                        opacity)
    if isinstance(body, IntersectionBody):
        parts = []
        for part in body.bodies:
            parts.extend(_body_elements(frame, part, fill, stroke, "0.15"))
        return parts
    lo, hi = body.bounding_box()
    ring = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]],
                     [lo[0], hi[1]]])
    return _polygon(frame, ring, fill, stroke, opacity,
                    extra=' stroke-dasharray="4 3"')


def _hollow_rects(frame, certificate):
    """Component cells merged into vertical runs of grid-aligned rects."""
    grid = certificate.grid
    h = grid.resolution
    cells = certificate.cells
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    cells = cells[order]
    rects = []
    run = None
    for ix, iy in cells:
        if run is not None and ix == run[0] and iy == run[2] + 1:
            run[2] = iy
        else:
            if run is not None:
                rects.append(tuple(run))
            run = [ix, iy, iy]
    if run is not None:
        rects.append(tuple(run))
    out = []
    for ix, j0, j1 in rects:
        x0 = grid.lo[0] + ix * h
        y1 = grid.lo[1] + (j1 + 1) * h
        px, py = frame.pt((x0, y1))
        w = h * frame.scale
        ht = (j1 - j0 + 1) * h * frame.scale
        out.append(f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(w)}" '
                   f'height="{_fmt(ht)}" fill="{HOLLOW_FILL}" '
                   f'fill-opacity="0.55"/>')
    return out


def render_svg(bodies, witnesses=None, hollow=None, certificate=None):
    """Render a two-dimensional family as an SVG string.

    Layers, back to front: body fills, certified hollow cells, the hollow
    simplex outline, witness points with labels.
    """
    bodies = list(bodies)
    if any(b.dim != 2 for b in bodies):
        raise ValueError("rendering supports two-dimensional scenes only")
    los, his = map(list, zip(*(b.bounding_box() for b in bodies)))
    if witnesses is not None:
        W = as_points(witnesses, 2)
        los.append(W.min(axis=0))
        his.append(W.max(axis=0))
    lo = np.min(los, axis=0)
    hi = np.max(his, axis=0)
    margin = SVG_PAD * max(float((hi - lo).max()), 1e-9)
    frame = _Frame(lo - margin, hi + margin, SVG_SIZE)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(frame.width)}" height="{_fmt(frame.height)}" '
        f'viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}">',
        f'<rect x="0" y="0" width="{_fmt(frame.width)}" '
        f'height="{_fmt(frame.height)}" fill="#ffffff"/>',
    ]
    for i, body in enumerate(bodies):
        fill, stroke = PALETTE[i % len(PALETTE)]
        parts.extend(_body_elements(frame, body, fill, stroke))
    if certificate is not None:
        parts.extend(_hollow_rects(frame, certificate))
    if hollow is not None:
        ring = as_points(hollow.vertices, 2)
        pts = " ".join(frame.xy(p) for p in ring)
        parts.append(f'<polygon points="{pts}" fill="none" '
                     f'stroke="{SIMPLEX_STROKE}" stroke-width="1.2" '
                     f'stroke-dasharray="5 4"/>')
        for j, p in enumerate(ring):
            x, y = frame.pt(p)
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.0" '
                         f'fill="{SIMPLEX_STROKE}"/>')
            parts.append(f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" '
                         f'font-size="12" font-family="monospace" '
                         f'fill="{SIMPLEX_STROKE}">p{j}</text>')
    if witnesses is not None:
        for j, a in enumerate(as_points(witnesses, 2)):
            x, y = frame.pt(a)
            fill, stroke = PALETTE[j % len(PALETTE)]
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.5" '
                         f'fill="{stroke}" stroke="#ffffff" '
                         f'stroke-width="1.0"/>')
            parts.append(f'<text x="{_fmt(x + 6)}" y="{_fmt(y + 14)}" '
                         f'font-size="12" font-family="monospace" '
                         f'fill="{stroke}">a{j}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
