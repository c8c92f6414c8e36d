"""Exact planar arrangements and shadow areas of cobordism footprints.

A diagram holds PL curves in the plane plus horizontal end rays.  The
shadow is the total area of the bounded complementary faces, computed
from the exact rational arrangement (rays are clipped at a bounding box
and faces touching the box are unbounded).

The arrangement is built on the segments times their common scale, in
integers, and its vertices are scaled once more by the common scale of
the contact points: the faces are traced on integer vertices at one
scale q, where twice an area is an integer.  Areas (and the faces that
``return_faces`` asks for) are returned as Fractions.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from ..novikov import content_lines, on_line, options, points, rat
from .curves import GeometryError, common_scale, scaled, _seg_common, \
    segment_pairs

Point = Tuple[Fraction, Fraction]
IPoint = Tuple[int, int]  # a point times the common scale of its call


class PlanarDiagram:
    """Segments plus horizontal end rays, exact rational coordinates."""

    def __init__(self, segments: Sequence = (), rays: Sequence = (),
                 strip: Optional[Tuple] = None):
        self.segments: List[Tuple[Point, Point]] = []
        for a, b in segments:
            a = (rat(a[0]), rat(a[1]))
            b = (rat(b[0]), rat(b[1]))
            if a == b:
                raise GeometryError("degenerate segment")
            self.segments.append((a, b))
        self.rays: List[Tuple[Point, int]] = []
        for p, d in rays:
            if d not in (-1, 1):
                raise GeometryError("ray direction must be +-1")
            self.rays.append(((rat(p[0]), rat(p[1])), d))
        self.strip = None
        if strip is not None:
            self.strip = (rat(strip[0]), rat(strip[1]))
            for p, d in self.rays:
                if self.strip[0] <= p[0] <= self.strip[1]:
                    continue
                raise GeometryError("ray anchors must sit inside the strip")

    def add_polyline(self, pts: Sequence):
        pts = [(rat(p[0]), rat(p[1])) for p in pts]
        for i in range(len(pts) - 1):
            if pts[i] != pts[i + 1]:
                self.segments.append((pts[i], pts[i + 1]))

    def add_rect(self, x0, y0, x1, y1):
        x0, y0, x1, y1 = rat(x0), rat(y0), rat(x1), rat(y1)
        self.add_polyline([(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)])

    def bounds(self):
        xs = [p[0] for s in self.segments for p in s] + \
             [p[0] for p, _ in self.rays]
        ys = [p[1] for s in self.segments for p in s] + \
             [p[1] for p, _ in self.rays]
        if not xs:
            return (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
        return (min(xs), min(ys), max(xs), max(ys))

    def union(self, other: "PlanarDiagram") -> "PlanarDiagram":
        return PlanarDiagram(self.segments + other.segments,
                             self.rays + other.rays)


# ---------------------------------------------------------------------------
# arrangement
# ---------------------------------------------------------------------------

def _atomic_segments(segments: List[Tuple[Point, Point]]):
    """Split segments at all mutual intersections and de-overlap
    collinear pieces; returns (edges, q), interior-disjoint edges between
    integer points: the vertices times q, the segments' common scale
    times the common scale m of their contact points in that frame."""
    q = common_scale([p for seg in segments for p in seg])
    segs = [tuple(scaled(seg, q)) for seg in segments]
    # group by supporting line: (a, b, c) with a*x + b*y = c, reduced by
    # gcd(a, b) and signed so that the first nonzero of a, b is positive
    lines: Dict[Tuple, List[Tuple[IPoint, IPoint]]] = {}
    keys = []  # the supporting line of each segment
    for (p, r) in segs:
        a = r[1] - p[1]
        b = p[0] - r[0]
        g = gcd(a, b)
        if a < 0 or a == 0 and b < 0:
            g = -g
        keys.append((a // g, b // g, (a * p[0] + b * p[1]) // g))
        lines.setdefault(keys[-1], []).append((p, r))
    hits = []  # (segment, segment, contact point)
    for i, j in segment_pairs(segs):
        if keys[i] == keys[j]:
            continue  # same line: overlaps are merged by the cuts below
        hit = _seg_common(*segs[i], *segs[j])
        if hit is not None and hit[0] == "point":
            hits.append((i, j, hit[1]))
    m = common_scale([p for _, _, p in hits])
    lines = {k: [tuple(scaled(seg, m)) for seg in lsegs]
             for k, lsegs in lines.items()}
    cuts = {k: {p for seg in lsegs for p in seg} for k, lsegs in lines.items()}
    for (i, j, _), p in zip(hits, scaled([p for _, _, p in hits], m)):
        cuts[keys[i]].add(p)
        cuts[keys[j]].add(p)
    edges = set()
    for k, lsegs in lines.items():
        pts = sorted(cuts[k])
        for (p, r) in lsegs:
            lo, hi = sorted((p, r))
            i, j = bisect_left(pts, lo), bisect_right(pts, hi)
            edges.update(zip(pts[i:j], pts[i + 1:j]))
    return edges, q * m


def _pseudo_angle_cmp(u: IPoint, v: IPoint) -> int:
    """Counterclockwise order of directions starting from east."""
    def half(w):
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1
    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cr = u[0] * v[1] - u[1] * v[0]
    if cr > 0:
        return -1
    if cr < 0:
        return 1
    return 0


def planar_shadow(diagram: PlanarDiagram, return_faces: bool = False):
    """Total area of the bounded complementary faces, exactly."""
    x0, y0, x1, y1 = diagram.bounds()
    pad = Fraction(1)
    bx0, by0, bx1, by1 = x0 - pad, y0 - pad, x1 + pad, y1 + pad
    segments = list(diagram.segments)
    for (p, d) in diagram.rays:
        tip = (bx1 if d > 0 else bx0, p[1])
        if tip != p:
            segments.append((p, tip))
    box_edges = [((bx0, by0), (bx1, by0)), ((bx1, by0), (bx1, by1)),
                 ((bx1, by1), (bx0, by1)), ((bx0, by1), (bx0, by0))]
    segments += box_edges
    # trace the faces on the arrangement's vertices times their common
    # scale q; twice an area is then an integer s, and the area s / 2q^2
    edges, q = _atomic_segments(segments)
    # half-edge structure
    out_edges: Dict[IPoint, List[IPoint]] = {}
    for (u, v) in edges:
        out_edges.setdefault(u, []).append(v)
        out_edges.setdefault(v, []).append(u)
    for v, nbrs in out_edges.items():
        nbrs.sort(key=functools.cmp_to_key(
            lambda a, b, v=v: _pseudo_angle_cmp(
                (a[0] - v[0], a[1] - v[1]), (b[0] - v[0], b[1] - v[1]))))
    # connected components of the arrangement (for hole assignment)
    parent: Dict[IPoint, IPoint] = {}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for (u, v) in edges:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        parent[find(u)] = find(v)

    visited = set()
    faces = []
    (ix0, iy0), (ix1, iy1) = scaled([(bx0, by0), (bx1, by1)], q)
    box_x = {ix0, ix1}
    box_y = {iy0, iy1}

    def on_boundary(p: IPoint) -> bool:
        return p[0] in box_x or p[1] in box_y

    for (u, v) in edges:
        for h in ((u, v), (v, u)):
            if h in visited:
                continue
            cycle = []
            cur = h
            while cur not in visited:
                visited.add(cur)
                cycle.append(cur)
                a, b = cur
                nbrs = out_edges[b]
                idx = nbrs.index(a)
                nxt = nbrs[(idx - 1) % len(nbrs)]
                cur = (b, nxt)
            area = 0  # twice the area, times q^2
            touches_box = False
            for (a, b) in cycle:
                area += a[0] * b[1] - b[0] * a[1]
                if on_boundary(a) and on_boundary(b):
                    touches_box = True
            faces.append((area, touches_box, cycle))
    positives = [(area, cycle, touches) for area, touches, cycle in faces
                 if area > 0]
    bounded = [(area, cycle) for area, touches, cycle in faces
               if area > 0 and not touches]
    total = sum(area for area, _ in bounded)
    # negative cycles are hole boundaries of the face that contains them;
    # subtract those sitting inside a bounded face (their interior was
    # already counted by the enclosing positive cycle).  A hole can only
    # belong to a face bounded by a different connected component.
    for area, touches, cycle in faces:
        if area >= 0 or touches:
            continue
        probe = min(p for e in cycle for p in e)
        cid = find(probe)
        best = None
        for parea, pcycle, ptouches in positives:
            if find(pcycle[0][0]) == cid:
                continue
            if _point_in_cycle(probe, pcycle):
                if best is None or parea < best[0]:
                    best = (parea, ptouches)
        if best is not None and not best[1]:
            total += area  # area is negative
    total = Fraction(total, 2 * q * q)
    if return_faces:
        return total, [(Fraction(area, 2 * q * q),
                        [tuple((Fraction(x, q), Fraction(y, q)) for x, y in e)
                         for e in cycle]) for area, cycle in bounded]
    return total


def _point_in_cycle(p: IPoint, cycle) -> bool:
    """Even-odd test against the half-edge cycle (p must avoid its edges).

    An edge (a, b) that crosses the horizontal line through p counts if
    it crosses right of p, at some x > p_x; ``right`` below is
    (x - p_x)(b_y - a_y), so it counts if right (b_y - a_y) > 0.
    """
    inside = False
    for (a, b) in cycle:
        if (a[1] > p[1]) != (b[1] > p[1]):
            right = ((a[0] - p[0]) * (b[1] - a[1])
                     + (p[1] - a[1]) * (b[0] - a[0]))
            if right * (b[1] - a[1]) > 0:
                inside = not inside
    return inside


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def parse_diagram(text: str) -> PlanarDiagram:
    """Line format: "poly (x,y) (x,y) ...", "end left|right y=<h> x=<x>",
    "rect x0 y0 x1 y1", "strip <a-> <a+>"; lines, options and vertex
    lists are read by the ``novikov`` line reader."""
    d = PlanarDiagram()
    strip = None
    for lineno, line in content_lines(text):
        word, _, rest = line.partition(" ")
        with on_line(lineno, GeometryError):
            if word == "poly":
                d.add_polyline(points(rest))
            elif word == "rect":
                x0, y0, x1, y1 = rest.split()
                d.add_rect(x0, y0, x1, y1)
            elif word == "end":
                side, *words = rest.split()
                kw = options(words, ("y", "x"))
                d.rays.append(((rat(kw.get("x", 0)), rat(kw["y"])),
                               {"left": -1, "right": 1}[side]))
            elif word == "strip":
                a, b = rest.split()
                strip = (rat(a), rat(b))
            else:
                raise GeometryError(f"unrecognized diagram line {line!r}")
    if strip is not None:
        return PlanarDiagram(d.segments, d.rays, strip)
    return d
