"""Exact planar arrangements and shadow areas of cobordism footprints.

A diagram holds PL curves in the plane plus horizontal end rays.  The
shadow is the total area of the bounded complementary faces, computed
from the exact rational arrangement (rays are clipped at a bounding box
and faces touching the box are unbounded).

The arrangement is built in one integer frame: the diagram's points are
scaled once by their common scale q, and the padded box (one unit, q in
that frame) and the ray tips are integers there.  Its vertices are
scaled once more by the common scale m of the contact points, so the
faces are traced on integer vertices at scale qm, where twice an area
is an integer.  The walk follows a next-half-edge table (neighbours are
sorted by angle only where three or more edges meet) and adds up each
face's area and box contact as it goes.  The connected components,
which place a hole in the face around it, are found only when some
negative cycle does not touch the box.  Areas (and the faces that
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

def _atomic_segments(segs: List[Tuple[IPoint, IPoint]]):
    """Split integer segments at all mutual intersections and de-overlap
    collinear pieces; returns (edges, m), interior-disjoint edges between
    integer points: the vertices times m, the common scale of the
    segments' contact points."""
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
    lines = {k: [((p[0] * m, p[1] * m), (r[0] * m, r[1] * m))
                 for p, r in lsegs] for k, lsegs in lines.items()}
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
    return edges, m


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
    # the points times their common scale q, in a box padded by q (one
    # unit) on every side; a ray ends on the box, a pad from its anchor
    segments, rays = diagram.segments, diagram.rays
    pts = [p for seg in segments for p in seg] + [p for p, _ in rays]
    q = common_scale(pts)
    ipts = scaled(pts, q)
    xs = [x for x, _ in ipts] or [0, q]
    ys = [y for _, y in ipts] or [0, q]
    bx0, by0, bx1, by1 = min(xs) - q, min(ys) - q, max(xs) + q, max(ys) + q
    n = 2 * len(segments)
    segs = list(zip(ipts[:n:2], ipts[1:n:2]))
    segs += [(p, (bx1 if d > 0 else bx0, p[1]))
             for p, (_, d) in zip(ipts[n:], rays)]
    segs += [((bx0, by0), (bx1, by0)), ((bx1, by0), (bx1, by1)),
             ((bx1, by1), (bx0, by1)), ((bx0, by1), (bx0, by0))]
    # trace the faces on the arrangement's vertices, at scale q * m; twice
    # an area is then an integer s, and the area s / 2(qm)^2
    edges, m = _atomic_segments(segs)
    box_x, box_y = {bx0 * m, bx1 * m}, {by0 * m, by1 * m}
    nbrs: Dict[IPoint, List[IPoint]] = {}
    for (u, v) in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    # the face walk goes from the half-edge (a, b) on to (b, nxt[a, b]):
    # the neighbour of b just clockwise of a, neighbours being in
    # counterclockwise order
    nxt: Dict[Tuple[IPoint, IPoint], IPoint] = {}
    for v, ns in nbrs.items():
        if len(ns) > 2:
            ns.sort(key=functools.cmp_to_key(
                lambda a, b, v=v: _pseudo_angle_cmp(
                    (a[0] - v[0], a[1] - v[1]), (b[0] - v[0], b[1] - v[1]))))
        for i, a in enumerate(ns):
            nxt[a, v] = ns[i - 1]
    faces = []  # (twice the area times (qm)^2, touches the box, vertices)
    while nxt:
        (a, b), c = nxt.popitem()
        a0, b0, cycle, area, touches = a, b, [], 0, False
        while True:
            cycle.append(a)
            area += a[0] * b[1] - b[0] * a[1]
            if (a[0] in box_x or a[1] in box_y) and \
                    (b[0] in box_x or b[1] in box_y):
                touches = True
            if b == a0 and c == b0:
                break
            a, b, c = b, c, nxt.pop((b, c))
        faces.append((area, touches, cycle))
    bounded = [(area, cycle) for area, touches, cycle in faces
               if area > 0 and not touches]
    total = sum(area for area, _ in bounded)
    # negative cycles are hole boundaries of the face that contains them;
    # subtract those sitting inside a bounded face (their interior was
    # already counted by the enclosing positive cycle).  A hole can only
    # belong to a face bounded by a different connected component, so
    # the components are found when there is a hole to place.
    holes = [(area, cycle) for area, touches, cycle in faces
             if area < 0 and not touches]
    if holes:
        find = _components(edges)
        positives = [(area, touches, find(cycle[0]), cycle)
                     for area, touches, cycle in faces if area > 0]
    for area, cycle in holes:
        probe = min(cycle)
        cid = find(probe)
        best = None
        for parea, ptouches, pcid, pcycle in positives:
            if pcid != cid and (best is None or parea < best[0]) \
                    and _point_in_cycle(probe, pcycle):
                best = (parea, ptouches)
        if best is not None and not best[1]:
            total += area  # area is negative
    scale = q * m
    if return_faces:
        return Fraction(total, 2 * scale * scale), [
            (Fraction(area, 2 * scale * scale),
             [tuple((Fraction(x, scale), Fraction(y, scale)) for x, y in e)
              for e in zip(cycle, cycle[1:] + cycle[:1])])
            for area, cycle in bounded]
    return Fraction(total, 2 * scale * scale)


def _components(edges):
    """The connected components of the edges, as a function from a
    vertex to its component's root (union-find)."""
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
    return find


def _point_in_cycle(p: IPoint, cycle) -> bool:
    """Even-odd test against the closed vertex cycle (p must avoid its
    edges).

    An edge (a, b) that crosses the horizontal line through p counts if
    it crosses right of p, at some x > p_x; ``right`` below is
    (x - p_x)(b_y - a_y), so it counts if right (b_y - a_y) > 0.
    """
    inside = False
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
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
