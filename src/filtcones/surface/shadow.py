"""Exact planar arrangements and shadow areas of cobordism footprints.

A diagram holds PL curves in the plane plus horizontal end rays.  The
shadow is the total area of the bounded complementary faces, computed
from the exact rational arrangement (rays are clipped at a bounding box
and faces touching the box are unbounded).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..novikov import on_line, rat
from .curves import GeometryError, _seg_common, segment_pairs

Point = Tuple[Fraction, Fraction]


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

    def translated(self, dx, dy) -> "PlanarDiagram":
        dx, dy = rat(dx), rat(dy)
        return PlanarDiagram(
            [((a[0] + dx, a[1] + dy), (b[0] + dx, b[1] + dy))
             for a, b in self.segments],
            [((p[0] + dx, p[1] + dy), d) for p, d in self.rays])

    def union(self, other: "PlanarDiagram") -> "PlanarDiagram":
        return PlanarDiagram(self.segments + other.segments,
                             self.rays + other.rays)


def shear_diagram(d: PlanarDiagram, lam) -> PlanarDiagram:
    """x -> x + lam*y: area preserving, keeps ends horizontal."""
    lam = rat(lam)
    return PlanarDiagram(
        [((a[0] + lam * a[1], a[1]), (b[0] + lam * b[1], b[1]))
         for a, b in d.segments],
        [((p[0] + lam * p[1], p[1]), dd) for p, dd in d.rays])


# ---------------------------------------------------------------------------
# arrangement
# ---------------------------------------------------------------------------

def _atomic_segments(segments: List[Tuple[Point, Point]]):
    """Split segments at all mutual intersections and de-overlap
    collinear pieces; returns a set of interior-disjoint edges."""
    # group by supporting line: (a, b, c) with a*x + b*y = c normalized
    lines: Dict[Tuple, List[Tuple[Point, Point]]] = {}
    cuts: Dict[Tuple, set] = {}
    line_cuts = []  # the cut set of each segment's supporting line
    for (p, q) in segments:
        a = q[1] - p[1]
        b = p[0] - q[0]
        c = a * p[0] + b * p[1]
        if a != 0:
            scale = a
        else:
            scale = b
        key = (a / scale, b / scale, c / scale)
        lines.setdefault(key, []).append((p, q))
        cut = cuts.setdefault(key, set())
        cut.update((p, q))
        line_cuts.append(cut)
    for i, j in segment_pairs(segments):
        cut1, cut2 = line_cuts[i], line_cuts[j]
        if cut1 is cut2:
            continue  # same line: overlaps are merged by the cuts below
        hit = _seg_common(*segments[i], *segments[j])
        if hit is not None and hit[0] == "point":
            cut1.add(hit[1])
            cut2.add(hit[1])
    edges = set()
    for k, segs in lines.items():
        pts = sorted(cuts[k])
        for (p, q) in segs:
            lo, hi = sorted((p, q))
            inside = [x for x in pts if lo <= x <= hi]
            for u, v in zip(inside, inside[1:]):
                if u != v:
                    edges.add((u, v))
    return edges


def _pseudo_angle_cmp(u: Point, v: Point) -> int:
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
    edges = _atomic_segments(segments)
    # half-edge structure
    out_edges: Dict[Point, List[Point]] = {}
    for (u, v) in edges:
        out_edges.setdefault(u, []).append(v)
        out_edges.setdefault(v, []).append(u)
    for v, nbrs in out_edges.items():
        nbrs.sort(key=functools.cmp_to_key(
            lambda a, b, v=v: _pseudo_angle_cmp(
                (a[0] - v[0], a[1] - v[1]), (b[0] - v[0], b[1] - v[1]))))
    # connected components of the arrangement (for hole assignment)
    parent: Dict[Point, Point] = {}

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
    box_x = {bx0, bx1}
    box_y = {by0, by1}

    def on_boundary(p: Point) -> bool:
        return p[0] in box_x or p[1] in box_y

    for (u, v) in list(edges):
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
            area = Fraction(0)
            touches_box = False
            for (a, b) in cycle:
                area += a[0] * b[1] - b[0] * a[1]
                if on_boundary(a) and on_boundary(b):
                    touches_box = True
            faces.append((area / 2, touches_box, cycle))
    total = Fraction(0)
    kept = []
    positives = [(area, cycle, touches) for area, touches, cycle in faces
                 if area > 0]
    for area, touches, cycle in faces:
        if area > 0 and not touches:
            total += area
            kept.append((area, cycle))
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
    if return_faces:
        return total, kept
    return total


def _point_in_cycle(p: Point, cycle) -> bool:
    """Even-odd test against the half-edge cycle (p must avoid its edges)."""
    inside = False
    for (a, b) in cycle:
        if (a[1] > p[1]) != (b[1] > p[1]):
            t = (p[1] - a[1]) / (b[1] - a[1])
            x = a[0] + t * (b[0] - a[0])
            if x > p[0]:
                inside = not inside
    return inside


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def parse_diagram(text: str) -> PlanarDiagram:
    """Line format: "poly (x,y) (x,y) ...", "end left|right y=<h> x=<x>",
    "rect x0 y0 x1 y1", "strip <a-> <a+>"."""
    d = PlanarDiagram()
    strip = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        with on_line(lineno, GeometryError):
            if line.startswith("poly"):
                pts = []
                for chunk in line[4:].replace(")", ") ").split():
                    chunk = chunk.strip().strip(",")
                    if not chunk:
                        continue
                    x, y = chunk.strip("()").split(",")
                    pts.append((rat(x), rat(y)))
                d.add_polyline(pts)
            elif line.startswith("rect"):
                vals = line.split()[1:]
                d.add_rect(*vals)
            elif line.startswith("end"):
                parts = line.split()
                side = parts[1]
                kv = {p.split("=")[0]: p.split("=")[1] for p in parts[2:]}
                y = rat(kv["y"])
                x = rat(kv.get("x", 0))
                d.rays.append(((x, y), 1 if side == "right" else -1))
            elif line.startswith("strip"):
                _, a, b = line.split()
                strip = (rat(a), rat(b))
            else:
                raise GeometryError(f"unrecognized diagram line {line!r}")
    if strip is not None:
        return PlanarDiagram(d.segments, d.rays, strip)
    return d
