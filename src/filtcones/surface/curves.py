"""PL curves on the flat torus [-1,1]^2 with exact rational vertices.

A curve is stored as its lift: a vertex path in the plane whose final
point differs from the first by (2p, 2q); (p, q) is the homology class.
Edges are straight segments in the universal cover.

The exact predicates run on integers.  Each curve carries one integer
lift, built at construction: its scale q (``common_scale``, the lcm of
its vertex denominators) and its closed lift path times q (``scaled``),
so its deck translates are multiples of 2q and the contact predicate
``_seg_common`` compares integer numerators without dividing.  A
predicate on two curves brings both lifts to the lcm of their scales
with one multiply per coordinate.  Points, crossing records and areas
are returned as Fractions in the torus coordinates; a crossing record
also keeps its ends as the integers the Floer polygon walk reads.

Two curves (or a curve and itself) meet through one scan, ``_contacts``:
the embedding check, ``crossings``, ``count_transverse_crossings``,
``surgery`` and the refusal of ``transverse_contacts`` all read it, and
records are built only for the crossings a caller keeps.

Pairs of segments are tested only as ``segment_pairs`` yields them: the
pairs whose closed axis-aligned bounding boxes meet, found by one sort
of the boxes by left edge and a bisect of that order per box, with no
list of open boxes kept.  It never decides contact itself;
``_seg_common`` is the one exact contact predicate.  The pairs it skips
share no point, as their closed boxes are disjoint.  The deck
translates of one path that can meet another are cut the same way
(``_translated_edges``): a translated edge whose closed box misses the
closed box of the other path misses every segment of that path, whose
boxes lie inside it, so it is dropped before the sweep.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from ..novikov import points, rat

Point = Tuple[Fraction, Fraction]
SIDE = Fraction(2)  # fundamental square side length


class GeometryError(ValueError):
    pass


def _pt(p) -> Point:
    return (rat(p[0]), rat(p[1]))


def _wrap(c) -> Fraction:
    n, d = c.numerator, c.denominator
    return Fraction((n + d) % (2 * d) - d, d)


def wrap_point(p: Point) -> Point:
    """Representative in the fundamental square [-1, 1) x [-1, 1).  A
    coordinate n/d maps to ((n + d) mod 2d - d)/d, congruent to n modulo
    d and so in lowest terms."""
    return (_wrap(p[0]), _wrap(p[1]))


def common_scale(points) -> int:
    """The lcm of the coordinate denominators of ``points``: the least
    q > 0 that makes every coordinate times q an integer."""
    return lcm(*{c.denominator for p in points for c in p})


def scaled(points, q: int) -> List[Tuple[int, int]]:
    """The points times ``q``, as integer pairs (q from ``common_scale``)."""
    return [(x.numerator * (q // x.denominator),
             y.numerator * (q // y.denominator)) for x, y in points]


def _seg_common(p1, p2, q1, q2, scale: int = 1):
    """Exact contact between two closed segments with integer endpoints.

    Returns None, ("point", p, kind) with kind "proper" (both interiors)
    or "touch", or ("overlap",) for a collinear sub-segment.  The hit
    parameters t/denom on p1p2 and u/denom on q1q2 are compared as
    integer numerators against denom > 0.  A touch point is the endpoint
    itself; only a proper hit point is divided out, by denom times
    ``scale``, as a pair of Fractions: in the same frame, or in the
    unscaled one for endpoints at scale ``scale``.  A proper hit carries
    (t, u, denom) as a fourth entry.
    """
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    sx, sy = q2[0] - q1[0], q2[1] - q1[1]
    qx, qy = q1[0] - p1[0], q1[1] - p1[1]
    denom = rx * sy - ry * sx
    u = qx * ry - qy * rx
    if denom == 0:
        if u != 0:
            return None  # parallel, disjoint lines
        # positions of q1 and q2 along p1p2, times |r|^2
        rr = rx * rx + ry * ry
        t0 = qx * rx + qy * ry
        t1 = t0 + sx * rx + sy * ry
        lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
        if hi < 0 or lo > rr:
            return None
        if hi == 0:
            return ("point", p1, "touch")
        if lo == rr:
            return ("point", p2, "touch")
        return ("overlap",)
    t = qx * sy - qy * sx
    if denom < 0:
        denom, t, u = -denom, -t, -u
    if t < 0 or t > denom or u < 0 or u > denom:
        return None
    if t == 0:
        return ("point", p1, "touch")
    if t == denom:
        return ("point", p2, "touch")
    if u == 0:
        return ("point", q1, "touch")
    if u == denom:
        return ("point", q2, "touch")
    return ("point", (Fraction(p1[0] * denom + t * rx, denom * scale),
                      Fraction(p1[1] * denom + t * ry, denom * scale)),
            "proper", (t, u, denom))


def _boxes(segs):
    """The closed boxes (x0, x1, y0, y1, index) of ``segs``, sorted by
    left edge, and their left edges in that order."""
    boxes = sorted([((ax, bx) if ax <= bx else (bx, ax))
                    + ((ay, by) if ay <= by else (by, ay)) + (i,)
                    for i, ((ax, ay), (bx, by)) in enumerate(segs)],
                   key=itemgetter(0))
    return boxes, [e[0] for e in boxes]


def segment_pairs(segs, others=None) -> List[Tuple[int, int]]:
    """Index pairs of segments whose closed bounding boxes meet.

    With one list: pairs (i, j), i < j, within ``segs``.  With ``others``:
    cross pairs (i, j) of ``segs[i]`` and ``others[j]``.  A sort-and-bisect
    sweep over the boxes sorted by left edge: two boxes meet along x when
    the left edge of one lies between the edges of the other.  Within one
    list, a box takes the boxes after it whose left edge is <= its right
    edge.  Across two lists, a ``segs`` box takes the ``others`` boxes
    whose left edge lies in [x0, x1], and an ``others`` box the ``segs``
    boxes whose left edge lies in (x0, x1], so each pair comes out once;
    then the y ranges are compared.  All comparisons are exact and
    closed, so zero-width boxes of axis-parallel segments pair with
    anything touching them.
    """
    boxes, lefts = _boxes(segs)
    pairs = []
    if others is None:
        for n, (_, x1, y0, y1, i) in enumerate(boxes):
            pairs.extend((i, j) if i < j else (j, i)
                         for _, _, lo, hi, j
                         in boxes[n + 1:bisect_right(lefts, x1)]
                         if lo <= y1 and y0 <= hi)
        return pairs
    oboxes, olefts = _boxes(others)
    for x0, x1, y0, y1, i in boxes:
        pairs.extend((i, j) for _, _, lo, hi, j
                     in oboxes[bisect_left(olefts, x0):
                               bisect_right(olefts, x1)]
                     if lo <= y1 and y0 <= hi)
    for x0, x1, y0, y1, j in oboxes:
        pairs.extend((i, j) for _, _, lo, hi, i
                     in boxes[bisect_right(lefts, x0):bisect_right(lefts, x1)]
                     if lo <= y1 and y0 <= hi)
    return pairs


class TorusCurve:
    """Closed embedded PL curve, stored by its lift path and its integer
    lift: ``scale``, the lcm q of the vertex denominators, and
    ``int_lift``, the closed lift path times q.  Only ``name`` may change
    after construction, so the lift and the strands are kept; the strands
    also give the strand lines that ``widths`` reads, at a scale that
    ``scale`` divides."""

    def __init__(self, vertices: Sequence, name: str = "",
                 check_embedded: bool = True):
        self.name = name
        vs = [_pt(v) for v in vertices]
        if len(vs) < 2:
            raise GeometryError("a curve needs at least two vertices")
        self.scale = q = common_scale(vs)
        self.int_lift = pts = scaled(vs, q)
        (kx, rx), (ky, ry) = (divmod(pts[-1][c] - pts[0][c], 2 * q)
                              for c in (0, 1))
        if rx or ry:
            raise GeometryError("lift path must close up to a deck translate")
        self.vertices = vs[:-1]
        self.closure = vs[-1]
        self._strands: Optional[Tuple[tuple, ...]] = None
        self.hclass = (kx, ky)
        if self.hclass == (0, 0):
            raise GeometryError("curve must be homologically essential")
        if any(a == b for a, b in zip(pts, pts[1:])):
            raise GeometryError("degenerate edge")
        if check_embedded and not self.is_embedded():
            raise GeometryError(f"curve {name or vertices} is not embedded")

    def edges(self) -> List[Tuple[Point, Point]]:
        pts = self.vertices + [self.closure]
        return [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]

    def is_embedded(self) -> bool:
        """No self-intersections on the torus (translate-aware): the only
        contact allowed is a touch of consecutive edges (wrap-aware), which
        lies at their shared vertex, as segments that share an endpoint
        and do not overlap meet nowhere else."""
        last, cls = len(self.vertices) - 1, self.hclass
        return all("touch" in hit and (
            j == i + 1 and t == (0, 0) or (i, j) == (last, 0) and t == cls
            or (i, j) == (0, last) and t == (-cls[0], -cls[1]))
            for i, (t, j), hit, _, _ in _contacts(self, self))

    def axis_parallel(self) -> bool:
        return all(a[0] == b[0] or a[1] == b[1] for a, b in self.edges())

    def strands(self) -> List[tuple]:
        """Maximal collinear runs, as (axis, coordinate, length) triples.

        axis "v": vertical strand at x = coordinate (wrapped); axis "h":
        horizontal strand at y = coordinate.  Consecutive edges of the
        same axis share a vertex, hence a line, so the runs are the
        cyclic maximal same-axis blocks.  Only for axis-parallel curves.
        The runs are found on the first call and kept as a tuple; each
        call returns a fresh list of them.
        """
        if self._strands is None:
            self._strands = tuple(self._strand_runs())
        return list(self._strands)

    def _strand_runs(self) -> List[tuple]:
        if not self.axis_parallel():
            raise GeometryError("strands need an axis-parallel curve")
        edges = self.edges()
        n = len(edges)
        axes = ["v" if a[0] == b[0] else "h" for a, b in edges]
        # one cyclic walk from an axis change (edge 0 if there is none); a
        # run starts where the axis changes, at coordinate c of its first
        # vertex, and adds the length along the other
        s = next((i for i in range(n) if axes[i] != axes[i - 1]), 0)
        runs = []
        for i in range(s, s + n):
            (a, b), ax = edges[i % n], axes[i % n]
            c = 0 if ax == "v" else 1
            if i > s and ax == axes[i % n - 1]:
                runs[-1][2] += abs(b[1 - c] - a[1 - c])
            else:
                runs.append([ax, _wrap(a[c]), abs(b[1 - c] - a[1 - c])])
        return [(ax, c, min(total, SIDE)) for ax, c, total in runs]

    def __repr__(self):
        return f"TorusCurve({self.name or self.hclass})"


def _translated_edges(pts, near, q: int):
    """The deck translates of the edges of the closed lift path ``pts``
    (integer points at scale ``q``) whose closed boxes meet the closed box
    of the integer points ``near``; the others meet no segment between
    those points.  Returns the tags ((kx, ky), edge index) of the edges
    moved by (2q kx, 2q ky), sorted (translate-major, kx, ky and the
    index ascending), and the moved edges in that order."""
    side = 2 * q
    x0, x1 = min(p[0] for p in near), max(p[0] for p in near)
    y0, y1 = min(p[1] for p in near), max(p[1] for p in near)
    tags = sorted(
        ((kx, ky), j) for j, (a, b) in enumerate(zip(pts, pts[1:]))
        for kx in range((x0 - max(a[0], b[0]) - 1) // side + 1,
                        (x1 - min(a[0], b[0])) // side + 1)
        for ky in range((y0 - max(a[1], b[1]) - 1) // side + 1,
                        (y1 - min(a[1], b[1])) // side + 1))
    return tags, [((pts[j][0] + side * kx, pts[j][1] + side * ky),
                   (pts[j + 1][0] + side * kx, pts[j + 1][1] + side * ky))
                  for (kx, ky), j in tags]


class Crossing:
    """One transverse crossing of two curves c1 and c2.

    ``point`` is the wrapped crossing point.  ``ends[s]`` is (edge index,
    lift) on curve s: the edge of that curve through the point, and the
    point's lift strictly inside that edge of the curve's own lift path.
    ``sign`` is the sign of det(t1, t2) of the two edge tangents.

    ``crossings`` also records the ends as the integers that the polygon
    walk of ``floer`` reads: ``at[s]`` is (n, m), the lift of end s lying
    n/``den`` of the way along its edge and equal to ``point`` plus 2 m.
    They are left out of comparisons, so a record equals the one built
    from its first three fields.
    """
    __slots__ = ("point", "ends", "sign", "den", "at")

    def __init__(self, point: Point,
                 ends: Tuple[Tuple[int, Point], Tuple[int, Point]],
                 sign: int, den: int = 1,
                 at: Tuple[Tuple[int, Tuple[int, int]], ...] = ()):
        self.point, self.ends, self.sign = point, ends, sign
        self.den, self.at = den, at

    def _key(self):
        return self.point, self.ends, self.sign

    def __eq__(self, other):
        return isinstance(other, Crossing) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Crossing(%r, %r, %r)" % self._key()


def _contacts(c1: TorusCurve, c2: TorusCurve):
    """Every contact of the two curves on the torus, as (i, (translate,
    j), hit, edge, other): ``edge``, edge i of c1's integer lift, meets
    ``other``, edge j of c2's moved by 2q times the translate, and
    ``hit`` is their ``_seg_common`` contact, all at the lcm q of the
    curves' scales.  A curve met with itself skips, at translate zero,
    each edge against itself and the pairs met the other way round.

    The scan runs in (translate, i, j) order, which fixes the first
    degenerate contact found and hence the error raised on it."""
    q = lcm(c1.scale, c2.scale)
    pts1, pts2 = (c.int_lift if m == 1 else [(x * m, y * m)
                                             for x, y in c.int_lift]
                  for c, m in ((c1, q // c1.scale), (c2, q // c2.scale)))
    edges1 = list(zip(pts1, pts1[1:]))
    tags, shifted = _translated_edges(pts2, pts1, q)
    same = c1 is c2
    found = []
    for i, k in segment_pairs(edges1, shifted):
        t, j = tags[k]
        if same and j <= i and t == (0, 0):
            continue
        (a, b), (c, d) = edges1[i], shifted[k]
        hit = _seg_common(a, b, c, d, q)
        if hit is not None:
            found.append((t, i, k, hit))
    found.sort()  # k runs through the translated edges in (translate, j) order
    for t, i, k, hit in found:
        yield i, tags[k], hit, edges1[i], shifted[k]


def transverse_contacts(c1: TorusCurve, c2: TorusCurve) -> list:
    """The contacts of ``_contacts``, all proper; raises GeometryError at
    the first endpoint touch or collinear overlap."""
    out = list(_contacts(c1, c2))
    for _, _, hit, _, _ in out:
        if "proper" not in hit:
            raise GeometryError("segments overlap along a sub-segment"
                                if hit[0] == "overlap"
                                else "segments meet at a vertex")
    return out


def _crossing(i, tag, hit, edge, other) -> Crossing:
    """The record of a proper contact of ``_contacts``."""
    (a, b), (c, d) = edge, other
    p, (t, u, den) = hit[1], hit[3]
    (kx, ky), j = tag
    # p = wrap_point(p) + 2 m, and the lift on c2 is p - 2 (kx, ky)
    mx, my = ((v.numerator + v.denominator) // (2 * v.denominator) for v in p)
    g = gcd(t, u, den)
    # nonzero for a proper crossing: it is _seg_common's denom
    det = (b[0] - a[0]) * (d[1] - c[1]) - (b[1] - a[1]) * (d[0] - c[0])
    return Crossing(wrap_point(p),
                    ((i, p), (j, (p[0] - 2 * kx, p[1] - 2 * ky))),
                    1 if det > 0 else -1, den // g,
                    ((t // g, (mx, my)), (u // g, (mx - kx, my - ky))))


def crossings(c1: TorusCurve, c2: TorusCurve) -> List[Crossing]:
    """The crossing records of the two curves, sorted by point.

    Raises GeometryError on shared segments or vertex touches.
    """
    found = {r.point: r for r in (_crossing(*c)
                                  for c in transverse_contacts(c1, c2))}
    return [found[p] for p in sorted(found)]


def intersections(c1: TorusCurve, c2: TorusCurve) -> List[Point]:
    """Transverse intersection points on the torus, sorted; raises as
    ``crossings`` does."""
    return [r.point for r in crossings(c1, c2)]


def count_transverse_crossings(c1: TorusCurve, c2: TorusCurve) -> int:
    """Number of proper transverse crossings, ignoring overlaps/touches.

    Used for surgered curves that ride along their surgery partners.
    """
    return len({wrap_point(hit[1]) for _, _, hit, _, _ in _contacts(c1, c2)
                if "proper" in hit})


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------

def path_from(curve: TorusCurve, i: int, lift: Point) -> List[Point]:
    """Closed lift path of the curve from ``lift``, a point strictly inside
    its edge i, to ``lift`` plus the curve's class."""
    pts = curve.vertices + [curve.closure]
    cls = (SIDE * curve.hclass[0], SIDE * curve.hclass[1])
    return [lift, *pts[i + 1:],  # runs through the closure = pts[0] + cls
            *((v[0] + cls[0], v[1] + cls[1]) for v in pts[1:i + 1]),
            (lift[0] + cls[0], lift[1] + cls[1])]


def _direction(a: Point, b: Point) -> Point:
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx != 0:
        dx = Fraction(1 if dx > 0 else -1)
    if dy != 0:
        dy = Fraction(1 if dy > 0 else -1)
    return (dx, dy)


def surgery(l_curve: TorusCurve, s_curve: TorusCurve, at, handle_area,
            width):
    """Resolve the transverse crossing ``at`` with a one-sided
    rectangular corner cut ``width`` wide enclosing exactly
    ``handle_area``.

    The resolution follows the orientations: the curve enters along L,
    leaves along S through the crossing point itself, and the returning
    S-branch cuts the corner toward the outgoing L-branch.  Returns
    (curve, trace footprint rectangle dims (w, h) and offsets) --- the
    planar trace diagram itself is built by the caller from the handle
    area and grouping.
    """
    at = _pt(at)
    handle_area = rat(handle_area)
    if handle_area <= 0:
        raise GeometryError("handle area must be positive")
    # the last proper contact at the point, as ``crossings`` keeps it
    spot = wrap_point(at)
    found = [c for c in _contacts(l_curve, s_curve)
             if "proper" in c[2] and wrap_point(c[2][1]) == spot]
    if not found:
        raise GeometryError(f"point ({at[0]}, {at[1]}) is not a transverse "
                            f"crossing of {l_curve.name} and {s_curve.name}")
    rec = _crossing(*found[-1])
    pts_l = path_from(l_curve, *rec.ends[0])
    pts_s = path_from(s_curve, *rec.ends[1])
    # directions at the crossing
    u_l = _direction(pts_l[0], pts_l[1])
    u_s = _direction(pts_s[0], pts_s[1])
    if u_l[0] * u_s[0] + u_l[1] * u_s[1] != 0:
        raise GeometryError("surgery requires an axis-parallel transverse crossing")
    w = rat(width)
    h = handle_area / w
    end_s = pts_s[-1]  # crossing + S-class translate
    # the cut must fit on the last S-edge and the first L-edge
    last_s_len = abs(end_s[0] - pts_s[-2][0]) + abs(end_s[1] - pts_s[-2][1])
    first_l_len = abs(pts_l[1][0] - pts_l[0][0]) + abs(pts_l[1][1] - pts_l[0][1])
    if h >= last_s_len or w >= first_l_len:
        raise GeometryError("handle does not fit the local edges")
    # follow S from the crossing, stop h short of the return, cut a w x h
    # staircase onto the outgoing L-branch, then follow L all the way round
    cut1 = (end_s[0] - h * u_s[0], end_s[1] - h * u_s[1])
    cut2 = (cut1[0] + w * u_l[0], cut1[1] + w * u_l[1])
    cut3 = (end_s[0] + w * u_l[0], end_s[1] + w * u_l[1])
    l_shift = (end_s[0] - pts_l[0][0], end_s[1] - pts_l[0][1])
    l_path = [(q[0] + l_shift[0], q[1] + l_shift[1]) for q in pts_l]
    verts = pts_s[:-1] + [cut1, cut2, cut3] + l_path[1:]
    out = TorusCurve(verts, name=f"{l_curve.name}#{s_curve.name}")
    return out, (w, h)


def parse_curve(line: str) -> TorusCurve:
    """Parse "curve <name>: (x1,y1) (x2,y2) ..."; the vertices are read by
    ``novikov.points``."""
    head, body = line.split(":", 1)
    _, name = head.split()
    return TorusCurve(points(body), name=name)
