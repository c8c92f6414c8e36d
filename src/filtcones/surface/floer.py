"""Combinatorial Floer complexes for transverse curve pairs on the torus.

Generators are the intersection points at action zero; the differential
counts embedded bigons in the universal cover bounded by one arc of each
curve with convex corners, weighted by T^area, mod 2.  Boundary arcs may
wind at most one extra time around their curve (lifts beyond that window
cannot close up for the configurations handled here, and d^2 = 0 is
verified at construction in any case).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..novikov import NovikovScalar
from ..filtcx import Chain, FilteredComplex, homology_rank
from .curves import GeometryError, Point, SIDE, TorusCurve, intersections, \
    _rotate_path_through, _seg_common, segment_pairs


def _loop_at(curve: TorusCurve, p: Point) -> List[Point]:
    """The curve's closed lift path from p itself to p plus its class."""
    loop = _rotate_path_through(curve, p)
    d0 = (p[0] - loop[0][0], p[1] - loop[0][1])
    return [(v[0] + d0[0], v[1] + d0[1]) for v in loop]


def _arc_options(loop: List[Point], q: Point, max_wind: int = 1):
    """Lift arcs along ``loop`` (from ``_loop_at``) from its start p to
    lifts of q.

    Produces the forward and backward simple arcs plus their variants
    winding up to ``max_wind`` extra times around the curve; every arc
    is a simple path in the universal cover starting at p itself.
    """
    cls = (loop[-1][0] - loop[0][0], loop[-1][1] - loop[0][1])
    hits = []
    for i in range(len(loop) - 1):
        t = _param_on_segment(loop[i], loop[i + 1], q)
        if t is not None:
            hits.append((i, _eval(loop, i, t)))
    arcs = []
    body = loop[:-1]
    for i, q_lift in hits:
        fwd = _dedupe([loop[0], *loop[1:i + 1], q_lift])
        bwd = _dedupe([loop[0]]
                      + [(v[0] - cls[0], v[1] - cls[1])
                         for v in reversed(loop[i + 1:-1])]
                      + [(q_lift[0] - cls[0], q_lift[1] - cls[1])])
        arcs.append(fwd)
        arcs.append(bwd)
        for w in range(1, max_wind + 1):
            wound = []
            for k in range(w):
                wound += [(v[0] + k * cls[0], v[1] + k * cls[1]) for v in body]
            wound += [(v[0] + w * cls[0], v[1] + w * cls[1]) for v in fwd]
            arcs.append(_dedupe(wound))
            woundb = []
            for k in range(w):
                woundb += [(v[0] - k * cls[0], v[1] - k * cls[1])
                           for v in _reverse_body(loop)]
            woundb += [(v[0] - w * cls[0], v[1] - w * cls[1]) for v in bwd]
            arcs.append(_dedupe(woundb))
    return arcs


def _reverse_body(loop):
    # walk backward from the start: loop[0], loop[-2]-cls, ... down to
    # loop[0]-cls exclusive
    cls = (loop[-1][0] - loop[0][0], loop[-1][1] - loop[0][1])
    out = [loop[0]]
    for v in reversed(loop[1:-1]):
        out.append((v[0] - cls[0], v[1] - cls[1]))
    return out


def _param_on_segment(a: Point, b: Point, q: Point) -> Optional[Fraction]:
    """Parameter t with a + t(b-a) ~ q mod the lattice, 0 <= t < 1."""
    # try all translates of q near the segment
    for kx in _k_range(a[0], b[0], q[0]):
        for ky in _k_range(a[1], b[1], q[1]):
            p = (q[0] + SIDE * kx, q[1] + SIDE * ky)
            r = (b[0] - a[0], b[1] - a[1])
            d = (p[0] - a[0], p[1] - a[1])
            if d[0] * r[1] - d[1] * r[0] != 0:
                continue
            rr = r[0] * r[0] + r[1] * r[1]
            t = (d[0] * r[0] + d[1] * r[1]) / rr
            if 0 <= t < 1:
                return t
    return None


def _k_range(a, b, q):
    lo, hi = min(a, b), max(a, b)
    k_lo = int(((lo - q) / SIDE).__floor__()) - 1
    k_hi = int(((hi - q) / SIDE).__ceil__()) + 1
    return range(k_lo, k_hi + 1)


def _eval(loop, i, t):
    a, b = loop[i], loop[i + 1]
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def _dedupe(path):
    out = [path[0]]
    for p in path[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _polygon_simple(path: List[Point]) -> bool:
    """Is the closed PL path (first == last) simple?"""
    n = len(path) - 1
    if n < 2:
        return False
    segs = list(zip(path, path[1:]))
    for i, j in segment_pairs(segs):
        a, b = segs[i]
        hit = _seg_common(a, b, *segs[j])
        if hit is None:
            continue
        if hit[0] == "overlap":
            return False
        p = hit[1]
        consecutive = (j == i + 1 and p == b) or \
            (i == 0 and j == n - 1 and p == a)
        if not consecutive:
            return False
    return True


def _signed_area(path: List[Point]) -> Fraction:
    s = Fraction(0)
    for i in range(len(path) - 1):
        a, b = path[i], path[i + 1]
        s += a[0] * b[1] - b[0] * a[1]
    return s / 2


def _corner_convex(incoming: Point, outgoing: Point, ccw: bool) -> bool:
    """Interior angle < pi at a transverse corner of a simple loop."""
    cr = incoming[0] * outgoing[1] - incoming[1] * outgoing[0]
    return cr > 0 if ccw else cr < 0


def enumerate_bigons(n_curve: TorusCurve, l_curve: TorusCurve, pts=None):
    """Embedded bigons between the two curves in the universal cover.

    Yields (p, q, area, loop) where the loop runs along the N-arc from
    p to q and back along the L-arc, is simple, and has convex corners.
    Each bigon on the torus is reported once (lift-translation classes
    are deduplicated by their vertex sets modulo translation).  ``pts``
    are the intersection points, if the caller has them already.
    """
    pts = intersections(n_curve, l_curve) if pts is None else pts
    seen = set()
    out = []
    for p in pts:
        loop_n, loop_l = _loop_at(n_curve, p), _loop_at(l_curve, p)
        for q in pts:
            arcs_n = _arc_options(loop_n, q)
            arcs_l = _arc_options(loop_l, q)
            for an in arcs_n:
                for al in arcs_l:
                    if an[-1] != al[-1]:
                        continue
                    if len(an) < 2 or len(al) < 2:
                        continue
                    loop = _dedupe(an + al[-2::-1])
                    if loop[0] != loop[-1] or len(loop) < 4:
                        continue
                    if not _polygon_simple(loop):
                        continue
                    area = _signed_area(loop)
                    if area == 0:
                        continue
                    ccw = area > 0
                    # corners: at p (loop start) and at the N/L junction q
                    v_in_p = _unit(loop[-2], loop[0])
                    v_out_p = _unit(loop[0], loop[1])
                    k = len(an) - 1
                    v_in_q = _unit(loop[k - 1], loop[k])
                    v_out_q = _unit(loop[k], loop[k + 1])
                    if not (_corner_convex(v_in_p, v_out_p, ccw) and
                            _corner_convex(v_in_q, v_out_q, ccw)):
                        continue
                    base = min(loop[:-1])
                    shape = tuple(sorted((v[0] - base[0], v[1] - base[1])
                                         for v in loop[:-1]))
                    key = (tuple(sorted((p, q))), shape)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append((p, q, abs(area), loop))
    return out


def _unit(a: Point, b: Point) -> Point:
    return (b[0] - a[0], b[1] - a[1])


def _gen_name(i: int, p: Point) -> str:
    return f"p{i}({p[0]},{p[1]})"


def floer_complex(n_curve: TorusCurve, l_curve: TorusCurve,
                  cutoff=64, pts=None) -> FilteredComplex:
    """CF(N, L): generators at action 0, differential from embedded
    bigons, d^2 = 0 verified at construction; ``pts`` as for bigons."""
    pts = intersections(n_curve, l_curve) if pts is None else pts
    names = {p: _gen_name(i, p) for i, p in enumerate(pts)}
    diff: Dict[str, Chain] = {names[p]: {} for p in pts}
    signs: Dict[Point, int] = {}
    for (p, q, area, loop) in enumerate_bigons(n_curve, l_curve, pts):
        for c in (p, q):
            if c not in signs:
                signs[c] = _crossing_sign(n_curve, l_curve, c)
        src, tgt = _bigon_direction(p, q, signs[p], signs[q])
        mono = NovikovScalar.monomial(area, cutoff)
        col = diff[names[src]]
        cur = col.get(names[tgt])
        col[names[tgt]] = mono if cur is None else cur + mono
        diff[names[src]] = {g: s for g, s in col.items() if not s.is_zero()}
    cx = FilteredComplex([names[p] for p in pts],
                         {names[p]: Fraction(0) for p in pts},
                         diff, cutoff)
    return cx


def _crossing_sign(n_curve: TorusCurve, l_curve: TorusCurve, p: Point):
    """Sign of det(t_N, t_L) of the oriented tangents at the crossing."""
    from .curves import _edge_through
    i, _, lift = _edge_through(n_curve, p)
    a, b = n_curve.edges()[i]
    t_n = (b[0] - a[0], b[1] - a[1])
    j, _, _ = _edge_through(l_curve, p)
    c, d = l_curve.edges()[j]
    t_l = (d[0] - c[0], d[1] - c[1])
    det = t_n[0] * t_l[1] - t_n[1] * t_l[0]
    if det == 0:
        raise GeometryError(f"crossing at {p} is not transverse")
    return 1 if det > 0 else -1


def _bigon_direction(p: Point, q: Point, sp: int, sq: int):
    """Direct each bigon from its positive corner to its negative one,
    given the crossing signs ``sp`` and ``sq`` of its corners.

    The two corners of an embedded bigon carry opposite crossing signs,
    so with this convention the differential maps positive generators to
    negative ones and squares to zero for structural reasons.
    """
    if sp == sq:
        raise GeometryError(
            f"bigon corners {p}, {q} carry equal crossing signs")
    return (p, q) if sp > 0 else (q, p)


def hf_rank(n_curve: TorusCurve, l_curve: TorusCurve, cutoff=64) -> int:
    """Lambda-dimension of the homology of the Floer complex."""
    pts = intersections(n_curve, l_curve)
    if not pts:
        return 0
    return homology_rank(floer_complex(n_curve, l_curve, cutoff, pts))


# ---------------------------------------------------------------------------
# triangles (mu_2)
# ---------------------------------------------------------------------------

def mu2_triangles(c0: TorusCurve, c1: TorusCurve, c2: TorusCurve,
                  cutoff=64):
    """mu_2: CF(c1,c2) x CF(c0,c1) -> CF(c0,c2) by embedded triangle count.

    Returns a dict mapping (y, x) generator-point pairs to chains over
    the CF(c0, c2) intersection points, weighted by T^area.
    """
    pts01 = intersections(c0, c1)
    pts12 = intersections(c1, c2)
    pts02 = intersections(c0, c2)
    for a in pts01:
        if a in pts12 or a in pts02:
            raise GeometryError("triple point in mu_2 configuration")
    out: Dict[Tuple[Point, Point], Dict[Point, NovikovScalar]] = {}
    loops1 = {x: _loop_at(c1, x) for x in pts01}
    loops2 = {y: _loop_at(c2, y) for y in pts12}
    loops0 = {z: _loop_at(c0, z) for z in pts02}
    for x in pts01:
        for y in pts12:
            for z in pts02:
                for arc01 in _arc_options(loops1[x], y):
                    for arc12 in _arc_options(loops2[y], z):
                        start = arc01[0]
                        a12 = _translate_to(arc12, arc01[-1])
                        for arc20 in _arc_options(loops0[z], x):
                            a20 = _translate_to(arc20, a12[-1])
                            if a20[-1] != start:
                                continue
                            loop = _dedupe(arc01 + a12[1:] + a20[1:])
                            if loop[0] != loop[-1] or len(loop) < 4:
                                continue
                            if not _polygon_simple(loop):
                                continue
                            area = _signed_area(loop)
                            if area == 0:
                                continue
                            if not _triangle_corners_convex(
                                    loop, (0, len(arc01) - 1,
                                           len(arc01) + len(a12) - 2),
                                    area > 0):
                                continue
                            mono = NovikovScalar.monomial(abs(area), cutoff)
                            cur = out.setdefault((y, x), {})
                            prev = cur.get(z)
                            cur[z] = mono if prev is None else prev + mono
    for k in list(out):
        out[k] = {z: s for z, s in out[k].items() if not s.is_zero()}
        if not out[k]:
            del out[k]
    return out


def _translate_to(arc, start):
    d = (start[0] - arc[0][0], start[1] - arc[0][1])
    return [(v[0] + d[0], v[1] + d[1]) for v in arc]


def _triangle_corners_convex(loop, corner_indices, ccw):
    n = len(loop) - 1
    for k in corner_indices:
        v_in = _unit(loop[(k - 1) % n], loop[k % n])
        v_out = _unit(loop[k % n], loop[(k + 1) % n])
        if not _corner_convex(v_in, v_out, ccw):
            return False
    return True
