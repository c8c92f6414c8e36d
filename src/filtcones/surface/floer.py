"""Combinatorial Floer complexes for transverse curve pairs on the torus.

Generators are the intersection points at action zero; the differential
counts embedded bigons in the universal cover bounded by one arc of each
curve with convex corners, weighted by T^area, mod 2.  Boundary arcs may
wind at most one extra time around their curve.  That window is not
proven to hold every bigon; d^2 = 0, verified at construction, is the
guard.

Every crossing is read from its ``curves.Crossing`` record (edge, lift
and sign on each curve), so no routine here searches lattice translates.
Each candidate loop is tested for simplicity and measured on its
vertices times their common scale q, as integers; its area is the
integer shoelace sum over 2 q^2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from ..novikov import NovikovScalar
from ..filtcx import Chain, FilteredComplex, homology_rank
from .curves import Crossing, GeometryError, Point, TorusCurve, \
    common_scale, crossings, path_from, scaled, _seg_common, segment_pairs


def _shift(path: List[Point], d: Point) -> List[Point]:
    return [(v[0] + d[0], v[1] + d[1]) for v in path]


def _loop_at(curve: TorusCurve, rec: Crossing, side: int) -> List[Point]:
    """The closed lift path of ``curve``, which is side ``side`` of the
    crossing ``rec``, from the wrapped crossing point itself to it plus
    the curve's class."""
    i, lift = rec.ends[side]
    return _shift(path_from(curve, i, lift),
                  (rec.point[0] - lift[0], rec.point[1] - lift[1]))


def _arc_options(loop: List[Point], at_p, at_q):
    """Lift arcs along ``loop`` (from ``_loop_at``) from its start p to
    lifts of q, where ``at_p`` and ``at_q`` are the (edge index, lift)
    ends of p and q on the loop's curve.

    Produces the forward and backward simple arcs plus their variants
    winding one extra time around the curve; every arc is a simple path
    in the universal cover starting at p itself.
    """
    (ip, lp), (iq, lq) = at_p, at_q
    p, cls = loop[0], (loop[-1][0] - loop[0][0], loop[-1][1] - loop[0][1])
    back = (-cls[0], -cls[1])
    q = (lq[0] + p[0] - lp[0], lq[1] + p[1] - lp[1])
    # loop segment k is the rest of edge ip for k = 0, then edges ip+1,
    # ..., edges 0..ip-1 plus cls, and edge ip plus cls up to p + cls;
    # q lies ahead of p on edge ip iff its lift is no further back
    i = iq - ip
    if i < 0 or i == 0 and ((lq[0] - lp[0]) * (loop[1][0] - p[0])
                            + (lq[1] - lp[1]) * (loop[1][1] - p[1])) < 0:
        i += len(loop) - 2
        q = (q[0] + cls[0], q[1] + cls[1])
    rev = [p] + _shift(loop[-2:0:-1], back)  # loop backward, one class down
    fwd = _dedupe(loop[:i + 1] + [q])  # just [p] when q is p
    bwd = rev[:len(loop) - 1 - i] + _shift([q], back)
    return [fwd, bwd, loop[:-1] + _shift(fwd, cls), rev + _shift(bwd, back)]


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
    pts = scaled(path, common_scale(path))
    segs = list(zip(pts, pts[1:]))
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
    """Shoelace area of the closed path (first == last), summed on the
    integer points at its common scale q and divided once by 2 q^2."""
    q = common_scale(path)
    pts = scaled(path, q)
    return Fraction(sum(a[0] * b[1] - b[0] * a[1]
                        for a, b in zip(pts, pts[1:])), 2 * q * q)


def _corner_convex(incoming: Point, outgoing: Point, ccw: bool) -> bool:
    """Interior angle < pi at a transverse corner of a simple loop."""
    cr = incoming[0] * outgoing[1] - incoming[1] * outgoing[0]
    return cr > 0 if ccw else cr < 0


def enumerate_bigons(n_curve: TorusCurve, l_curve: TorusCurve, recs=None):
    """Embedded bigons between the two curves in the universal cover.

    Yields (p, q, area, loop) where the loop runs along the N-arc from
    p to q and back along the L-arc, is simple, and has convex corners.
    Each bigon on the torus is reported once (lift-translation classes
    are deduplicated by their vertex sets modulo translation).  ``recs``
    are the sorted crossing records, if the caller has them already.
    """
    recs = crossings(n_curve, l_curve) if recs is None else recs
    seen = set()
    out = []
    for rp in recs:
        p = rp.point
        loop_n, loop_l = _loop_at(n_curve, rp, 0), _loop_at(l_curve, rp, 1)
        for rq in recs:
            q = rq.point
            arcs_n = _arc_options(loop_n, rp.ends[0], rq.ends[0])
            arcs_l = _arc_options(loop_l, rp.ends[1], rq.ends[1])
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
                  cutoff=64) -> FilteredComplex:
    """CF(N, L): generators at action 0, differential from embedded
    bigons directed by the corners' crossing signs, d^2 = 0 verified at
    construction."""
    recs = crossings(n_curve, l_curve)
    names = {r.point: _gen_name(i, r.point) for i, r in enumerate(recs)}
    signs = {r.point: r.sign for r in recs}
    diff: Dict[str, Chain] = {name: {} for name in names.values()}
    for (p, q, area, loop) in enumerate_bigons(n_curve, l_curve, recs):
        src, tgt = _bigon_direction(p, q, signs[p], signs[q])
        mono = NovikovScalar.monomial(area, cutoff)
        col = diff[names[src]]
        cur = col.get(names[tgt])
        col[names[tgt]] = mono if cur is None else cur + mono
        diff[names[src]] = {g: s for g, s in col.items() if not s.is_zero()}
    return FilteredComplex(list(names.values()),
                           {name: Fraction(0) for name in names.values()},
                           diff, cutoff)


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
    return homology_rank(floer_complex(n_curve, l_curve, cutoff))


# ---------------------------------------------------------------------------
# triangles (mu_2)
# ---------------------------------------------------------------------------

def mu2_triangles(c0: TorusCurve, c1: TorusCurve, c2: TorusCurve,
                  cutoff=64):
    """mu_2: CF(c1,c2) x CF(c0,c1) -> CF(c0,c2) by embedded triangle count.

    Returns a dict mapping (y, x) generator-point pairs to chains over
    the CF(c0, c2) intersection points, weighted by T^area.
    """
    recs01, recs12, recs02 = crossings(c0, c1), crossings(c1, c2), \
        crossings(c0, c2)
    others = {r.point for r in recs12 + recs02}
    if any(r.point in others for r in recs01):
        raise GeometryError("triple point in mu_2 configuration")
    out: Dict[Tuple[Point, Point], Dict[Point, NovikovScalar]] = {}
    loops1 = {x.point: _loop_at(c1, x, 1) for x in recs01}
    loops2 = {y.point: _loop_at(c2, y, 1) for y in recs12}
    loops0 = {z.point: _loop_at(c0, z, 0) for z in recs02}
    for x in recs01:
        for y in recs12:
            for z in recs02:
                for arc01 in _arc_options(loops1[x.point], x.ends[1],
                                          y.ends[0]):
                    for arc12 in _arc_options(loops2[y.point], y.ends[1],
                                              z.ends[1]):
                        start = arc01[0]
                        a12 = _translate_to(arc12, arc01[-1])
                        for arc20 in _arc_options(loops0[z.point], z.ends[0],
                                                  x.ends[0]):
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
                            cur = out.setdefault((y.point, x.point), {})
                            prev = cur.get(z.point)
                            cur[z.point] = mono if prev is None \
                                else prev + mono
    for k in list(out):
        out[k] = {z: s for z, s in out[k].items() if not s.is_zero()}
        if not out[k]:
            del out[k]
    return out


def _translate_to(arc, start):
    return _shift(arc, (start[0] - arc[0][0], start[1] - arc[0][1]))


def _triangle_corners_convex(loop, corner_indices, ccw):
    n = len(loop) - 1
    for k in corner_indices:
        v_in = _unit(loop[(k - 1) % n], loop[k % n])
        v_out = _unit(loop[k % n], loop[(k + 1) % n])
        if not _corner_convex(v_in, v_out, ccw):
            return False
    return True
