"""Combinatorial Floer theory for transverse curve pairs on the torus.

``hf_rank`` reads the rank of HF(X, Y) off the two classes and the flux,
and builds no complex and no crossing record: ``transverse_contacts``
refuses a pair that is not transverse.  The polygon walk serves CF(X, Y),
its bigons and mu_2: generators are the intersection points at action
zero; the differential counts embedded bigons (lunes) in the universal
cover, bounded by one arc of each curve with convex corners, weighted by
T^area, mod 2, and directed from the positive corner to the negative one.
The walk finds the lunes and the triangles of ``mu2_triangles`` from the
order of the crossings along the lifts, as de Silva, Robbin and Salamon
read lunes (*Combinatorial Floer Homology*, Mem. AMS 230, 2014).

A crossing's position on a lift is its edge index plus the fraction of
that edge before it; the class translate adds the edge count.  Side i of
a polygon runs on a lift of curve i from corner i to corner i + 1.  The
sides bound a simple loop iff no crossing of two sides' lifts but their
common corner lies inside both.  The corners are convex iff each turns
the same way, as its crossing sign and the directions of its two sides
say (so a lune's corners carry opposite signs), and the loop's integer
shoelace area, computed only for loops that pass, has that sign.

The walk runs on integers.  Each crossing record holds its ends as
integer fractions n/den of their edges and integer deck translates
(``curves.Crossing``), so positions are integers over the lcm of the
records' denominators, deck offsets are integer vectors, and a loop's
points are integers over that lcm times the curves' scales.  The walk
reads each curve's integer lift, scale, class and edge count off the
``TorusCurve`` itself.  Each polygon found gets one Fraction for its
area and Fraction points for its loop.

Finiteness.  Lifts of two different classes cross finitely often.  When
the two sides at a corner lie in one class up to sign, the candidates for
given corner records step along both sides one class translate v at a
time, and outside a finite window both sides pass the corner's translate
by v.  So modulo the deck action the candidates are finite, with no bound
on how far a side winds.  Triangles need exactly two classes equal up to
sign: three pairwise distinct ones bound an infinite theta series of
triangles (Polishchuk and Zaslow, 1998) and three equal ones a plane of
candidates, and both are refused.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Dict, Tuple

from ..novikov import DEFAULT_CUTOFF, NovikovScalar
from ..filtcx import FilteredComplex, chain_sum
from .curves import GeometryError, Point, TorusCurve, crossings, \
    transverse_contacts


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def _point(curve: TorusCurve, r, s: int, big: int) -> Tuple[int, int]:
    """The lift of end s of record r on ``curve``, times ``big`` (a
    multiple of the curve's scale times r.den): n/den of the way along
    its edge of the integer lift."""
    (ax, ay), (bx, by) = curve.int_lift[r.ends[s][0]:r.ends[s][0] + 2]
    n, f = r.at[s][0], big // (curve.scale * r.den)
    return ((ax * r.den + n * (bx - ax)) * f, (ay * r.den + n * (by - ay)) * f)


def _shoelace(pts) -> int:
    """Twice the signed area of the closed integer path (first == last)."""
    return sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(pts, pts[1:]))


def _blocked(ca: TorusCurve, cb: TorusCurve, items, shift, arc_a, arc_b,
             scale) -> bool:
    """Does a crossing of lifts of a and b lie strictly inside both arcs?
    Positions are integers over ``scale``; ``items`` hold (position on a,
    on b, (a lift - b lift) / 2) per record; ``shift`` is (b - a) / 2."""
    ha, hb = ca.hclass, cb.hclass
    ea, eb = len(ca.vertices) * scale, len(cb.vertices) * scale
    (a0, a1), (b0, b1) = sorted(arc_a), sorted(arc_b)
    d = _det(hb, ha)
    for pa, pb, e in items:
        f = (shift[0] - e[0], shift[1] - e[1])  # i ha - j hb = f
        if d:
            (i, ri), (j, rj) = divmod(_det(hb, f), d), divmod(_det(ha, f), d)
            if not (ri or rj) and a0 < pa + i * ea < a1 \
                    and b0 < pb + j * eb < b1:
                return True
        elif not _det(ha, f):  # i = tau + sg j for every integer j
            tau = (f[0] * ha[0] + f[1] * ha[1]) // (ha[0] ** 2 + ha[1] ** 2)
            sg = 1 if hb == ha else -1
            # the j inside arc a lie strictly between lo / ea and hi / ea;
            # j0 is the least integer past both lower ends
            lo, hi = sorted(sg * (x - pa - tau * ea) for x in (a0, a1))
            j0 = max(lo // ea, (b0 - pb) // eb) + 1
            if j0 * ea < hi and j0 * eb < b1 - pb:
                return True
    return False


def _solve(vecs, rhs):
    """Integers c with sum c[i] vecs[i] = rhs (one or two vectors)."""
    if len(vecs) == 1:
        (a,) = vecs
        c, r = divmod(rhs[0] * a[0] + rhs[1] * a[1], a[0] ** 2 + a[1] ** 2)
        return None if r or _det(a, rhs) else [c]
    d = _det(*vecs)
    (c0, r0), (c1, r1) = divmod(_det(rhs, vecs[1]), d), \
        divmod(_det(vecs[0], rhs), d)
    return None if r0 or r1 else [c0, c1]


def _kernel(vecs):
    """The primitive integer u with sum u[i] vecs[i] = 0, or zero."""
    if len(vecs) == 2:
        a, b = vecs
        return (0, 0) if _det(a, b) else (-1 if a == b else 1, 1)
    u = [_det(vecs[(c + 1) % 3], vecs[(c + 2) % 3]) for c in range(3)]
    g = gcd(*u)
    return tuple(v // g for v in u) if g else tuple(u)


def _window(lp, lq, gp, gq, ep, eq):
    """The t for which the corner's translate by (ep, eq) is not inside
    both sides, ending lp + t gp and lq + t gq from the corner."""
    lo, hi = sorted((max if s * gp > 0 else min)(
        Fraction(s * ep - lp, gp), Fraction(s * eq - lq, gq)) for s in (1, -1))
    return range(ceil(lo), floor(hi) + 1)


def _polygons(curves, corners):
    """Embedded polygons with side i on ``curves[i]``; ``corners[i]`` is
    (records, flip) for the crossings of sides i - 1 and i, flip set if
    the records list side i first.  Yields (corner records, signed area,
    loop from the wrapped corner 0) once per polygon on the torus."""
    k = len(curves)
    ns = [len(c.vertices) for c in curves]  # edge counts
    # corner i at period n[i] on side i - 1: sum n[i] h[i - 1] = rhs
    vecs = [curves[i - 1].hclass for i in range(k)]
    u = _kernel(vecs)
    if k == 3 and u.count(0) != 1:
        raise GeometryError("mu_2 needs exactly two of the three classes "
                            "equal up to sign")
    pinned = [i for i in range(k) if u[i]][-1:]  # its entry of u is +-1
    unknown = [i for i in range(k) if i not in pinned]
    same = next((i for i in range(k) if not _det(vecs[i], curves[i].hclass)),
                None)  # a corner whose two sides lie in one class
    sg = same is not None and (1 if vecs[same] == curves[same].hclass else -1)
    pair = [(i, i - 1) if flip else (i - 1, i)
            for i, (_, flip) in enumerate(corners)]
    # a record end's position on its side, edge i plus n / den, is an
    # integer over ``scale``; the loops' points are integers over ``big``
    scale = lcm(*(r.den for recs, _ in corners for r in recs))
    big = scale * lcm(*(c.scale for c in curves))

    def pos(r, s):
        return r.ends[s][0] * scale + r.at[s][0] * (scale // r.den)

    items = [[(pos(r, 0), pos(r, 1), _sub(r.at[0][1], r.at[1][1]))
              for r in recs] for recs, _ in corners]
    # per corner: (record, its position on side i, on side i - 1, half
    # the lift difference of its ends on sides i and i - 1)
    ends = [[(r, pos(r, 1 - flip), pos(r, flip),
              _sub(r.at[1 - flip][1], r.at[flip][1])) for r in recs]
            for recs, flip in corners]
    for idx in itertools.product(*(range(len(e)) for e in ends)):
        if k == 2 and idx[0] >= idx[1]:  # a bigon from its first corner
            continue
        tup = [ends[i][j] for i, j in enumerate(idx)]
        sol = _solve([vecs[i] for i in unknown],
                     [sum(c) for c in zip(*(c[3] for c in tup))])
        if sol is None:
            continue
        s0 = [sol.pop(0) if i in unknown else 0 for i in range(k)]

        def sides(t):
            n = [a + t * b for a, b in zip(s0, u)]
            return [(tup[i][1], tup[i + 1 - k][2]
                     + n[i + 1 - k] * ns[i] * scale) for i in range(k)]

        ts = range(1)
        if same is not None:
            (lp, lq), (lp1, lq1) = [
                (a[same - 1][0] - a[same - 1][1],
                 sg * (a[same][1] - a[same][0])) for a in (sides(0), sides(1))]
            ts = _window(lp, lq, lp1 - lp, lq1 - lq,
                         ns[same - 1] * scale, ns[same] * scale)
        for t in ts:
            arcs = sides(t)
            e = [1 if b > a else -1 for a, b in arcs]
            turns = {e[i - 1] * e[i] * c[0].sign * (1 - 2 * corners[i][1])
                     for i, c in enumerate(tup)}
            if len(turns) > 1:
                continue
            # w[i]: half the deck offset of side i's lift from side 0's,
            # which meets it at corner i after whole class translates
            w = [(0, 0)]
            for i in range(1, k):
                end, h = tup[i][0].ends[corners[i][1]], vecs[i]
                m = (arcs[i - 1][1] // scale - end[0]) // ns[i - 1]
                w.append((w[-1][0] + m * h[0] - tup[i][3][0],
                          w[-1][1] + m * h[1] - tup[i][3][1]))
            if any(_blocked(curves[a], curves[b], items[i], _sub(w[b], w[a]),
                            arcs[a], arcs[b], scale)
                   for i, (a, b) in enumerate(pair) if k > 2 or i):
                continue
            # the loop times big, moved by a deck translate to start at
            # the wrapped corner 0
            to = tup[0][0].at[1 - corners[0][1]][1]
            loop = []
            for i, (a, b) in enumerate(arcs):
                curve, f = curves[i], big // curves[i].scale
                ox, oy = (2 * big * (c - m) for c, m in zip(w[i], to))
                x, y = _point(curve, tup[i][0], 1 - corners[i][1], big)
                loop.append((x + ox, y + oy))
                for g in (range(a // scale + 1, b // scale + 1) if a < b
                          else range(a // scale, b // scale, -1)):
                    m, v = divmod(g, ns[i])
                    x, y = curve.int_lift[v]
                    loop.append((x * f + 2 * big * m * curve.hclass[0] + ox,
                                 y * f + 2 * big * m * curve.hclass[1] + oy))
            loop.append(loop[0])
            area = _shoelace(loop)
            if (area > 0) == (turns.pop() > 0):
                yield [c[0] for c in tup], Fraction(area, 2 * big * big), \
                    [(Fraction(x, big), Fraction(y, big)) for x, y in loop]


def enumerate_bigons(n_curve: TorusCurve, l_curve: TorusCurve, recs=None):
    """Embedded bigons between the two curves in the universal cover.

    Returns (p, q, area, loop) once per bigon on the torus; the loop
    starts at the wrapped corner p, the one first in ``recs`` (the sorted
    crossing records, if the caller has them), runs along the N-arc to q
    and back along the L-arc."""
    recs = crossings(n_curve, l_curve) if recs is None else recs
    return [(p.point, q.point, abs(area), loop) for (p, q), area, loop
            in _polygons([n_curve, l_curve],
                         [(recs, 1), (recs, 0)])]


def floer_complex(n_curve: TorusCurve, l_curve: TorusCurve) -> FilteredComplex:
    """CF(N, L): generators at action 0, differential from embedded
    bigons directed from the positive corner to the negative one (the
    corners of a lune carry opposite signs), d^2 = 0 verified at
    construction."""
    recs = crossings(n_curve, l_curve)
    gens = {r.point: (f"p{i}({r.point[0]},{r.point[1]})", r.sign)
            for i, r in enumerate(recs)}
    names = [name for name, _ in gens.values()]
    terms: Dict[str, list] = {name: [] for name in names}
    for (p, q, area, loop) in enumerate_bigons(n_curve, l_curve, recs):
        (a, sign), (b, _) = gens[p], gens[q]
        src, tgt = (a, b) if sign > 0 else (b, a)
        terms[src].append((tgt, NovikovScalar.monomial(area, DEFAULT_CUTOFF)))
    return FilteredComplex(names, {name: Fraction(0) for name in names},
                           {g: chain_sum(t) for g, t in terms.items()},
                           DEFAULT_CUTOFF)


def _flux(curve: TorusCurve, m: int) -> int:
    """2 (q m)^2 F(curve) (see ``hf_rank``) for the lift's scale q: the
    trapezoid rule, exact on each edge of the integer lift times m."""
    (hx, hy), pts = curve.hclass, curve.int_lift
    return m * m * sum(
        (hx * (ay + by) - hy * (ax + bx)) * (hx * (bx - ax) + hy * (by - ay))
        for (ax, ay), (bx, by) in zip(pts, pts[1:]))


def hf_rank(n_curve: TorusCurve, l_curve: TorusCurve) -> int:
    """Lambda-dimension of HF(N, L), read off the classes and the flux.

    HF over Lambda is invariant under Hamiltonian isotopy, and each curve
    is isotopic to a straight line of its class h, Hamiltonianly up to a
    translation (de Silva, Robbin and Salamon, *Combinatorial Floer
    Homology*, Mem. AMS 230, 2014).  Lines of classes h_N != +-h_L cross
    |det(h_N, h_L)| times and bound no lune.  For h_L = +-h_N = +-h the
    rank is 2, that of H(S^1), if N and L are Hamiltonian isotopic: if
    the area between N and L (oriented like N) is a multiple of the
    torus area 4; else 0.  With n = (-h_y, h_x) and F the integral of
    (n.p) d(h.p) over one period of a lift, that area is (F(N) - F(L)) /
    |h|^2 (the loop between the curves closes with two segments 2h
    apart, on which n.p agrees), and a deck translate moves F by a
    multiple of 4|h|^2.  Reversing a curve negates h and F.
    ``transverse_contacts`` refuses pairs that are not transverse."""
    transverse_contacts(n_curve, l_curve)
    h, k = n_curve.hclass, l_curve.hclass
    if _det(h, k):
        return abs(_det(h, k))
    q = lcm(n_curve.scale, l_curve.scale)
    diff = _flux(n_curve, q // n_curve.scale) - (1 if k == h else -1) \
        * _flux(l_curve, q // l_curve.scale)
    return 0 if diff % (8 * q * q * (h[0] ** 2 + h[1] ** 2)) else 2


def mu2_triangles(c0: TorusCurve, c1: TorusCurve, c2: TorusCurve):
    """mu_2: CF(c1,c2) x CF(c0,c1) -> CF(c0,c2) by embedded triangle count.

    Returns a dict mapping (y, x) generator-point pairs to chains over
    the CF(c0, c2) intersection points, weighted by T^area; a triangle
    runs along c1 from x to y, along c2 to z and along c0 back to x.
    Raises GeometryError on a triple point, and unless exactly two of the
    three classes agree up to sign (see the module docstring).
    """
    recs = [crossings(a, b) for a, b in ((c0, c1), (c1, c2), (c0, c2))]
    others = {r.point for r in recs[1] + recs[2]}
    if any(r.point in others for r in recs[0]):
        raise GeometryError("triple point in mu_2 configuration")
    terms: Dict[Tuple[Point, Point], list] = {}
    if not all(recs):
        return {}
    for (x, y, z), area, loop in _polygons(
            [c1, c2, c0], list(zip(recs, (0, 0, 1)))):
        terms.setdefault((y.point, x.point), []).append(
            (z.point, NovikovScalar.monomial(abs(area), DEFAULT_CUTOFF)))
    return {key: chain for key, t in terms.items() if (chain := chain_sum(t))}
