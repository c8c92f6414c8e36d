"""Prebuilt torus scenarios: the four-surgery curve, the single-trace
curve, and the degenerate disjoint-union examples, with their move sets
and verified probe families."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .novikov import rat
from .surface.curves import TorusCurve, surgery
from .surface.shadow import PlanarDiagram
from .fragmetric import (
    FragError, LagObject, MetricSpace, Move, ProbeFamily, suspension_move,
    trace_move,
)

F = Fraction


def base_curves(eps) -> Dict[str, TorusCurve]:
    eps = rat(eps)
    half = F(1, 2)
    return {
        "L": TorusCurve([(-1, 0), (1, 0)], name="L"),
        "S1": TorusCurve([(-half - eps, -1), (-half - eps, 1)], name="S1"),
        "S2": TorusCurve([(-half + eps, -1), (-half + eps, 1)], name="S2"),
        "S3": TorusCurve([(half - eps, 1), (half - eps, -1)], name="S3"),
        "S4": TorusCurve([(half + eps, 1), (half + eps, -1)], name="S4"),
        "N": TorusCurve([(-1, -2 * eps), (1, -2 * eps)], name="N"),
    }


def four_surgery_curve(curves, eps, delta) -> Tuple[TorusCurve, list]:
    """L' = S3 # [(S2 # (L # S1)) # S4] with handles of area delta."""
    eps, delta = rat(eps), rat(delta)
    half = F(1, 2)
    w = eps / 2
    dims = []
    cur, d1 = surgery(curves["L"], curves["S1"], (-half - eps, 0), delta,
                      width=w)
    dims.append(d1)
    cur, d2 = surgery(curves["S2"], cur, (-half + eps, 0), delta, width=w)
    dims.append(d2)
    cur, d3 = surgery(cur, curves["S4"], (half + eps, 0), delta, width=w)
    dims.append(d3)
    cur, d4 = surgery(curves["S3"], cur, (half - eps, 0), delta, width=w)
    dims.append(d4)
    cur.name = "L'"
    return cur, dims


def _regime(eps, delta) -> Tuple[Fraction, Fraction]:
    """(eps, delta) as Fractions, refused outside the handle regime
    0 < eps <= 1/8, 0 < delta < eps^2 / 2."""
    eps, delta = rat(eps), rat(delta)
    if not 0 < eps <= F(1, 8):
        raise FragError("requires 0 < eps <= 1/8")
    if not 0 < delta < eps * eps / 2:
        raise FragError("requires 0 < delta < eps^2/2")
    return eps, delta


def _base_objects():
    """L and S1 to S4, each on its own curve."""
    return [LagObject(n, [n]) for n in ("L", "S1", "S2", "S3", "S4")]


def lem_ex1_space(eps, delta) -> MetricSpace:
    """The torus configuration with its move set and bounds machinery.

    Requires 0 < delta < eps^2 / 2 (the handle regime where every stated
    number is exact).
    """
    eps, delta = _regime(eps, delta)
    curves = base_curves(eps)
    lp, _ = four_surgery_curve(curves, eps, delta)
    curves["L'"] = lp
    objects = [
        *_base_objects(),
        LagObject("N", ["N"]),
        LagObject("L'", carrier=["S1", "S2", "S3", "S4"],
                  cover=["L", "S1", "S2", "S3", "S4"], geometry="L'"),
    ]
    moves = [
        suspension_move("phi", "L", "L'", 4 * eps),
        trace_move("T4", "L'", ("S3", "S2", "L", "S1", "S4"),
                   [delta] * 4, [0, 0, 1, 1]),
    ]
    families = {"F": ["S1", "S2", "S3", "S4"],
                "Fleft": ["S1", "S2"], "Fright": ["S3", "S4"]}
    return MetricSpace(curves, objects, families, moves)


def trace_surgery_space(eps, delta) -> MetricSpace:
    """L'' = L # S1 with the single-trace move and the probe family
    certifying the sharp lower bound d_1(L'', L) = delta."""
    eps, delta = _regime(eps, delta)
    curves = base_curves(eps)
    half = F(1, 2)
    ox = -half - eps
    w = eps / 2
    lpp, (w1, h1) = surgery(curves["L"], curves["S1"], (ox, 0), delta, width=w)
    lpp.name = "L''"
    curves["L''"] = lpp
    objects = [
        *_base_objects(),
        LagObject("L''", carrier=["S1"], cover=["L", "S1"], geometry="L''"),
    ]
    moves = [
        trace_move("T1", "L''", ("L", "S1"), [delta], [0]),
    ]

    def build(t):
        t = rat(t)
        b = t * h1
        c = t * w1
        bp = 1 - b / 2  # clears the wrap vertex at height 1, keeps a >= c
        a = c * (bp + b) / (2 - bp - b)  # equal bigon areas: rank 2 vs S1
        x_n, x_e = ox - a, ox + c
        return TorusCurve([(x_n, bp), (x_n, 2 - b), (x_e, 2 - b),
                           (x_e, 2 + bp), (x_n, 2 + bp)], name="Nt")

    def profile(t):
        t = rat(t)
        return t * t * w1 * h1

    probe = ProbeFamily(
        "corner", "L''", ("L", "S1"), delta,
        [F(1, 2), F(3, 4), F(9, 10)], build, profile,
        sigma_points=[(ox, 0)], system=["L", "S1"])
    families = {"F": ["S1", "S2", "S3", "S4"]}
    return MetricSpace(curves, objects, families, moves, probes=[probe])


def disjoint_union_space(eps) -> MetricSpace:
    """The degenerate example: S1 decomposes as (S1, S2, S2) through a
    shadowless disjoint union of product cobordisms."""
    eps = rat(eps)
    curves = base_curves(eps)
    objects = _base_objects()
    # footprint: one full horizontal line (gamma_0 x S1) plus a curve with
    # two left ends (gamma_1 x S2); no bounded faces
    d = PlanarDiagram(rays=[((0, 1), -1), ((0, 1), 1),
                            ((0, 2), -1), ((0, 3), -1)])
    d.add_polyline([(0, 2), (1, 2), (1, 3), (0, 3)])
    union = Move("U", "S1", ("S1", "S2", "S2"), d, 0)
    families = {"F": ["S1", "S2", "S3", "S4"]}
    return MetricSpace(curves, objects, families, [union])


def connected_small_shadow_footprint(eps) -> PlanarDiagram:
    """Footprint of the connected suspension-surgery cobordism W_eps:
    a bent product spliced into a straight one at a plane crossing; the
    handle smears into a blob of area exactly eps."""
    eps = rat(eps)
    w = F(1, 2)
    h = eps / w
    d = PlanarDiagram(rays=[((0, 1), -1), ((0, -1), -1), ((0, 0), -1),
                            ((4, 0), 1)])
    # the bent curve: up over the crossing region
    d.add_polyline([(0, 1), (3, 1), (3, -1), (0, -1)])
    # the straight strand through the crossing at (3, 0)
    d.add_polyline([(0, 0), (4, 0)])
    # handle blob at the crossing
    d.add_rect(3 - w / 2, -h / 2, 3 + w / 2, h / 2)
    return d
