import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from filtcones.novikov import INF
from filtcones.surface.curves import (
    Crossing, GeometryError, TorusCurve, count_transverse_crossings,
    crossings, intersections, parse_curve, surgery,
)
from filtcones.surface.floer import enumerate_bigons, floer_complex, \
    hf_rank, mu2_triangles
from filtcones.surface.shadow import PlanarDiagram, parse_diagram, \
    planar_shadow
from filtcones.surface.svg import curves_to_svg, diagram_to_svg
from filtcones.surface.widths import gromov_width_double_points, \
    gromov_width_rel

from support import ref_double_point_width, ref_rect_union_area, \
    ref_strands, shear_diagram

F = Fraction


def horizontal(y, name="L"):
    return TorusCurve([(-1, y), (1, y)], name=name)


def vertical(x, name="S"):
    return TorusCurve([(x, -1), (x, 1)], name=name)


def jogged_horizontal(y, x0, x1, depth, name="M"):
    """Horizontal circle at height y with a rectangular dip to y-depth."""
    return TorusCurve([(-1, y), (x0, y), (x0, y - depth), (x1, y - depth),
                       (x1, y), (1, y)], name=name)


# -- curves --------------------------------------------------------------------

def test_homology_class_and_embedding():
    l = horizontal(0)
    assert l.hclass == (1, 0)
    s = vertical(F(-1, 2))
    assert s.hclass == (0, 1)
    assert l.is_embedded() and s.is_embedded()
    with pytest.raises(GeometryError):
        TorusCurve([(0, 0), (1, 0)])  # does not close up
    with pytest.raises(GeometryError):
        # figure-eight-like self crossing
        TorusCurve([(0, 0), (1, 0), (1, 1), (F(1, 2), 1), (F(1, 2), -1),
                    (2, -1), (2, 0)])


def test_intersections_examples():
    l = horizontal(0)
    s1 = vertical(F(-5, 8))
    pts = intersections(l, s1)
    assert pts == [(F(-5, 8), 0)]
    # two parallel horizontals: no intersections
    assert intersections(horizontal(0), horizontal(F(-1, 4), "N")) == []
    # shared segment is rejected
    with pytest.raises(GeometryError):
        intersections(l, horizontal(0, "L2"))


def test_strands():
    # strands are integers at the curve's scale: coordinate and length
    # times the scale
    l = horizontal(0)
    assert (l.scale, l.strands()) == (1, [("h", 0, 2)])
    m = jogged_horizontal(F(1, 2), F(-1, 4), F(1, 4), F(1, 4))
    runs = m.strands()
    axes = sorted(r[0] for r in runs)
    # the two top pieces merge across the wrap into one horizontal run
    assert axes == ["h", "h", "v", "v"]
    assert m.scale == 4
    tops = [r for r in runs if r[0] == "h" and r[1] == 2]
    assert tops == [("h", 2, 6)]
    # a line drawn at x = 1 wraps to x = -1, as the oracle's does
    edge = vertical(1)
    assert edge.strands() == [("v", -1, 2)]
    for c in (l, m, edge):
        assert sorted((a, F(x, c.scale), F(n, c.scale))
                      for a, x, n in c.strands()) == sorted(ref_strands(c))


def test_parse_curve():
    c = parse_curve("curve L: (-1,0) (1,0)")
    assert c.name == "L" and c.hclass == (1, 0)
    c2 = parse_curve("curve S1: (-5/8,-1) (-5/8,1)")
    assert c2.hclass == (0, 1)


# -- floer ---------------------------------------------------------------------

def test_floer_rank_one_pair():
    l = horizontal(0)
    s = vertical(F(-1, 2))
    cx = floer_complex(s, l)
    assert cx.dim == 1
    assert all(not cx.diff[g] for g in cx.generators)
    assert hf_rank(s, l) == 1


def test_floer_disjoint_rank_zero():
    assert hf_rank(horizontal(0), horizontal(F(1, 2), "N")) == 0


def test_floer_two_point_pair_equal_and_unequal():
    # M crosses L at two points; bigon areas: dip area vs complement band
    y, x0, x1, depth = F(1, 4), F(-1, 4), F(1, 4), F(1, 2)
    m = jogged_horizontal(y, x0, x1, depth)
    l = horizontal(0, "L")
    pts = intersections(m, l)
    assert len(pts) == 2
    bigons = enumerate_bigons(m, l)
    areas = sorted(a for _, _, a, _ in bigons)
    # dip bigon: (x1-x0) wide, depth-y tall below 0 ... area (x1-x0)*(depth-y)
    small = (x1 - x0) * (depth - y)
    big = (2 - (x1 - x0)) * y
    assert areas == sorted([small, big])
    assert small != big
    assert hf_rank(m, l) == 0
    # tune the dip so the two bigons have equal area: rank 2
    # (2 - w) * y = w * (depth - y) with w = x1 - x0
    w = x1 - x0
    depth_eq = (2 - w) * y / w + y
    m2 = jogged_horizontal(y, x0, x1, depth_eq, "M2")
    bigons2 = enumerate_bigons(m2, l)
    areas2 = sorted(a for _, _, a, _ in bigons2)
    assert areas2[0] == areas2[1]
    assert hf_rank(m2, l) == 2


def test_floer_dsquared_small_systems():
    curves = [horizontal(0, "L"), vertical(F(-1, 2), "S"),
              jogged_horizontal(F(1, 4), F(-1, 4), F(1, 4), F(1, 2), "M"),
              vertical(F(1, 8), "S2")]
    for i in range(len(curves)):
        for j in range(len(curves)):
            if i == j:
                continue
            try:
                cx = floer_complex(curves[i], curves[j])
            except GeometryError:
                continue
            for g in cx.generators:
                assert not cx.d(cx.diff[g])


def test_hf_rank_bounded_by_intersections():
    m = jogged_horizontal(F(1, 4), F(-1, 4), F(1, 4), F(1, 2))
    l = horizontal(0)
    assert hf_rank(m, l) <= len(intersections(m, l))


def test_floer_action_drop_is_min_bigon_area():
    from filtcones.filtcx import delta_d
    m = jogged_horizontal(F(1, 4), F(-1, 4), F(1, 4), F(1, 2))
    l = horizontal(0)
    areas = [a for _, _, a, _ in enumerate_bigons(m, l)]
    cx = floer_complex(m, l)
    assert delta_d(cx) == min(areas)


def test_mu2_triangle_count():
    # three curves pairwise crossing: horizontal, vertical, diagonal-ish
    l0 = horizontal(0, "A")
    l1 = vertical(F(-1, 2), "B")
    l2 = horizontal(F(1, 2), "C")
    # A-B cross once, B-C cross once, A-C disjoint: no triangles
    out = mu2_triangles(l0, l1, l2)
    assert out == {}
    # a transverse triple with honest triangles
    tri = mu2_triangles(horizontal(0, "A"), vertical(F(-1, 2), "B"),
                        jogged_horizontal(F(3, 4), F(-3, 4), F(-1, 4),
                                          F(5, 4), "C"))
    assert tri
    for (y, x), chain in tri.items():
        for z, s in chain.items():
            assert not s.is_zero()


# -- surgery -------------------------------------------------------------------

def test_surgery_basic():
    l = horizontal(0)
    s1 = vertical(F(-5, 8), "S1")
    delta = F(1, 256)
    cur, (w, h) = surgery(l, s1, (F(-5, 8), 0), delta, F(1, 4))
    assert w * h == delta
    assert cur.is_embedded()
    assert cur.hclass == (l.hclass[0] + s1.hclass[0],
                          l.hclass[1] + s1.hclass[1])
    # the crossing is resolved: no transverse crossings with S1 remain
    assert count_transverse_crossings(cur, s1) == 0
    with pytest.raises(GeometryError):
        surgery(l, s1, (F(-5, 8), 0), 0, F(1, 4))
    with pytest.raises(GeometryError):
        surgery(l, s1, (0, 0), delta, F(1, 4))  # not an intersection point


def test_surgery_embeds_composites():
    eps = F(1, 8)
    delta = F(1, 256)
    l = horizontal(0, "L")
    s1 = vertical(-F(1, 2) - eps, "S1")
    s2 = vertical(-F(1, 2) + eps, "S2")
    c1, _ = surgery(l, s1, (-F(1, 2) - eps, 0), delta, width=eps / 2)
    c2, _ = surgery(c1, s2, (-F(1, 2) + eps, 0), delta, width=eps / 2)
    assert c2.is_embedded()
    assert c2.hclass == (1, 2)


def test_surgery_refuses_a_point_on_only_one_curve():
    l = horizontal(0, "L")
    s1 = vertical(F(-5, 8), "S1")
    for at in [(F(1, 3), 0), (F(-5, 8), F(1, 2)), (F(11, 8), F(1, 2))]:
        for a, b in ((l, s1), (s1, l)):
            with pytest.raises(GeometryError, match=(
                    rf"point \({at[0]}, {at[1]}\) is not a transverse "
                    rf"crossing of {a.name} and {b.name}")):
                surgery(a, b, at, F(1, 256), F(1, 4))
    # a deck translate of the crossing is the crossing itself
    cur, _ = surgery(l, s1, (F(11, 8), 2), F(1, 256), F(1, 4))
    assert cur.vertices == surgery(l, s1, (F(-5, 8), 0), F(1, 256),
                                   F(1, 4))[0].vertices


def test_crossing_records_carry_edges_lifts_and_sign():
    l = horizontal(0, "L")
    # the same circle as vertical(-1/2), lifted one period to the right
    # and run downward: its lift is (3/2, 0) and the sign flips
    s = TorusCurve([(F(3, 2), 1), (F(3, 2), F(1, 2)), (F(3, 2), -1)],
                   name="S")
    assert crossings(l, s) == [
        Crossing((F(-1, 2), 0), ((0, (F(-1, 2), 0)), (1, (F(3, 2), 0))), -1)]
    assert crossings(s, l) == [
        Crossing((F(-1, 2), 0), ((1, (F(3, 2), 0)), (0, (F(-1, 2), 0))), 1)]
    m = jogged_horizontal(F(1, 4), F(-1, 4), F(1, 4), F(1, 2))
    assert [(r.ends[0][0], r.sign) for r in crossings(m, l)] == \
        [(1, 1), (3, -1)]


# -- widths --------------------------------------------------------------------

def test_width_rel_horizontal_circle():
    l = horizontal(0)
    assert gromov_width_rel([l], []) == 4


def test_width_rel_lem_ex1_configuration():
    eps = F(1, 8)
    s = [vertical(-F(1, 2) - eps, "S1"), vertical(-F(1, 2) + eps, "S2"),
         vertical(F(1, 2) - eps, "S3"), vertical(F(1, 2) + eps, "S4")]
    l = horizontal(0, "L")
    assert gromov_width_rel(s, [l]) == 8 * eps
    # removing one obstruction does not shrink the width (monotone in Q)
    assert gromov_width_rel(s, []) >= gromov_width_rel(s, [l])
    # carrier contained in Q
    assert gromov_width_rel([s[0]], [vertical(-F(1, 2) - eps, "Q")]) == 0


def test_width_monotone_in_q():
    rng = random.Random(3)
    for _ in range(20):
        xs = sorted({F(rng.randint(-7, 7), 8) for _ in range(4)})
        if len(xs) < 3:
            continue
        carrier = [vertical(xs[0], "c")]
        q1 = [vertical(xs[1], "q1")]
        q2 = q1 + [vertical(xs[2], "q2")]
        assert gromov_width_rel(carrier, q2) <= gromov_width_rel(carrier, q1)


def test_width_double_points():
    eps = F(1, 8)
    l = horizontal(0, "L")
    s = [vertical(-F(1, 2) - eps, "S1"), vertical(-F(1, 2) + eps, "S2"),
         vertical(F(1, 2) - eps, "S3"), vertical(F(1, 2) + eps, "S4")]
    pts = [(-F(1, 2) - eps, 0), (-F(1, 2) + eps, 0),
           (F(1, 2) - eps, 0), (F(1, 2) + eps, 0)]
    # each point's nearest vertical lines are 2 eps and 1 - 2 eps away, and
    # L through it does not obstruct, so the least quadrant is 2 eps by 1
    val = gromov_width_double_points([l] + s, pts, q=[])
    assert val == ref_double_point_width([l] + s, pts, []) == 8 * eps
    assert gromov_width_double_points([l] + s, [], q=[]) >= INF
    # Sigma inside Q gives zero
    assert gromov_width_double_points(
        [l, s[0]], [(-F(1, 2) - eps, 0)], q=[horizontal(0, "Q")]) == 0


# -- shadows -------------------------------------------------------------------

def test_shadow_single_loop():
    d = PlanarDiagram()
    d.add_rect(0, 0, F(3, 2), F(2, 3))
    assert planar_shadow(d) == 1


def test_shadow_two_disjoint_lines():
    d = PlanarDiagram(rays=[((0, 0), -1), ((0, 0), 1),
                            ((0, 1), -1), ((0, 1), 1)])
    assert planar_shadow(d) == 0


def test_shadow_overlapping_rectangles():
    d = PlanarDiagram()
    d.add_rect(0, 0, 1, 1)
    d.add_rect(0, 0, 1, 1)
    assert planar_shadow(d) == 1
    d.add_rect(5, 0, 6, 2)
    assert planar_shadow(d) == 3


def test_shadow_nested_and_crossing():
    d = PlanarDiagram()
    d.add_rect(0, 0, 4, 4)
    d.add_rect(1, 1, 2, 2)
    assert planar_shadow(d) == 16
    d2 = PlanarDiagram()
    d2.add_rect(0, 0, 2, 2)
    d2.add_rect(1, 1, 3, 3)
    assert planar_shadow(d2) == 7


@pytest.mark.parametrize("lo, hi, shadow", [
    (F(1, 3), F(2, 3), 8),       # inside the triangle: a hole, subtracted
    (F(7, 3), F(8, 3), F(73, 9)),  # beside the hypotenuse: its own face
    (F(5, 3), F(7, 3), F(74, 9)),  # across the hypotenuse
])
def test_shadow_hole_against_a_slanted_edge(lo, hi, shadow):
    # the hole's probe is tested against the triangle, whose hypotenuse
    # is the one edge that is neither horizontal nor vertical
    d = PlanarDiagram()
    d.add_polyline([(0, 0), (4, 0), (0, 4), (0, 0)])
    d.add_rect(lo, lo, hi, hi)
    assert planar_shadow(d) == shadow


def test_shadow_with_rays_and_pocket():
    # a claw: two rays plus a rectangle pocket touching them
    d = PlanarDiagram(rays=[((0, 0), -1), ((0, 2), -1), ((3, 1), 1)])
    d.add_polyline([(0, 0), (2, 0), (2, 2), (0, 2)])
    d.add_polyline([(3, 1), (2, 1)])
    assert planar_shadow(d) == 0  # open channel to the left
    d.add_polyline([(0, 0), (0, 2)])  # close the pocket
    assert planar_shadow(d) == 4


def test_shadow_islands_beside_and_inside_a_pocket_of_rays():
    # the claw above, with a unit island in its pocket and one beside it:
    # while the pocket is open, the island in it lies in a face that
    # touches the box, so it is no hole of a bounded face and only the
    # islands count
    d = PlanarDiagram(rays=[((0, 0), -1), ((0, 2), -1), ((3, 1), 1)])
    d.add_polyline([(0, 0), (2, 0), (2, 2), (0, 2)])
    d.add_polyline([(3, 1), (2, 1)])
    d.add_rect(F(1, 2), F(1, 2), F(3, 2), F(3, 2))
    d.add_rect(4, 3, 5, 4)
    assert planar_shadow(d) == 2
    d.add_polyline([(0, 0), (0, 2)])  # close the pocket: the island in it
    assert planar_shadow(d) == 5      # is a hole of a bounded face


def test_shadow_three_nested_squares():
    d = PlanarDiagram()
    for lo, hi in ((0, 6), (1, 5), (2, 4)):
        d.add_rect(lo, lo, hi, hi)
    assert planar_shadow(d) == 36
    # beside a fourth square, apart from them
    d.add_rect(7, 0, 8, 1)
    assert planar_shadow(d) == 37


# corners on a grid of denominators 1, 2 and 3
GRID = sorted({F(n, d) for d in (1, 2, 3) for n in range(-3 * d, 3 * d + 1)})


@st.composite
def rect_sets(draw):
    """1-6 rectangles, as index quadruples into GRID: each one free,
    nested in an earlier one (sides may be shared), moved from one by a
    few grid steps (overlapping, touching or apart), or beside one along
    x (sharing its right edge or a few steps off)."""
    idx = st.integers(0, len(GRID) - 1)
    rects = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["free", "nested", "moved", "beside"]
                                    if rects else ["free"]))
        if kind == "free":
            x0, x1 = sorted(draw(st.sets(idx, min_size=2, max_size=2)))
            y0, y1 = sorted(draw(st.sets(idx, min_size=2, max_size=2)))
        else:
            a0, b0, a1, b1 = draw(st.sampled_from(rects))
            if kind == "nested":
                x0, x1 = sorted(draw(st.sets(st.integers(a0, a1),
                                             min_size=2, max_size=2)))
                y0, y1 = sorted(draw(st.sets(st.integers(b0, b1),
                                             min_size=2, max_size=2)))
            elif kind == "moved":
                dx, dy = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
                x0, y0, x1, y1 = a0 + dx, b0 + dy, a1 + dx, b1 + dy
            else:
                gap = draw(st.integers(0, 3))
                x0, y0, x1, y1 = a1 + gap, b0, a1 + gap + (a1 - a0), b1
        assume(0 <= min(x0, y0) and max(x1, y1) < len(GRID))
        rects.append((x0, y0, x1, y1))
    return [tuple(GRID[i] for i in r) for r in rects]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rect_sets())
# a frame of four rectangles around an uncovered pocket, with an island
# in it
@example([(F(-3), F(-3), F(3), F(-2)), (F(-3), F(2), F(3), F(3)),
          (F(-3), F(-3), F(-2), F(3)), (F(2), F(-3), F(3), F(3)),
          (F(-1, 2), F(-1, 3), F(1, 3), F(1, 2))])
def test_shadow_of_rectangles_is_the_area_they_enclose(rects):
    d = PlanarDiagram()
    for r in rects:
        d.add_rect(*r)
    assert planar_shadow(d) == ref_rect_union_area(rects)


def test_shear_invariance():
    base = PlanarDiagram(rays=[((0, 0), -1), ((4, 3), 1)])
    base.add_rect(0, 0, 2, F(3, 2))
    base.add_polyline([(2, F(3, 2)), (4, 3)])
    area0 = planar_shadow(base)
    assert area0 == 3
    for k in range(10):
        lam = F(k - 5, 4)
        assert planar_shadow(shear_diagram(base, lam)) == area0


def test_parse_diagram_roundtrip():
    text = """
strip -10 10
poly (0,0) (1,0) (1,1) (0,1) (0,0)
end left y=2 x=0
end right y=2 x=1
"""
    d = parse_diagram(text)
    assert planar_shadow(d) == 1


def test_svg_outputs():
    l = horizontal(0)
    s = vertical(F(-1, 2))
    svg = curves_to_svg({"L": l, "S": s})
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    d = PlanarDiagram(rays=[((0, 0), -1)])
    d.add_rect(0, 0, 1, 1)
    out = diagram_to_svg(d)
    assert "<svg" in out
