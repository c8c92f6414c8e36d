"""The segment-pair enumerator, the integer geometry kernel and the
geometry built on them, checked against all-pairs scans that send every
pair to the Fraction contact predicate of ``support.ref_seg_common``."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from filtcones.scenarios import (
    connected_small_shadow_footprint, disjoint_union_space, lem_ex1_space,
    trace_surgery_space,
)
from filtcones.surface import floer, shadow
from filtcones.surface.curves import (
    GeometryError, TorusCurve, _seg_common, common_scale,
    count_transverse_crossings, crossings, intersections, scaled,
    segment_pairs, wrap_point,
)
from filtcones.surface.shadow import PlanarDiagram, planar_shadow

from support import (
    polygon_simple, ref_atomic_segments, ref_crossings, ref_is_embedded,
    ref_polygon_simple, ref_seg_common, ref_signed_area, ref_wrap_point,
    shear_diagram,
)

# -- the enumerator on random segments ------------------------------------------

COORD = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
KINDS = ["free", "vertical", "horizontal", "collinear", "shared", "touch",
         "translate"]


@st.composite
def segment_lists(draw, coord=COORD):
    """Rational segments, many of them in special position relative to
    earlier ones: axis-parallel, collinear (overlapping, abutting or
    apart), sharing an endpoint, an axis-parallel segment starting on an
    earlier one, or an earlier one moved by a deck translate."""
    segs = []
    point = st.tuples(coord, coord)
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(KINDS if segs else KINDS[:3]))
        p = draw(point)
        if kind in ("collinear", "shared", "touch", "translate"):
            a, b = segs[draw(st.integers(0, len(segs) - 1))]
        if kind == "free":
            q = draw(point)
        elif kind == "vertical":
            q = (p[0], draw(coord))
        elif kind == "horizontal":
            q = (draw(coord), p[1])
        elif kind == "collinear":
            t0, t1 = (draw(st.builds(F, st.integers(-4, 8), st.just(4)))
                      for _ in range(2))
            p, q = ((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
                    for t in (t0, t1))
        elif kind == "shared":
            p = draw(st.sampled_from([a, b]))
            q = draw(point)
        elif kind == "touch":
            t = draw(st.builds(F, st.integers(0, 4), st.just(4)))
            p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            h = draw(coord)
            q = draw(st.sampled_from([(p[0], p[1] + h), (p[0] + h, p[1])]))
        else:
            dx, dy = (2 * draw(st.integers(-1, 1)) for _ in range(2))
            p, q = (a[0] + dx, a[1] + dy), (b[0] + dx, b[1] + dy)
        if p != q:
            segs.append((p, q))
    return segs


def _boxes_meet(s, t):
    (a, b), (c, d) = s, t
    return (min(a[0], b[0]) <= max(c[0], d[0])
            and min(c[0], d[0]) <= max(a[0], b[0])
            and min(a[1], b[1]) <= max(c[1], d[1])
            and min(c[1], d[1]) <= max(a[1], b[1]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(segment_lists(), segment_lists())
# equal left edges, within each list and across the two
@example([((F(0), F(0)), (F(2), F(1))), ((F(0), F(3)), (F(1), F(1)))],
         [((F(0), F(1)), (F(1), F(0))), ((F(0), F(3)), (F(0), F(4)))])
# zero-width and zero-height boxes: axis-parallel segments crossing,
# touching end to end and meeting at a tip
@example([((F(1), F(0)), (F(1), F(2))), ((F(0), F(1)), (F(2), F(1)))],
         [((F(1), F(2)), (F(1), F(3))), ((F(2), F(1)), (F(3), F(1))),
          ((F(1), F(1)), (F(1), F(1, 2)))])
# a right edge equal to another box's left edge, either way round
@example([((F(0), F(0)), (F(1), F(1))), ((F(1), F(1)), (F(2), F(0)))],
         [((F(1), F(0)), (F(3), F(1))), ((F(-1), F(0)), (F(0), F(0)))])
def test_segment_pairs_yields_every_contact(segs, others):
    within = [(i, j) for i in range(len(segs))
              for j in range(i + 1, len(segs))]
    across = [(i, j) for i in range(len(segs)) for j in range(len(others))]
    for got, candidates, second in ((segment_pairs(segs), within, segs),
                                    (segment_pairs(segs, others), across,
                                     others)):
        assert sorted(got) == [(i, j) for i, j in candidates
                               if _boxes_meet(segs[i], second[j])]
        contacts = {(i, j) for i, j in candidates
                    if ref_seg_common(*segs[i], *second[j]) is not None}
        assert contacts <= set(got)


# -- the integer kernel against the Fraction division form ---------------------

# pairwise coprime, so a list's common scale grows with every new one
DENOMS = [1, 3, 7, 29, 64, 125, 1009, 8999, 9973]
BIG_COORD = st.sampled_from(DENOMS).flatmap(
    lambda d: st.builds(F, st.integers(-3 * d, 3 * d), st.just(d)))


def _unscaled(hit, q):
    """A kernel contact with its point divided by the scale q."""
    if hit is None or hit[0] == "overlap":
        return hit
    return ("point", (F(hit[1][0], q), F(hit[1][1], q)), hit[2])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(segment_lists(BIG_COORD))
def test_integer_contact_matches_the_division_form(segs):
    q = common_scale([p for seg in segs for p in seg])
    ints = [tuple(scaled(seg, q)) for seg in segs]
    assert all(isinstance(c, int) for seg in ints for p in seg for c in p)
    for i in range(len(segs)):
        for j in range(len(segs)):
            got = _seg_common(*ints[i], *ints[j])
            assert _unscaled(got, q) == ref_seg_common(*segs[i], *segs[j])


# odd and even denominators, negative values, integers and exactly +-1
RATIONAL = st.one_of(
    st.sampled_from([F(1), F(-1), F(0), F(2), F(-2), F(-3)]),
    st.builds(F, st.integers(-9, 9)),
    st.builds(F, st.integers(-90, 90), st.sampled_from([3, 5, 7, 29, 8999])),
    st.builds(F, st.integers(-90, 90), st.integers(1, 64)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(RATIONAL, RATIONAL), min_size=1, max_size=5),
       st.sampled_from([(1, 0), (0, -1), (1, 1), (-2, 3)]))
def test_wrap_point_and_integer_lift_match_the_fraction_forms(pts, cls):
    for p in pts:
        got = wrap_point(p)
        assert got == ref_wrap_point(p)
        assert all(type(c) is F for c in got)
    path = pts + [(pts[0][0] + 2 * cls[0], pts[0][1] + 2 * cls[1])]
    assume(all(a != b for a, b in zip(path, path[1:])))
    curve = TorusCurve(path, check_embedded=False)
    assert curve.hclass == cls
    assert [(F(x, curve.scale), F(y, curve.scale))
            for x, y in curve.int_lift] == curve.vertices + [curve.closure]


@st.composite
def closed_paths(draw):
    """Closed rational paths (first == last) with no repeated consecutive
    vertex: vertices in drawn order, some steps axis-parallel and some
    part way back along the last step, or the same vertices as an
    x-monotone polygon, which is simple."""
    pts = [(draw(BIG_COORD), draw(BIG_COORD))]
    for _ in range(draw(st.integers(2, 7))):
        step = draw(st.sampled_from(["free", "vertical", "horizontal",
                                     "back"]))
        x, y = pts[-1]
        if step == "free":
            pts.append((draw(BIG_COORD), draw(BIG_COORD)))
        elif step == "vertical":
            pts.append((x, draw(BIG_COORD)))
        elif step == "horizontal":
            pts.append((draw(BIG_COORD), y))
        elif len(pts) > 1:  # part way back along the last step
            t = draw(st.builds(F, st.integers(1, 3), st.just(4)))
            a = pts[-2]
            pts.append((x + t * (a[0] - x), y + t * (a[1] - y)))
    if draw(st.booleans()):
        # the vertices above the line from the least to the greatest
        # point, ascending, then the rest descending
        a, b = min(pts), max(pts)
        above = {p for p in pts if (b[0] - a[0]) * (p[1] - a[1])
                 > (b[1] - a[1]) * (p[0] - a[0])}
        pts = sorted(above) + sorted(set(pts) - above, reverse=True)
    path = [p for k, p in enumerate(pts) if k == 0 or p != pts[k - 1]]
    while len(path) > 1 and path[-1] == path[0]:
        path.pop()
    return path + [path[0]]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(closed_paths())
def test_polygon_predicates_match_fraction_references(path):
    q = common_scale(path)
    assert F(floer._shoelace(scaled(path, q)), 2 * q * q) == \
        ref_signed_area(path)
    assert polygon_simple(path) == ref_polygon_simple(path)


# -- the callers against all-pairs scans ---------------------------------------

def _floer_sanity_pool():
    """The curves of the acceptance Floer-sanity suite."""
    y, x0, x1 = F(1, 4), F(-1, 4), F(1, 4)

    def jog(dp, name):
        return TorusCurve([(-1, y), (x0, y), (x0, y - dp), (x1, y - dp),
                           (x1, y), (1, y)], name=name)

    w = x1 - x0
    return [
        TorusCurve([(-1, 0), (1, 0)], name="L"),
        TorusCurve([(F(-1, 2), -1), (F(-1, 2), 1)], name="S"),
        TorusCurve([(-1, F(1, 2)), (1, F(1, 2))], name="N"),
        jog(F(1, 2), "M1"), jog((2 - w) * y / w + y, "M2"),
        TorusCurve([(-1, y), (F(-3, 4), y), (F(-3, 4), -y), (F(-1, 2), -y),
                    (F(-1, 2), y), (0, y), (0, -y), (F(1, 4), -y),
                    (F(1, 4), y), (1, y)], name="W4"),
        TorusCurve([(F(1, 8), -1), (F(1, 8), 1)], name="S2"),
    ]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GeometryError as exc:
        return ("GeometryError", str(exc))


def _space_pool(build, eps, delta):
    return list(build(eps, delta).curves.values())


def _probe_pool():
    """The trace-surgery curves and the three N_t of its probe."""
    space = trace_surgery_space(F(1, 8), F(1, 256))
    probe = space.probes[0]
    return list(space.curves.values()) + [probe.build(t)
                                          for t in probe.samples]


# the lift of L' spans two squares; at (1/64, 1/8193) and (3/29, 1/8999)
# the surgered curves have scales above 10^6 and close strands
POOLS = {
    "floer-sanity": _floer_sanity_pool,
    "lem-ex1": lambda: _space_pool(lem_ex1_space, F(1, 8), F(1, 256)),
    "trace": lambda: _space_pool(trace_surgery_space, F(1, 8), F(1, 256)),
    "lem-ex1-eps1_64": lambda: _space_pool(lem_ex1_space, F(1, 64),
                                           F(1, 8193)),
    "trace-eps1_64": lambda: _space_pool(trace_surgery_space, F(1, 64),
                                         F(1, 8193)),
    "lem-ex1-eps3_29": lambda: _space_pool(lem_ex1_space, F(3, 29),
                                           F(1, 8999)),
    "trace-eps3_29": lambda: _space_pool(trace_surgery_space, F(3, 29),
                                         F(1, 8999)),
    "trace-probe": _probe_pool,
    # contacts on the edge of a path's box: tips touching lines through
    # the tips, both ways round
    "box-touch": lambda: [
        TorusCurve([(0, -1), (0, 0), (F(1, 2), F(1, 4)), (0, F(1, 2)),
                    (0, 1)], name="tip-x"),
        TorusCurve([(F(1, 2), -1), (F(1, 2), 1)], name="line-x"),
        TorusCurve([(-1, 0), (0, 0), (F(1, 4), F(1, 2)), (F(1, 2), 0),
                    (1, 0)], name="tip-y"),
        TorusCurve([(-1, F(1, 2)), (1, F(1, 2))], name="line-y")],
}


@pytest.mark.parametrize("suite", list(POOLS))
def test_curve_geometry_matches_all_pairs_scan(suite):
    pool = POOLS[suite]()
    # a self-crossing curve, accepted without the embedding check
    pool.append(TorusCurve([(0, 0), (1, 0), (1, 1), (F(1, 2), 1),
                            (F(1, 2), -1), (2, -1), (2, 0)],
                           name="eight", check_embedded=False))
    # a curve that crosses itself through a vertex, where two edges touch
    # an edge that neither follows
    pool.append(TorusCurve([(-1, 0), (F(1, 2), 0), (F(1, 2), F(1, 2)),
                            (0, F(1, 2)), (0, 0), (0, F(-1, 2)),
                            (F(3, 4), F(-1, 2)), (F(3, 4), 0), (1, 0)],
                           name="pinch", check_embedded=False))
    embedded = [c.is_embedded() for c in pool]
    assert embedded == [ref_is_embedded(c) for c in pool]
    assert embedded.count(False) == 2
    transverse = 0
    for c1 in pool:
        for c2 in pool:
            if c1 is c2:
                continue
            got = _outcome(intersections, c1, c2)
            assert got == _outcome(ref_crossings, c1, c2, False)
            transverse += isinstance(got, list)
            # hf_rank refuses exactly the pairs that intersections does,
            # with the same text
            rank = _outcome(floer.hf_rank, c1, c2)
            assert (rank if isinstance(rank, tuple) else None) == \
                (None if isinstance(got, list) else got)
            assert count_transverse_crossings(c1, c2) == \
                len(ref_crossings(c1, c2, True))
    if suite == "floer-sanity":
        assert transverse >= 34


def _diagrams():
    eps, delta = F(1, 8), F(1, 256)
    moves = (lem_ex1_space(eps, delta).moves
             + trace_surgery_space(eps, delta).moves
             + disjoint_union_space(eps).moves)
    out = [mv.footprint for mv in moves]
    out.append(connected_small_shadow_footprint(eps))
    out.append(shear_diagram(out[-1], F(1, 3)))
    grid = PlanarDiagram(rays=[((0, 0), -1), ((3, 1), 1)])
    for x0, y0, x1, y1 in [(0, 0, 2, 1), (1, 0, 3, 2), (1, 1, 2, 3),
                           (F(1, 2), F(-1, 2), F(3, 2), 0)]:
        grid.add_rect(x0, y0, x1, y1)
    grid.add_polyline([(0, 3), (3, 0)])
    out.append(grid)
    # a bowtie whose diagonals cross at (3/2, 1/2), off the integer grid
    # of its segments
    out.append(PlanarDiagram([((0, 0), (3, 1)), ((0, 1), (3, 0)),
                              ((0, 0), (0, 1)), ((3, 0), (3, 1))]))
    return out


def _ref_atomic_at_one_scale(segments):
    """``ref_atomic_segments`` in the form of ``shadow._atomic_segments``:
    the integer segments, read as Fraction points, split; the edges times
    the common scale of their endpoints, and that scale."""
    edges = ref_atomic_segments([tuple((F(x), F(y)) for x, y in seg)
                                 for seg in segments])
    q = common_scale([p for e in edges for p in e])
    return {tuple(scaled(e, q)) for e in edges}, q


def _faces(diagram):
    """``planar_shadow(diagram, return_faces=True)`` up to the order of
    the faces and the starting half-edge of each face cycle."""
    total, faces = planar_shadow(diagram, return_faces=True)
    return total, sorted((area, min(cycle[i:] + cycle[:i]
                                    for i in range(len(cycle))))
                         for area, cycle in faces)


def test_planar_shadow_matches_all_pairs_scan(monkeypatch):
    diagrams = _diagrams()
    got = [_faces(d) for d in diagrams]
    monkeypatch.setattr(shadow, "_atomic_segments", _ref_atomic_at_one_scale)
    assert got == [_faces(d) for d in diagrams]
    assert any(total > 0 for total, _ in got)
    assert got[-1][0] == F(3, 2)


def _wrap(p):
    return tuple((c + 1) % 2 - 1 for c in p)


def _strictly_inside(a, b, p):
    """p lies on the open segment (a, b): exactly collinear, inside the
    closed box of the segment, and neither endpoint."""
    collinear = (b[0] - a[0]) * (p[1] - a[1]) == (b[1] - a[1]) * (p[0] - a[0])
    in_box = (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
              and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))
    return collinear and in_box and p not in (a, b)


@pytest.mark.parametrize("suite", ["floer-sanity", "lem-ex1", "trace"])
def test_crossing_records_match_their_curves(suite):
    pool = POOLS[suite]()
    records = 0
    for c1 in pool:
        for c2 in pool:
            if c1 is c2:
                continue
            got = _outcome(crossings, c1, c2)
            if not isinstance(got, list):
                assert got == _outcome(intersections, c1, c2)
                continue
            assert [r.point for r in got] == intersections(c1, c2)
            for r in got:
                tangents = []
                for curve, (i, lift) in zip((c1, c2), r.ends):
                    a, b = curve.edges()[i]
                    assert _strictly_inside(a, b, lift)
                    assert _wrap(lift) == r.point
                    tangents.append((b[0] - a[0], b[1] - a[1]))
                (x1, y1), (x2, y2) = tangents
                det = x1 * y2 - y1 * x2
                assert r.sign == (1 if det > 0 else -1) and det != 0
            records += len(got)
    assert records > 0
