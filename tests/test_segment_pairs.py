"""The segment-pair enumerator and the geometry built on it, checked
against all-pairs scans that send every pair to the exact predicate."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from filtcones.scenarios import (
    connected_small_shadow_footprint, disjoint_union_space, lem_ex1_space,
    trace_surgery_space,
)
from filtcones.surface import (
    GeometryError, PlanarDiagram, TorusCurve, count_transverse_crossings,
    intersections, planar_shadow, shear_diagram,
)
from filtcones.surface import shadow
from filtcones.surface.curves import _seg_common, crossings, segment_pairs

from support import (
    ref_atomic_segments, ref_crossings, ref_is_embedded,
)

# -- the enumerator on random segments ------------------------------------------

COORD = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
POINT = st.tuples(COORD, COORD)
KINDS = ["free", "vertical", "horizontal", "collinear", "shared", "touch",
         "translate"]


@st.composite
def segment_lists(draw):
    """Rational segments, many of them in special position relative to
    earlier ones: axis-parallel, collinear (overlapping, abutting or
    apart), sharing an endpoint, an axis-parallel segment starting on an
    earlier one, or an earlier one moved by a deck translate."""
    segs = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(KINDS if segs else KINDS[:3]))
        p = draw(POINT)
        if kind in ("collinear", "shared", "touch", "translate"):
            a, b = segs[draw(st.integers(0, len(segs) - 1))]
        if kind == "free":
            q = draw(POINT)
        elif kind == "vertical":
            q = (p[0], draw(COORD))
        elif kind == "horizontal":
            q = (draw(COORD), p[1])
        elif kind == "collinear":
            t0, t1 = (draw(st.builds(F, st.integers(-4, 8), st.just(4)))
                      for _ in range(2))
            p, q = ((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
                    for t in (t0, t1))
        elif kind == "shared":
            p = draw(st.sampled_from([a, b]))
            q = draw(POINT)
        elif kind == "touch":
            t = draw(st.builds(F, st.integers(0, 4), st.just(4)))
            p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            h = draw(COORD)
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
                    if _seg_common(*segs[i], *second[j]) is not None}
        assert contacts <= set(got)


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


@pytest.mark.parametrize("suite", ["floer-sanity", "lem-ex1", "trace"])
def test_curve_geometry_matches_all_pairs_scan(suite):
    if suite == "floer-sanity":
        pool = _floer_sanity_pool()
    else:
        space = (lem_ex1_space if suite == "lem-ex1"
                 else trace_surgery_space)(F(1, 8), F(1, 256))
        pool = list(space.curves.values())
    # a self-crossing curve, accepted without the embedding check
    pool.append(TorusCurve([(0, 0), (1, 0), (1, 1), (F(1, 2), 1),
                            (F(1, 2), -1), (2, -1), (2, 0)],
                           name="eight", check_embedded=False))
    embedded = [c.is_embedded() for c in pool]
    assert embedded == [ref_is_embedded(c) for c in pool]
    assert embedded.count(False) == 1
    transverse = 0
    for c1 in pool:
        for c2 in pool:
            if c1 is c2:
                continue
            got = _outcome(intersections, c1, c2)
            assert got == _outcome(ref_crossings, c1, c2, False)
            transverse += isinstance(got, list)
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
    return out


def test_planar_shadow_matches_all_pairs_scan(monkeypatch):
    diagrams = _diagrams()
    got = [planar_shadow(d, return_faces=True) for d in diagrams]
    monkeypatch.setattr(shadow, "_atomic_segments", ref_atomic_segments)
    assert got == [planar_shadow(d, return_faces=True) for d in diagrams]
    assert any(total > 0 for total, _ in got)


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
    if suite == "floer-sanity":
        pool = _floer_sanity_pool()
    else:
        space = (lem_ex1_space if suite == "lem-ex1"
                 else trace_surgery_space)(F(1, 8), F(1, 256))
        pool = list(space.curves.values())
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
