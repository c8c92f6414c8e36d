"""The strand table of ``widths`` against ``support.ref_gromov_width_rel``,
which gathers every strand's obstacles afresh: on random axis-parallel
pools and on the cases the table has to get right by construction."""

import itertools
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from filtcones.surface.curves import GeometryError, TorusCurve
from filtcones.surface.widths import StrandTable, gromov_width_rel

from support import ref_gromov_width_rel

# quarters and thirds, -1 and 1 included: lines often coincide, a line
# drawn at x = 1 wraps to x = -1, and a table meets finer denominators
GRID = sorted({F(n, 4) for n in range(-4, 5)} | {F(n, 3) for n in range(-3, 4)})


def _line(axis, c, name=""):
    pts = [(c, -1), (c, 1)] if axis == "v" else [(-1, c), (1, c)]
    return TorusCurve(pts, name=name)


def _jog(axis, c, x0, x1, d, name=""):
    """A line at c with one rectangular detour to d over [x0, x1];
    transposed for axis "v"."""
    pts = [(-1, c), (x0, c), (x0, d), (x1, d), (x1, c), (1, c)]
    if axis == "v":
        pts = [(y, x) for x, y in pts]
    return TorusCurve(pts, name=name)


@st.composite
def axis_curves(draw):
    axis = draw(st.sampled_from("vh"))
    c = draw(st.sampled_from(GRID))
    if draw(st.booleans()):
        return _line(axis, c)
    x0, x1 = sorted(draw(st.lists(st.sampled_from(GRID[1:-1]), min_size=2,
                                  max_size=2, unique=True)))
    d = draw(st.sampled_from([g for g in GRID if 0 < abs(g - c) < 2]))
    return _jog(axis, c, x0, x1, d)


def _agree(carrier, pool):
    """The table of ``carrier`` at the lcm frame of the curves' scales and
    at six times that frame, each queried for every subset of ``pool`` in
    turn (its columns kept between queries, its integer width divided by
    the frame squared), and a fresh table per query all give the
    reference width; returns the widths."""
    frame = lcm(*(c.scale for c in (*carrier, *pool)))
    tables = [StrandTable(carrier, frame), StrandTable(carrier, 6 * frame)]
    out = []
    for r in range(len(pool) + 1):
        for q in itertools.combinations(pool, r):
            want = ref_gromov_width_rel(carrier, q)
            for table in tables:
                assert F(table.width(q), table.scale ** 2) == want, \
                    (carrier, q, table.scale)
            assert gromov_width_rel(carrier, list(q) + list(q[:1])) == want
            out.append(want)
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(axis_curves(), min_size=1, max_size=3),
       st.lists(axis_curves(), max_size=4), st.data())
def test_strand_table_matches_reference_on_random_pools(carrier, pool, data):
    # Q may hold carrier curves themselves: every strand then rides on Q
    shared = data.draw(st.lists(st.sampled_from(carrier), max_size=1))
    _agree(carrier, pool + shared)


def test_strand_table_edge_cases():
    s1, s1_again, mid = _line("v", F(-1, 2)), _line("v", F(-1, 2)), \
        _line("v", F(0))
    # no obstacles at all: the free strips share the side, gap 1
    assert _agree([s1], []) == [4]
    # coincident carrier strands do not obstruct each other; a Q line on
    # them leaves no usable strand
    assert _agree([s1, s1_again], [s1_again, mid]) == [4, 0, 2, 0]
    # the wrap: x = 1 is x = -1, and -7/8 and 7/8 are 1/4 apart
    wrapped, edge = _line("v", F(1)), _line("v", F(-1))
    assert _agree([edge], [wrapped]) == [4, 0]
    assert _agree([_line("v", F(-7, 8))], [_line("v", F(7, 8))]) == [4, 1]
    # a jog: its long strand (y = 0, length 3/2) rides on the first Q
    # line and is squeezed to a gap of 1/4 by the second
    jog = _jog("h", F(0), F(-1, 4), F(1, 4), F(1, 2))
    assert _agree([jog], [_line("h", F(0)), _line("h", F(1, 4))]) == [
        F(3, 2), F(1, 2), F(3, 4), F(1, 2)]


def test_strand_table_refuses_general_position():
    diagonal = TorusCurve([(-1, -1), (1, 1)])
    with pytest.raises(GeometryError):
        StrandTable([diagonal], 1)
    with pytest.raises(GeometryError):
        StrandTable([_line("v", F(0))], 1).width([diagonal])


def test_strand_table_refuses_a_curve_off_its_frame():
    # a line on thirds does not fit a table on quarters, as carrier or as
    # an obstruction; its own frame, or any multiple of it, serves
    quarter, third = _line("v", F(1, 4)), _line("v", F(1, 3))
    with pytest.raises(GeometryError, match="does not fit the frame 4"):
        StrandTable([third], 4)
    table = StrandTable([quarter], 4)
    with pytest.raises(GeometryError, match="does not fit the frame 4"):
        table.width([third])
    assert table.width([quarter]) == 0
    assert F(StrandTable([quarter], 12).width([third]), 12 ** 2) == \
        ref_gromov_width_rel([quarter], [third]) == F(1, 3)
