"""The combinatorial polygon walk of ``floer`` against the arc-pair brute
force of ``support.ref_enumerate_bigons`` and ``ref_mu2_triangles``, and
``hf_rank`` (classes and flux) against ``ref_hf_rank`` and the homology
of the walk's complex, on random curves, the scenario pools, the probe
curves and straight and bent curves of slanted classes, plus the zigzag
family whose bigon count is known in closed form; the probes' quadrant
capacities against ``ref_double_point_width``."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from filtcones.filtcx import homology_rank
from filtcones.novikov import points
from filtcones.scenarios import lem_ex1_space, trace_surgery_space
from filtcones.surface.curves import GeometryError, TorusCurve, crossings
from filtcones.surface.floer import enumerate_bigons, floer_complex, \
    hf_rank, mu2_triangles
from filtcones.surface.widths import gromov_width_double_points

from support import ref_double_point_width, ref_enumerate_bigons, \
    ref_hf_rank, ref_mu2_triangles
from test_segment_pairs import _floer_sanity_pool, _outcome

EPS, DELTA = F(1, 8), F(1, 256)


def _bigons(fn, a, b):
    got = _outcome(fn, a, b)
    if isinstance(got, tuple):
        return got
    return sorted((p, q, area, tuple(loop)) for p, q, area, loop in got)


def _agree(a, b):
    """The walk and the brute force give the same bigons (corners, area
    and loop) or the same refusal; returns the bigon count."""
    got = _bigons(enumerate_bigons, a, b)
    assert got == _bigons(ref_enumerate_bigons, a, b)
    return len(got) if isinstance(got, list) else 0


# -- random curves ---------------------------------------------------------------

DENS = [16, 17, 19, 23]


def _coord(draw, den, lo=-1, hi=1):
    """An odd multiple of 1/(2 den) strictly between lo and hi."""
    return F(2 * draw(st.integers(lo * den, hi * den - 1)) + 1, 2 * den)


@st.composite
def jog_curves(draw, den):
    """A horizontal curve (class (1, 0)) with rectangular dips and bumps."""
    y = _coord(draw, den)
    xs = sorted({_coord(draw, den) for _ in range(draw(st.integers(0, 6)))})
    pts = [(-1, y)]
    for x0, x1 in zip(xs[::2], xs[1::2]):
        d = _coord(draw, den, -2, 2)
        pts += [(x0, y), (x0, y - d), (x1, y - d), (x1, y)]
    return TorusCurve(pts + [(1, y)], name="J")


@st.composite
def zigzag_curves(draw, den):
    """A y-monotone polyline from (x, -1) to (x, 1): class (0, 1)."""
    x = _coord(draw, den)
    ys = sorted({_coord(draw, den) for _ in range(draw(st.integers(1, 6)))})
    pts = [(x, -1)] + [(_coord(draw, den), y) for y in ys] + [(x, 1)]
    return TorusCurve(pts, name="Z")


@st.composite
def curve_lists(draw, kinds):
    """Curves of the given kinds (None: either kind), each on its own
    grid, so that two of them rarely meet at a vertex."""
    dens = draw(st.permutations(DENS))
    return [draw((kind or draw(st.sampled_from([jog_curves,
                                                zigzag_curves])))(den))
            for kind, den in zip(kinds, dens)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(curve_lists([None, None]))
def test_bigons_match_brute_force_on_random_curves(pair):
    _agree(*pair)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(curve_lists([None, None]))
def test_ranks_match_brute_force_on_random_curves(pair):
    a, b = pair
    recs = _outcome(crossings, a, b)
    # hf_rank refuses exactly the pairs that crossings does, with the
    # same text
    rank = _outcome(hf_rank, a, b)
    assert (rank if isinstance(rank, tuple) else None) == \
        (recs if isinstance(recs, tuple) else None)
    # A limit of the oracle, not of the rank: it expands determinants by
    # permutations, in time factorial in the rank of d (at most half the
    # crossing count), so pairs with more than 12 crossings are left out.
    assume(isinstance(recs, tuple) or len(recs) <= 12)
    assert rank == _outcome(ref_hf_rank, a, b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(curve_lists([jog_curves, zigzag_curves, jog_curves]))
def test_triangles_match_brute_force_on_random_curves(triple):
    assert _outcome(mu2_triangles, *triple) == \
        _outcome(ref_mu2_triangles, *triple)


# -- the scenario pools and the probe curves ----------------------------------------

def _pools():
    probe_space = trace_surgery_space(EPS, DELTA)
    probes = [probe_space.probes[0].build(t)
              for t in (F(1, 2), F(3, 4), F(9, 10))]
    return {"floer-sanity": _floer_sanity_pool(),
            "lem-ex1": list(lem_ex1_space(EPS, DELTA).curves.values()),
            "trace": list(probe_space.curves.values()),
            "probes": probes + list(probe_space.curves.values())}


@pytest.mark.parametrize("suite", ["floer-sanity", "lem-ex1", "trace",
                                   "probes"])
def test_bigons_match_brute_force_on_scenario_pools(suite):
    pool = _pools()[suite]
    bigons = sum(_agree(a, b) for a in pool for b in pool if a is not b)
    assert bigons > 0 or suite == "trace"  # no trace pair bounds one


def test_ranks_match_brute_force_on_scenario_pools():
    """On every ordered pair of the pools the rank equals the brute-force
    oracle's and the homology rank of the walk's complex, or both refuse;
    pairs whose crossings share one sign (no lune) and pairs with both
    signs both occur."""
    kinds = {True: 0, False: 0}
    for pool in _pools().values():
        for a in pool:
            for b in pool:
                if a is b:
                    continue
                got = _outcome(hf_rank, a, b)
                assert got == _outcome(ref_hf_rank, a, b)
                if isinstance(got, int):
                    assert got == homology_rank(floer_complex(a, b))
                    kinds[len({r.sign for r in crossings(a, b)}) < 2] += 1
    assert kinds[True] > 0 and kinds[False] > 0


@pytest.mark.parametrize("eps,delta", [(EPS, DELTA), (F(1, 10), F(1, 1000)),
                                       (F(3, 29), F(1, 8999))])
def test_probe_ranks_and_capacities_match_the_oracles(eps, delta):
    """At the probe's samples and at parameters between and past them,
    N_t has the oracle's Floer ranks against L (sign-pure) and S1
    (mixed), and its quadrant capacity at the double point is the
    oracle's, with and without N_t as an obstruction."""
    space = trace_surgery_space(eps, delta)
    probe = space.probes[0]
    system = [space.curves[n] for n in probe.system]
    for t in (F(1, 100), F(1, 4), F(1, 2), F(3, 4), F(9, 10), F(99, 100)):
        n_t = probe.build(t)
        signs = [{r.sign for r in crossings(n_t, c)} for c in system]
        assert [len(s) for s in signs] == [1, 2]
        assert [hf_rank(n_t, c) for c in system] == \
            [ref_hf_rank(n_t, c) for c in system]
        for q in ([], [n_t], [space.curves["S1"]]):
            got = gromov_width_double_points(system, probe.sigma_points, q)
            assert got == ref_double_point_width(system, probe.sigma_points,
                                                 q)
        assert gromov_width_double_points(
            system, probe.sigma_points, [n_t]) == 4 * probe.profile(t)


# -- ranks of slanted classes -----------------------------------------------------

def _ranks(a, b):
    """hf_rank, the brute-force oracle and the homology of the walk's
    complex."""
    return (hf_rank(a, b), ref_hf_rank(a, b),
            homology_rank(floer_complex(a, b)))


STRAIGHT = {(2, 1): TorusCurve([(-1, F(-3, 4)), (3, F(5, 4))], name="A"),
            (1, 2): TorusCurve([(F(-1, 3), -1), (F(5, 3), 3)], name="B"),
            (1, 0): TorusCurve([(-1, F(1, 5)), (1, F(1, 5))], name="H"),
            (0, 1): TorusCurve([(F(1, 7), -1), (F(1, 7), 1)], name="V")}


@pytest.mark.parametrize("h,k,rank", [((2, 1), (1, 2), 3),
                                      ((2, 1), (1, 0), 1),
                                      ((2, 1), (0, 1), 2),
                                      ((1, 2), (1, 0), 2),
                                      ((1, 2), (0, 1), 1)])
def test_straight_lines_of_different_classes_have_rank_det(h, k, rank):
    a, b = STRAIGHT[h], STRAIGHT[k]
    assert _ranks(a, b) == _ranks(b, a) == (rank,) * 3
    assert len(crossings(a, b)) == rank


def test_parallel_lines_apart_by_half_the_torus_have_rank_0():
    """y = x + 1/2 and y = x + 3/2 (class (1, 1)) bound a band of area 2:
    their F differ by 4, a multiple of 4 but not of 4|h|^2 = 8."""
    a = TorusCurve([(-1, F(-1, 2)), (1, F(3, 2))], name="X")
    b = TorusCurve([(-1, F(1, 2)), (1, F(5, 2))], name="Y")
    back = TorusCurve([(1, F(5, 2)), (-1, F(1, 2))], name="Y-")
    assert _ranks(a, b) == _ranks(a, back) == (0, 0, 0)


def _sheared_dip(depth, name):
    """The dipped horizontal circle of ``test_surface`` at y = 1/4, the
    dip 1/2 wide, sheared by (x, y) -> (x, y + x) into class (1, 1)."""
    pts = [(-1, F(1, 4)), (F(-1, 4), F(1, 4)), (F(-1, 4), F(1, 4) - depth),
           (F(1, 4), F(1, 4) - depth), (F(1, 4), F(1, 4)), (1, F(1, 4))]
    return TorusCurve([(x, y + x) for x, y in pts], name=name)


def test_zero_flux_class_11_pair_has_rank_2():
    """The dip of depth 1 cuts the band between the curve and y = x into
    two bigons of area 3/8 on either side: zero flux, rank 2 in either
    orientation; the dip of depth 1/2 leaves bigons of 1/8 and 3/8, rank
    0 with two crossings."""
    diag = TorusCurve([(-1, -1), (1, 1)], name="D")
    back = TorusCurve([(1, 1), (-1, -1)], name="D-")
    even, odd = _sheared_dip(1, "M"), _sheared_dip(F(1, 2), "M'")
    assert _ranks(even, diag) == _ranks(diag, even) == _ranks(even, back) \
        == (2, 2, 2)
    assert _ranks(odd, diag) == _ranks(odd, back) == (0, 0, 0)
    assert len(crossings(odd, diag)) == 2


def test_rank_of_a_pair_whose_complex_outgrows_the_elimination():
    """J (class (1, 0)) and Z (class (0, 1)) cross 7 times; the lune
    areas of their complex have denominators whose lcm has 36 bits, which
    ``homology_rank`` holds as bitmasks past any memory.  The rank is
    |det| = 1, as the brute-force oracle finds."""
    j = TorusCurve(points("(-1,-5/32) (1/32,-5/32) (1/32,25/16) "
                          "(23/32,25/16) (23/32,-5/32) (1,-5/32)"), name="J")
    z = TorusCurve(points("(-21/34,-1) (27/34,-33/34) (-11/34,-31/34) "
                          "(-33/34,-19/34) (23/34,25/34) (-21/34,1)"),
                   name="Z")
    assert len(crossings(j, z)) == 7
    assert hf_rank(j, z) == ref_hf_rank(j, z) == 1


@pytest.mark.parametrize("suite", ["floer-sanity", "lem-ex1"])
def test_triangles_match_brute_force_on_scenario_pools(suite):
    pool = _pools()[suite]
    compared = 0
    for a in pool:
        for b in pool:
            for c in pool:
                if len({id(a), id(b), id(c)}) < 3:
                    continue
                got = _outcome(mu2_triangles, a, b, c)
                classes = {a.hclass, b.hclass, c.hclass}
                if isinstance(got, tuple) and "exactly two" in got[1]:
                    assert len({max(h, (-h[0], -h[1])) for h in classes}) \
                        != 2  # refused only unless two agree up to sign
                    continue
                assert got == _outcome(ref_mu2_triangles, a, b, c)
                compared += 1
    assert compared > 0


def test_triangles_refuse_three_distinct_classes():
    """Three straight lines of pairwise distinct classes bound triangles
    of every size, a theta series; the walk refuses rather than cut it."""
    a = TorusCurve([(-1, 0), (1, 0)], name="A")
    b = TorusCurve([(F(-1, 2), -1), (F(-1, 2), 1)], name="B")
    c = TorusCurve([(-1, F(-1, 3)), (1, F(5, 3))], name="C")
    with pytest.raises(GeometryError, match="exactly two"):
        mu2_triangles(a, b, c)


# -- the zigzag family -----------------------------------------------------------

def zigzag(m):
    """The vertical zigzag with 2m + 1 crossings of the line y = 1/7."""
    k = 2 * m + 1
    pts = [(0, -1), (0, F(1, 4))]
    pts += [(F(i, k), F(-1, 4) if i % 2 else F(1, 4)) for i in range(1, 2 * m + 1)]
    pts += [(F(2 * m, k), F(1, 2)), (0, 1)]
    return TorusCurve(pts, name=f"Z{k}")


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
def test_zigzag_family_bigon_count(m):
    n = TorusCurve([(-1, F(1, 7)), (1, F(1, 7))], name="N")
    z = zigzag(m)
    bigons = enumerate_bigons(n, z)
    assert len(bigons) == 2 * m
    cx = floer_complex(n, z)  # d^2 = 0 is verified at construction
    assert cx.dim == 2 * m + 1
    if 2 * m + 1 <= 9:
        assert _bigons(enumerate_bigons, n, z) == \
            _bigons(ref_enumerate_bigons, n, z)


def spiral():
    """A class (0, 1) curve whose lift crosses y = 0 at -3/5 (B), 0 (A),
    1/10, 3/20, 1/5 (D), 3/5 (C) and 9/10, and runs A, B, C, D in that
    order: the arcs from A to D share no other crossing with the line,
    and the signs at A and D differ, but both corners are reflex."""
    pts = [(16, -20), (16, -18), (2, -18), (2, 3), (0, 3), (0, -2), (-12, -2),
           (-12, 6), (12, 6), (12, -4), (4, -4), (4, 4), (3, 4), (3, -16),
           (18, -16), (18, 19), (16, 20)]
    return TorusCurve([(F(x, 20), F(y, 20)) for x, y in pts], name="spiral")


def test_reflex_corners_are_no_lune():
    n = TorusCurve([(-1, 0), (1, 0)], name="N")
    got = enumerate_bigons(n, spiral())
    assert ((0, 0), (F(1, 5), 0)) not in {(p, q) for p, q, _, _ in got}
    assert _bigons(enumerate_bigons, n, spiral()) == \
        _bigons(ref_enumerate_bigons, n, spiral())
