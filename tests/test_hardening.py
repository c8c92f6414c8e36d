"""Adversarial exactness checks: odd denominators, negative actions,
threshold-exact robustness, and deeper oracle agreement."""

import random
from fractions import Fraction as F

import pytest

from filtcones.novikov import INF, NovikovScalar
from filtcones.filtcx import (
    FiltError, FilteredComplex, action_level, boundary_depth_elem,
    boundary_level, chain_add, delta_d,
    is_delta_robust, parse_chain, parse_complex,
)

from support import chain_scale, oracle_boundary_level, random_boundary, \
    random_chain, random_complex
from test_fragmetric import check_triangle


def nov(exps, cutoff=64):
    return NovikovScalar(exps, cutoff)


def test_oracle_agreement_odd_denominators():
    rng = random.Random(424242)
    checked = 0
    while checked < 60:
        qden = rng.choice([2, 3, 5, 6])
        cx = random_complex(rng, n=rng.randint(2, 5), qden=qden)
        b = random_chain(rng, cx, qden=qden)
        c = cx.d(b)
        if not c:
            continue
        assert boundary_level(c, cx) == oracle_boundary_level(c, cx)
        checked += 1


def test_oracle_agreement_negative_actions():
    rng = random.Random(777)
    checked = 0
    while checked < 40:
        cx = random_complex(rng, n=rng.randint(2, 5))
        shift = F(rng.randint(-9, -1), 2)
        cx2 = cx.shift_actions(shift)
        b = random_chain(rng, cx2)
        c = cx2.d(b)
        if not c:
            continue
        got = boundary_level(c, cx2)
        assert got == oracle_boundary_level(c, cx2)
        # uniform shifts move levels by exactly the shift
        c_orig = {g: s for g, s in c.items()}
        assert boundary_level(c_orig, cx) == got - shift
        checked += 1


def test_boundary_level_negative_exponent_queries():
    s = F(2, 3)
    cx = FilteredComplex(["b", "x"], {"b": 0, "x": 0},
                         {"b": {"x": nov([s])}, "x": {}}, 64)
    for e in (F(-5), F(-1, 3), F(7, 3)):
        c = {"x": nov([e])}
        assert boundary_level(c, cx) == s - e
        assert boundary_depth_elem(c, cx) == s


def test_robustness_threshold_is_sharp():
    rng = random.Random(31)
    for _ in range(30):
        qden = rng.choice([2, 3, 4])
        n = rng.randint(2, 3)
        gens, action, diff = [], {}, {}
        drops = []
        for i in range(n):
            b, x = f"b{i}", f"x{i}"
            gens += [b, x]
            action[b] = F(rng.randint(0, 4), qden)
            action[x] = action[b]
            drop = F(rng.randint(1, 3 * qden), qden)
            drops.append(drop)
            diff[b] = {x: nov([drop])}
            diff[x] = {}
        cx = FilteredComplex(gens, action, diff, 64)
        V = [{f"x{i}": nov([0])} for i in range(n)]
        m = min(drops)
        step = F(1, qden)
        assert cx.grid(V).min_beta_over_span(V) == m
        assert is_delta_robust(V, m, cx)
        assert not is_delta_robust(V, m + step, cx)


def test_min_beta_spans_with_mixing_automorphism():
    # conjugated bar complexes: minima must agree with the bar drops
    rng = random.Random(99)
    hits = 0
    for _ in range(40):
        cx = random_complex(rng, n=rng.randint(3, 5))
        bs = []
        for _ in range(3):
            c, _ = random_boundary(rng, cx)
            if c:
                bs.append(c)
        if not bs:
            continue
        grid = cx.grid(bs)
        m = grid.min_beta_over_span(bs)
        for _ in range(20):
            combo = {}
            for b in bs:
                lam = NovikovScalar(
                    {F(rng.randint(0, 8), 2) for _ in range(rng.randint(0, 2))},
                    cx.cutoff)
                combo = chain_add(combo, chain_scale(lam, b))
            if combo:
                beta = boundary_level(combo, cx) - action_level(combo, cx)
                assert beta >= m
        hits += 1
    assert hits >= 25


def test_floer_four_point_curve():
    from filtcones.surface.curves import TorusCurve, intersections
    from filtcones.surface.floer import floer_complex, hf_rank
    # two rectangular dips: four transverse crossings with the base circle
    y = F(1, 4)
    m = TorusCurve([(-1, y), (F(-3, 4), y), (F(-3, 4), -y), (F(-1, 2), -y),
                    (F(-1, 2), y), (0, y), (0, -y), (F(1, 4), -y),
                    (F(1, 4), y), (1, y)], name="W")
    l = TorusCurve([(-1, 0), (1, 0)], name="L")
    assert len(intersections(m, l)) == 4
    cx = floer_complex(m, l)   # validates d^2 = 0 exactly
    rank = hf_rank(m, l)
    assert rank in (0, 2, 4)
    assert rank % 2 == len(intersections(m, l)) % 2


def test_triangle_inequality_across_trace_space():
    from filtcones.scenarios import trace_surgery_space
    sp = trace_surgery_space(F(1, 8), F(1, 256))
    assert check_triangle(sp, "F",
                          [("L''", "L", "L"), ("L''", "L''", "L")],
                          [(1, 0), (0, 1), (1, 1)])


def test_beta_geq_delta_d_odd_denominators():
    rng = random.Random(13)
    for _ in range(40):
        qden = rng.choice([3, 5])
        cx = random_complex(rng, n=4, qden=qden)
        c, _ = random_boundary(rng, cx, qden=qden)
        if not c:
            continue
        assert boundary_depth_elem(c, cx) >= delta_d(cx)


# -- exact boundary levels where a bounded monomial window went wrong ----------


def test_primitive_a_full_depth_above_the_chain():
    cx = parse_complex("gen g0 action 4/3\ngen g1 action 4/3\n"
                       "d g1 = T^4/3*g0\n")
    c = parse_chain("T^-5/3*g0 + T^10/3*g0", 64)
    # the primitive T^-3*g1 + T^2*g1 sits at 13/3, 4/3 above A(c) = 3
    assert boundary_level(c, cx) == F(13, 3)
    assert oracle_boundary_level(c, cx) == F(13, 3)


def test_levels_shift_with_the_chain_far_below_the_actions():
    cx = parse_complex("gen g0 action 1\ngen g1 action 3/2\ngen g2 action 1\n"
                       "gen g3 action 1\nd g1 = T^1/2*g0\n"
                       "d g2 = T^0*g0 + T^1*g3\n")
    v = parse_chain("T^4*g0 + T^9/2*g0 + T^5*g3", 64)
    b = boundary_level(v, cx)
    assert b == F(-5, 2)
    assert oracle_boundary_level(chain_scale(nov([12]), v), cx) == F(-29, 2)
    for s in range(-20, 21):
        assert boundary_level(chain_scale(nov([s]), v), cx) == b - s
    assert boundary_depth_elem(v, cx) == F(1, 2)
    assert cx.grid([v]).min_beta_over_span([v]) == F(1, 2)
    assert is_delta_robust([v], F(1, 2), cx)
    assert not is_delta_robust([v], F(3, 4), cx)


def test_a_boundary_past_the_cutoff_is_no_boundary():
    # d(T^127/2*g1) has its terms at and past the cutoff 64: they still
    # count, so it is no cycle and bounds nothing
    cx = parse_complex("gen g0 action 1\ngen g1 action 0\ngen g2 action 0\n"
                       "gen g3 action 2\ngen g4 action 2\n"
                       "d g0 = T^0*g1 + T^1*g2 + T^3*g3\n"
                       "d g1 = T^6*g3 + T^7*g4\nd g3 = T^3*g3 + T^4*g4\n"
                       "d g4 = T^2*g3 + T^3*g4\n")
    w = parse_chain("T^127/2*g1", 64)
    assert not cx.is_cycle(w)
    with pytest.raises(FiltError, match="requires a cycle"):
        boundary_level(w, cx)
    assert oracle_boundary_level(w, cx) == INF


def test_d_squared_past_the_cutoff_is_refused():
    # d^2 a = T^80*c, past the cutoff 64 but not zero
    with pytest.raises(FiltError, match="d\\^2 != 0 at generator a"):
        parse_complex("gen a action 0\ngen b action 0\ngen c action 0\n"
                      "d a = T^40*b\nd b = T^40*c\n")
