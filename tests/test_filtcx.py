import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from filtcones.novikov import INF, NovikovScalar
from filtcones.filtcx import (
    FiltError, FilteredComplex, FilteredMap, NEG_INF, action_drop,
    action_level, boundary_depth_elem, boundary_depth_map, boundary_level,
    chain_add, chain_eq, chain_shift, check_injectivity_lemma, cycle_basis,
    delta_d, find_robust_subspace, hom_complex,
    homotopical_boundary_depth, homotopical_boundary_level, homology_rank,
    image_basis, is_delta_robust, map_to_chain, min_beta_subspace,
    orthonormal_basis, parse_chain, parse_complex, serialize_complex,
    verify_rig_cplx2,
)

from support import (
    oracle_boundary_level, random_boundary, random_chain, random_chain_map,
    random_complex,
)

CUT = 64


def nov(*exps):
    return NovikovScalar(exps, CUT)


def two_gen(s=Fraction(1, 2), a_b=0, a_x=0):
    """d(b) = T^s x with prescribed actions (s = action drop of d)."""
    return FilteredComplex(
        ["b", "x"],
        {"b": a_b, "x": a_x},
        {"b": {"x": nov(s)}, "x": {}},
        CUT,
    )


def test_action_level_examples():
    cx = two_gen()
    assert action_level({}, cx) == NEG_INF
    assert action_level({"x": nov(3)}, cx) == -3
    rng = random.Random(0)
    for _ in range(30):
        x = random_chain(rng, cx)
        y = random_chain(rng, cx)
        ax, ay = action_level(x, cx), action_level(y, cx)
        assert action_level(chain_add(x, y), cx) <= max(ax, ay)


def test_action_drop_examples():
    cx = two_gen(Fraction(3, 2))
    zero = FilteredMap.zero_map(cx, cx)
    assert action_drop(zero) == INF
    assert delta_d(cx) == Fraction(3, 2)
    assert action_drop(FilteredMap.identity(cx)) == 0


def test_boundary_level_examples():
    s = Fraction(1, 2)
    cx = two_gen(s)
    assert boundary_level({}, cx) == NEG_INF
    assert boundary_level({"x": nov(0)}, cx) == s
    # non-boundary cycle
    cx2 = FilteredComplex(["x"], {"x": 0}, {"x": {}}, CUT)
    assert boundary_level({"x": nov(0)}, cx2) == INF
    with pytest.raises(FiltError):
        boundary_level({"b": nov(0)}, cx)  # not a cycle


def test_boundary_depth_elem():
    s = Fraction(2, 3)
    cx = two_gen(s)
    assert boundary_depth_elem({"x": nov(0)}, cx) == s
    # boundary with a primitive of no extra action: d(b) = T^0 x after shift
    cx0 = two_gen(Fraction(0))
    assert boundary_depth_elem({"x": nov(0)}, cx0) == 0


def test_beta_geq_delta_d_random():
    rng = random.Random(5)
    for _ in range(40):
        cx = random_complex(rng, n=4)
        dd = delta_d(cx)
        c, _ = random_boundary(rng, cx)
        if not c:
            continue
        assert boundary_depth_elem(c, cx) >= dd


def test_boundary_level_matches_oracle_random():
    rng = random.Random(1)
    for _ in range(25):
        cx = random_complex(rng, n=rng.randint(2, 5))
        c, _ = random_boundary(rng, cx)
        if not c:
            continue
        assert boundary_level(c, cx) == oracle_boundary_level(c, cx)


def test_boundary_depth_map_examples():
    s = Fraction(5, 4)
    cx = two_gen(s)
    assert boundary_depth_map(FilteredMap.identity(cx)) == s
    assert boundary_depth_map(FilteredMap.zero_map(cx, cx)) == 0


def test_boundary_depth_map_bounds_every_sampled_drop():
    """On random chain maps the depth is at least B(phi x) - A(x), B from
    the brute-force oracle, for monomial combinations x of a basis of the
    cycles that phi sends to boundaries: the boundaries (columns of d)
    when phi = id + T^s (d h + h d), every cycle when phi = T^s (d h +
    h d)."""
    rng = random.Random(31)
    for _ in range(20):
        phi, ident = random_chain_map(rng, n=rng.randint(2, 4))
        C, D = phi.domain, phi.codomain
        depth = boundary_depth_map(phi)
        basis = ([c for c in C.diff.values() if c] if ident
                 else cycle_basis(C))
        for _ in range(4):
            x = {}
            for z in basis:
                if rng.random() < 0.6:
                    e = Fraction(rng.randint(-4, 4), 2)
                    x = chain_add(x, chain_shift(e, z))
            y = phi.apply(x)
            if y:
                drop = oracle_boundary_level(y, D) - action_level(x, C)
                assert depth >= drop


def test_boundary_depth_map_of_the_identity_is_the_longest_bar():
    """A random complex is a sum of bars d b = T^e x under a filtered
    change of basis, so the boundary depth of its identity is the
    longest bar, A(b) - A(x) + e, though its cycles come mixed."""
    rng = random.Random(41)
    for _ in range(200):
        cx, bars = random_complex(rng, n=rng.randint(2, 6),
                                  qden=rng.choice([1, 2, 3]), with_split=True)
        longest = max((cx.action[b] - cx.action[x] + e
                       for b, col in bars.items() for x, s in col.items()
                       for e in s.exps), default=0)
        assert boundary_depth_map(FilteredMap.identity(cx)) == longest


def test_beta_le_bh_for_nullhomotopic():
    rng = random.Random(9)
    for _ in range(20):
        cx = random_complex(rng, n=4)
        # psi = d h + h d for a random strictly filtered h
        hmat = {}
        for g in cx.generators:
            img = random_chain(rng, cx, density=0.4)
            # force strict filtration: shift coefficients down
            img = {k: v.shift(max(0, action_level({k: v}, cx) - cx.action[g]))
                   for k, v in img.items()}
            if img:
                hmat[g] = img
        h = FilteredMap(cx, cx, hmat, 0)
        if h.measured_shift() > 0:
            continue
        psi_mat = {}
        for g in cx.generators:
            val = chain_add(h.apply(cx.diff[g]), cx.d(h.matrix.get(g, {})))
            if val:
                psi_mat[g] = val
        psi = FilteredMap(cx, cx, psi_mat, 0)
        if not any(psi.matrix.values()):
            continue
        assert psi.is_chain_map()
        bh = homotopical_boundary_level(psi)
        beta = boundary_depth_map(psi)
        assert beta <= max(bh, 0)


def test_homotopical_boundary_level_examples():
    s = Fraction(1, 3)
    cx = two_gen(s)
    zero = FilteredMap.zero_map(cx, cx)
    assert homotopical_boundary_level(zero) == NEG_INF
    ident = FilteredMap.identity(cx)
    assert homotopical_boundary_level(ident) == s
    # identity B_h = A + beta_h on the hom complex
    H = hom_complex(cx, cx)
    ch = map_to_chain(ident)
    assert homotopical_boundary_level(ident) == \
        action_level(ch, H) + homotopical_boundary_depth(ident)


def test_bh_matches_oracle_on_hom_complexes():
    rng = random.Random(13)
    for _ in range(10):
        cx = random_complex(rng, n=2)
        H = hom_complex(cx, cx)
        ident = FilteredMap.identity(cx)
        ch = map_to_chain(ident)
        if not H.is_cycle(ch):
            continue
        got = boundary_level(ch, H)
        if got >= INF:
            continue
        assert got == oracle_boundary_level(ch, H)


def test_is_delta_robust_examples():
    s = Fraction(1, 2)
    cx = two_gen(s)
    assert is_delta_robust([], Fraction(100), cx)
    v = [{"x": nov(0)}]
    assert is_delta_robust(v, s, cx)
    assert not is_delta_robust(v, s + Fraction(1, 4), cx)
    # complement of im(d) in ker(d) is robust for every delta
    cx3 = FilteredComplex(
        ["b", "x", "y"], {"b": 0, "x": 0, "y": 0},
        {"b": {"x": nov(s)}, "x": {}, "y": {}}, CUT)
    assert is_delta_robust([{"y": nov(0)}], Fraction(1000), cx3)


def test_min_beta_subspace_two_bars():
    # two bars with different depths; combinations cannot dip below the min
    cx = FilteredComplex(
        ["b1", "x1", "b2", "x2"],
        {"b1": 0, "x1": 0, "b2": 0, "x2": 0},
        {"b1": {"x1": nov(1)}, "b2": {"x2": nov(2)}, "x1": {}, "x2": {}},
        CUT)
    V = [{"x1": nov(0)}, {"x2": nov(0)}]
    assert min_beta_subspace(V, cx) == 1
    assert min_beta_subspace([{"x2": nov(0)}], cx) == 2
    # the line through x1+x2 must pay for the deeper bar
    mixed = [{"x1": nov(0), "x2": nov(0)}]
    assert min_beta_subspace(mixed, cx) == 2
    # but a span containing x1 dips to 1
    assert min_beta_subspace([{"x1": nov(0), "x2": nov(0)}, {"x2": nov(0)}], cx) == 1


def test_min_beta_subspace_vs_sampling():
    rng = random.Random(17)
    checked = 0
    for _ in range(20):
        cx = random_complex(rng, n=rng.randint(3, 5))
        bs = []
        for _ in range(2):
            c, _ = random_boundary(rng, cx)
            if c:
                bs.append(c)
        if not bs:
            continue
        grid = cx.grid(bs)
        m = grid.min_beta_over_span(bs)
        # attainment: the witness is in the span and has beta == m
        w = grid.last_witness
        assert w is not None
        assert boundary_level(w, cx) - action_level(w, cx) == m
        # soundness: no sampled combination dips below m
        from filtcones.filtcx import chain_scale
        for _ in range(15):
            combo = {}
            for b in bs:
                lam = NovikovScalar(
                    {Fraction(rng.randint(0, 6), 2) for _ in range(rng.randint(0, 2))},
                    cx.cutoff)
                combo = chain_add(combo, chain_scale(lam, b))
            if not combo:
                continue
            beta = boundary_level(combo, cx) - action_level(combo, cx)
            assert beta >= m
        checked += 1
    assert checked >= 10


def test_find_robust_subspace_trivial_and_three_gen():
    s = Fraction(3, 4)
    cx = two_gen(s)
    V, k = find_robust_subspace(cx, dict(cx.diff), {g: {} for g in cx.generators})
    assert k == 0 and V == []
    # 3 generators: d0 = 0, d(b) = T^s x
    cx3 = FilteredComplex(
        ["b", "x", "y"], {"b": 0, "x": 0, "y": 0},
        {"b": {"x": nov(s)}, "x": {}, "y": {}}, CUT)
    d0 = {g: {} for g in cx3.generators}
    V, k = find_robust_subspace(cx3, d0, dict(cx3.diff))
    assert k == 1
    assert len(V) >= 1
    assert is_delta_robust(V, s, cx3)


def test_find_robust_subspace_random():
    rng = random.Random(21)
    for _ in range(30):
        out = random_complex(rng, n=rng.randint(3, 6), with_split=True)
        cx, d_bars = out
        d0 = {g: {} for g in cx.generators}
        V, k = find_robust_subspace(cx, d0, dict(cx.diff))
        h0 = cx.dim
        h = homology_rank(cx)
        assert k == (h0 - h) // 2
        assert len(V) >= k


def test_find_robust_subspace_split_complex_regression():
    """A split complex of the kind acceptance 7 uses, whose constructed
    subspace once failed the robustness check."""
    h = Fraction(1, 2)
    act = {"g0": 0, "g1": h, "g2": 0, "g3": 3 * h, "g4": 3 * h, "g5": 0}
    d0 = {"g0": {"g4": nov(5 * h)},
          "g2": {"g0": nov(h), "g3": nov(3), "g4": nov(3 * h)},
          "g3": {"g4": nov(0)},
          "g5": {"g0": nov(0), "g3": nov(5 * h)}}
    d1 = {"g1": {"g2": nov(1), "g3": nov(5 * h), "g5": nov(3 * h)}}
    gens = sorted(act)
    diff = {g: chain_add(d0.get(g, {}), d1.get(g, {})) for g in gens}
    cx = FilteredComplex(gens, act, diff, CUT)
    V, k = find_robust_subspace(cx, d0, d1)
    assert k == 1 and len(V) >= k
    assert is_delta_robust(V, action_drop(FilteredMap(cx, cx, d1, 0)), cx)
    # the orthonormal basis of the image of d0 is action-orthogonal:
    # aligning the peaks of any two members and adding them loses no action
    C0 = FilteredComplex(gens, act, d0, CUT)
    fam = [w for _, w in orthonormal_basis(image_basis(C0), cx)]
    assert len(fam) == len(image_basis(C0))
    for i, x in enumerate(fam):
        ax = action_level(x, cx)
        for y in fam[i + 1:]:
            ay = action_level(y, cx)
            aligned = {g: s.shift(ay - ax) for g, s in y.items()}
            assert action_level(chain_add(x, aligned), cx) == ax


def test_find_robust_subspace_keeps_the_predicted_kernel():
    """d0 sends g1 to T^(1/2) g0 + (1 + T^(3/2)) g2 and g5 to g0 + T g2 +
    T g4, d1 sends g3 to g4, so k = 1.  A projection onto im(d0) along a
    completion by generators sorted by action once left a kernel on im(d)
    smaller than k and refused this input."""
    act = {"g0": 0, "g1": 0, "g2": 0, "g3": Fraction(3, 2), "g4": 1,
           "g5": 0}
    d0 = {"g1": {"g0": nov(Fraction(1, 2)), "g2": nov(0, Fraction(3, 2))},
          "g5": {"g0": nov(0), "g2": nov(1), "g4": nov(1)}}
    d1 = {"g3": {"g4": nov(0)}}
    gens = sorted(act)
    diff = {g: chain_add(d0.get(g, {}), d1.get(g, {})) for g in gens}
    cx = FilteredComplex(gens, act, diff, CUT)
    V, k = find_robust_subspace(cx, d0, d1)
    assert k == 1 and len(V) >= k
    assert is_delta_robust(V, Fraction(1, 2), cx)


def test_verify_rig_cplx2():
    s = Fraction(1, 2)
    cx3 = FilteredComplex(
        ["b", "x", "y"], {"b": 0, "x": 0, "y": 0},
        {"b": {"x": nov(s)}, "x": {}, "y": {}}, CUT)
    d0 = {g: {} for g in cx3.generators}
    d1 = dict(cx3.diff)
    ident = FilteredMap.identity(cx3)
    rep = verify_rig_cplx2(cx3, d0, d1, ident)
    assert rep["hypotheses_ok"] and rep["inequality_holds"]
    assert rep["rank_f"] == 3 and rep["dim_H_d0"] == 3
    # f = id + d h + h d with a small-shift h
    hm = FilteredMap(cx3, cx3, {"x": {"b": nov(Fraction(1, 4))}}, 0)
    pert = {}
    for g in cx3.generators:
        val = chain_add(hm.apply(cx3.diff[g]), cx3.d(hm.matrix.get(g, {})))
        pert[g] = chain_add(val, {g: nov(0)})
    f = FilteredMap(cx3, cx3, pert, 0)
    rep2 = verify_rig_cplx2(cx3, d0, d1, f)
    assert rep2["hypotheses_ok"]
    assert rep2["rank_f"] >= 3 and rep2["inequality_holds"]
    # hypothesis violation is reported, not raised
    hbad = FilteredMap(cx3, cx3, {"x": {"b": nov(Fraction(-1))}}, 0)
    pert_bad = {}
    for g in cx3.generators:
        val = chain_add(hbad.apply(cx3.diff[g]), cx3.d(hbad.matrix.get(g, {})))
        pert_bad[g] = chain_add(val, {g: nov(0)})
    fbad = FilteredMap(cx3, cx3, pert_bad, 0)
    rep3 = verify_rig_cplx2(cx3, d0, d1, fbad)
    assert rep3["checked"] and not rep3["hypotheses_ok"]


def test_check_injectivity_lemma():
    s = Fraction(1)
    cx = two_gen(s)
    ident = FilteredMap.identity(cx)
    assert check_injectivity_lemma(ident, ident)
    rng = random.Random(2)
    hits = 0
    for _ in range(20):
        cxr = random_complex(rng, n=4)
        dd = delta_d(cxr)
        if dd <= 0 or dd >= INF:
            continue
        ident = FilteredMap.identity(cxr)
        # perturb by d h + h d with h shifting < delta
        hmat = {}
        for g in cxr.generators:
            if rng.random() < 0.5:
                tgt = rng.choice(cxr.generators)
                e = cxr.action[tgt] - cxr.action[g] + dd / 2
                if e > 0:
                    hmat[g] = {tgt: NovikovScalar([e], cxr.cutoff)}
        h = FilteredMap(cxr, cxr, hmat, 0)
        pert = {}
        for g in cxr.generators:
            val = chain_add(h.apply(cxr.diff[g]), cxr.d(h.matrix.get(g, {})))
            pert[g] = chain_add(val, {g: NovikovScalar([0], cxr.cutoff)})
        f = FilteredMap(cxr, cxr, pert, 0)
        if check_injectivity_lemma(f, FilteredMap.identity(cxr)):
            hits += 1
    assert hits >= 10
    # hypothesis-violating input simply returns False
    big_h = FilteredMap(cx, cx, {"x": {"b": nov(Fraction(-2))}}, 0)
    pert = {}
    for g in cx.generators:
        val = chain_add(big_h.apply(cx.diff[g]), cx.d(big_h.matrix.get(g, {})))
        pert[g] = chain_add(val, {g: nov(0)})
    fbad = FilteredMap(cx, cx, pert, 0)
    assert check_injectivity_lemma(fbad, FilteredMap.identity(cx)) is False
    # g = T^1 id lowers action by 1 but its inverse T^-1 id raises it by
    # 1, so g is no strictly filtered iso with strictly filtered inverse
    cz = FilteredComplex(["u", "v"], {"u": 0, "v": 1}, {}, CUT)
    g = FilteredMap(cz, cz, {x: {x: nov(1)} for x in cz.generators}, 0)
    assert g.measured_shift() == -1
    assert check_injectivity_lemma(g, g) is False


def test_cycle_basis_and_homology_rank():
    s = Fraction(1, 2)
    cx = two_gen(s)
    assert homology_rank(cx) == 0
    zs = cycle_basis(cx)
    assert len(zs) == 1
    cx2 = FilteredComplex(["x"], {"x": 0}, {"x": {}}, CUT)
    assert homology_rank(cx2) == 1


def test_parse_serialize_roundtrip():
    text = """
cutoff 64
gen b action 0
gen x action -1/2
d b = T^1/2*x
"""
    cx = parse_complex(text)
    assert cx.action["x"] == Fraction(-1, 2)
    assert boundary_level({"x": nov(0)}, cx) == Fraction(1, 2)
    rt = parse_complex(serialize_complex(cx))
    assert rt.action == cx.action
    for g in cx.generators:
        assert chain_eq(rt.diff[g], cx.diff[g])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.sampled_from([1, 2, 3, 5, 7]),
       st.integers(-12, 12), st.sampled_from([64, 40, 20]))
def test_serialize_parse_roundtrip_property(seed, qden, shift, cutoff):
    """Conjugated bar complexes carry scalars with several terms on one
    generator; every one of them is read back as written."""
    rng = random.Random(seed)
    cx = random_complex(rng, n=rng.randint(1, 6), qden=qden, cutoff=cutoff)
    cx = cx.shift_actions(Fraction(shift, qden))
    text = serialize_complex(cx)
    rt = parse_complex(text)
    assert (rt.generators, rt.action, rt.diff, rt.cutoff) == \
        (cx.generators, cx.action, cx.diff, cx.cutoff)
    assert serialize_complex(rt) == text
    for g in cx.generators:
        rhs = text.split(f"d {g} = ", 1)[1].split("\n")[0] \
            if cx.diff[g] else "0"
        assert parse_chain(rhs, cutoff) == cx.diff[g]


def test_degenerate_inputs_conventions():
    empty = FilteredComplex([], {}, {}, CUT)
    assert boundary_level({}, empty) == NEG_INF
    assert homology_rank(empty) == 0
    assert is_delta_robust([], Fraction(5), empty)
    zero_diff = FilteredComplex(["x", "y"], {"x": 0, "y": 1},
                                {"x": {}, "y": {}}, CUT)
    assert delta_d(zero_diff) == INF  # zero map convention
    assert boundary_level({"x": nov(0)}, zero_diff) == INF  # not a boundary
    assert homology_rank(zero_diff) == 2


def test_bh_invariant_under_uniform_shift():
    rng = random.Random(31)
    for _ in range(10):
        cx = random_complex(rng, n=3)
        ident = FilteredMap.identity(cx)
        ch = map_to_chain(ident)
        H = hom_complex(cx, cx)
        if not H.is_cycle(ch):
            continue
        b0 = boundary_level(ch, H)
        nu = Fraction(rng.randint(-3, 3), 2)
        cx2 = cx.shift_actions(nu)
        H2 = hom_complex(cx2, cx2)
        assert boundary_level(ch, H2) == b0
