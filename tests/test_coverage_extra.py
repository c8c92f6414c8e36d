"""Remaining contract items: pullback of cones, the injectivity
restatement on robust subspaces, the alpha ledger, the cone-discrepancy
equality remark, and small invariances."""

import random
from fractions import Fraction as F

import pytest

from filtcones.novikov import INF, NovikovScalar
from filtcones.filtcx import (
    FilteredComplex, FilteredMap, chain_add, field_rank,
    homotopical_boundary_level, is_delta_robust, min_beta_subspace,
)
from filtcones.wfainf import (
    Discrepancy, PreModHom, WFCategory, WFFunctor, choose_eps, disc_max,
    mu1_mod, parse_category, pullback_cone, pullback_hom, pullback_module,
    yoneda_module,
)
from filtcones.twisted import TwistedData, alpha_ledger
from filtcones.surface import TorusCurve, hf_rank, mu2_triangles
from filtcones.surface.floer import floer_complex

from support import chain_category, random_cycle_in, strict_dg_category, \
    strict_right_mult_hom

CUT = 64


def nov(*e):
    return NovikovScalar(e, CUT)


def test_pullback_cone_tables_agree():
    c_shift = F(1, 2)
    cat = chain_category()
    shifted = {k: v.shift_actions(-c_shift) for k, v in cat.homs.items()}
    cat2 = WFCategory(cat.objects, shifted, cat.mu_tables,
                      Discrepancy([0] + [cat.disc[d] + 2 * c_shift
                                         for d in range(2, cat.cap + 1)],
                                  "category"), cap=cat.cap, check=False)
    m0 = yoneda_module(cat, "L1")
    m1 = yoneda_module(cat, "L0")
    from filtcones.wfainf import lambda_map
    f = lambda_map(m1, "L1", cat.hom("L1", "L0").basis_chain("m10"))
    F_ident = WFFunctor(cat2, cat, {o: o for o in cat.objects},
                        {1: {(g,): cat.hom(*cat.gen_hom[g]).basis_chain(g)
                             for g in cat2.gen_hom}},
                        Discrepancy([c_shift] + [0] * (cat.cap - 1), "hom"))
    pm0 = pullback_module(F_ident, m0)
    pm1 = pullback_module(F_ident, m1)
    pulled_cone, cone_of_pulled = pullback_cone(F_ident, f, pm0, pm1)
    t1 = pulled_cone.action_table()
    t2 = cone_of_pulled.action_table()
    assert t1 == t2


def test_delta_robust_injective_restatement():
    # d(b) = T^delta x: V = span(x) is delta-robust; f = id + d h + h d
    # with B_h(f - id) = delta - eps keeps full rank on V and f(V) is
    # eps-robust
    delta = F(1)
    eps = F(1, 2)
    cx = FilteredComplex(["b", "x"], {"b": 0, "x": 0},
                         {"b": {"x": nov(delta)}, "x": {}}, CUT)
    V = [{"x": nov(0)}]
    assert is_delta_robust(V, delta, cx)
    # h raises action by delta - eps: h(x) = T^{eps - delta} b
    h = FilteredMap(cx, cx, {"x": {"b": nov(eps - delta)}}, 0)
    pert = {}
    for g in cx.generators:
        val = chain_add(h.apply(cx.diff[g]), cx.d(h.matrix.get(g, {})))
        pert[g] = chain_add(val, {g: nov(0)})
    f = FilteredMap(cx, cx, pert, 0)
    diff = f.add(FilteredMap.identity(cx))
    assert homotopical_boundary_level(diff) == delta - eps
    fv = [f.apply(v) for v in V]
    assert field_rank(fv) == len(V)
    assert is_delta_robust(fv, eps, cx)


def test_remark_cone_disc_equality():
    # with module discrepancies <= eps_m and eps_f satisfying Assumption E,
    # the cone discrepancy equals eps_f - eps_f_1 on the nose
    rng = random.Random(3)
    cap = 5
    for _ in range(50):
        em = Discrepancy([0] + [F(rng.randint(0, 4), 2)
                                for _ in range(cap - 1)], "module")
        ea = Discrepancy([0] + [F(rng.randint(0, 4), 2)
                                for _ in range(cap - 1)], "category")
        delta = Discrepancy([F(rng.randint(0, 4), 2) for _ in range(cap)],
                            "hom")
        epsf, _ = choose_eps(delta, em, ea)
        cone_disc = disc_max([em, em, epsf.minus_first()], "module")
        assert cone_disc.values == epsf.minus_first().values


def test_alpha_ledger_reports():
    rng = random.Random(9)
    cat = strict_dg_category(nobj=3)
    objs = ["L0", "L1", "L2"]
    k = yoneda_module(cat, "L0")
    cycles = {}
    rhos = [F(0)]
    for j in (1, 2):
        src = yoneda_module(cat, f"L{j}")
        c = random_cycle_in(rng, k.value(f"L{j}"))
        f = strict_right_mult_hom(cat, src, k, c)
        for g, s in c.items():
            cycles.setdefault((j, int(cat.gen_hom[g][1][1:])), {})[g] = s
        rhos.append(f.shift)
        from filtcones.wfainf import cone
        k = cone(f, f.shift, Discrepancy.zero(cat.cap, "hom"))
    data = TwistedData(cat, objs, cycles)
    ledger = alpha_ledger(data, rhos)
    for key, row in ledger.items():
        assert row["measured"] == row["rho_difference"] + row["excess"]


def test_hf_rank_invariant_under_translation():
    y, x0, x1, depth = F(1, 4), F(-1, 4), F(1, 4), F(1, 2)

    def jog(shift):
        return TorusCurve([(-1 + shift, y), (x0 + shift, y),
                           (x0 + shift, y - depth), (x1 + shift, y - depth),
                           (x1 + shift, y), (1 + shift, y)], name="M")

    l = TorusCurve([(-1, 0), (1, 0)], name="L")
    base = hf_rank(jog(0), l)
    for shift in (F(1, 8), F(-3, 8), F(5, 8)):
        assert hf_rank(jog(shift), l) == base


def test_mu2_leibniz_on_cycle_configuration():
    # all three curves straight: differentials vanish, so the Leibniz
    # identity for the triangle product reduces to 0 = 0; verify the
    # ingredients exactly
    a = TorusCurve([(-1, 0), (1, 0)], name="A")
    b = TorusCurve([(F(-1, 2), -1), (F(-1, 2), 1)], name="B")
    c = TorusCurve([(-1, F(1, 2)), (1, F(1, 2))], name="Ccurve")
    for pair in ((a, b), (b, c), (a, c)):
        cx = floer_complex(*pair)
        assert all(not cx.diff[g] for g in cx.generators)
    tri = mu2_triangles(a, b, c)
    for (yy, xx), chain in tri.items():
        for z, s in chain.items():
            assert s.valuation() > 0


def test_perturbed_unit_module_assumptions():
    from support import perturbed_unit_category
    from filtcones.wfainf import check_Us, check_Uw
    t, s = F(1), F(1, 2)
    cat = perturbed_unit_category(t, s)
    m = yoneda_module(cat, "X")
    ok_w, kw = check_Uw(m)
    ok_s, ks = check_Us(m)
    assert ok_w and ok_s
    assert kw == ks  # field coefficients: the two assumptions agree
    assert not check_Uw(m, kw - F(1, 8))[0]
    assert check_Uw(m, kw)[0]


def test_composed_retract_homotopy_shift_bound():
    from filtcones.twisted import composed_retract_homotopy, retract_energy
    cx = FilteredComplex(["x"], {"x": 0}, {"x": {}}, CUT)
    cy = FilteredComplex(["y"], {"y": 0}, {"y": {}}, CUT)
    cz = FilteredComplex(["z"], {"z": 0}, {"z": {}}, CUT)
    s, r = F(1, 2), F(1, 2)
    sp, rp = F(2), F(2)
    f = FilteredMap(cx, cy, {"x": {"y": nov(-s)}}, s)
    g = FilteredMap(cy, cx, {"y": {"x": nov(s)}}, r)
    fp = FilteredMap(cy, cz, {"y": {"z": nov(-sp)}}, sp)
    gp = FilteredMap(cz, cy, {"z": {"y": nov(sp)}}, rp)
    eta = FilteredMap.zero_map(cx, cx)
    etap = FilteredMap(cy, cy, {"y": {"y": nov(-1)}}, 1)
    k, kp = F(0), F(1)
    bar = composed_retract_homotopy(g, eta, gp, etap, f, fp)
    assert bar.measured_shift() <= max(r + s + kp, k)


def test_weight_wp_with_decompositions():
    from filtcones.twisted import TwistedError, weight_wp
    cx = FilteredComplex(["x"], {"x": 0}, {"x": {}}, CUT)
    ident = FilteredMap.identity(cx)
    f = FilteredMap(cx, cx, {"x": {"x": nov(F(3, 2))}}, 0)
    assert weight_wp([(ident, ("A", "B")), (f, ("A", "B"))],
                     target_family=("A", "B")) == 0
    with pytest.raises(TwistedError):
        weight_wp([(ident, ("A",))], target_family=("A", "B"))


def test_dhat_positive_for_distinct_family_members():
    # with a single family containing both curves the pseudo-metric is
    # honestly degenerate; disjoint left/right families restore a
    # positive certified lower bound
    from filtcones.scenarios import lem_ex1_space
    sp = lem_ex1_space(F(1, 8), F(1, 256))
    degenerate = sp.d_hat("S1", "S3", "F", "F", kmax=2)
    assert degenerate.lower == 0
    r = sp.d_hat("S1", "S3", "Fleft", "Fright", kmax=2)
    assert r.lower > 0


def _mapping_cone_complex(f: FilteredMap) -> FilteredComplex:
    """Chain-level mapping cone of f (shifted-sum filtration, rho = 0)."""
    C, D = f.domain, f.codomain
    gens = [f"s.{g}" for g in C.generators] + [f"t.{g}" for g in D.generators]
    action = {f"s.{g}": C.action[g] for g in C.generators}
    action.update({f"t.{g}": D.action[g] for g in D.generators})
    diff = {}
    for g in C.generators:
        col = {f"s.{h}": sc for h, sc in C.diff[g].items()}
        for h, sc in f.matrix.get(g, {}).items():
            col[f"t.{h}"] = sc
        diff[f"s.{g}"] = col
    for g in D.generators:
        diff[f"t.{g}"] = {f"t.{h}": sc for h, sc in D.diff[g].items()}
    return FilteredComplex(gens, action, diff, C.cutoff, check=False)


def test_cone_compose_quasi_iso_transfer():
    from filtcones.wfainf import cone_compose, lambda_map
    from filtcones.filtcx import homology_rank
    from support import strict_dg_category, random_cycle_in, \
        strict_right_mult_hom
    rng = random.Random(21)
    cat = strict_dg_category(nobj=3)
    m0 = yoneda_module(cat, "L2")
    m1 = yoneda_module(cat, "L1")
    m1p = yoneda_module(cat, "L0")
    f = strict_right_mult_hom(cat, m0, m1,
                              random_cycle_in(rng, m1.value("L2")))
    # xi: right multiplication by the degree-zero unit-like cycle is a
    # quasi-isomorphism between the (acyclic) Yoneda modules here
    xi = strict_right_mult_hom(cat, m1, m1p,
                               {"one[L1,L0]": nov(0)})
    psi = cone_compose(f, xi)
    assert mu1_mod(psi).is_zero()
    for x in psi.source.values:
        if x not in psi.target.values:
            continue
        phi1 = psi.first_order_map(x)
        cone_cx = _mapping_cone_complex(phi1)
        assert homology_rank(cone_cx) == 0  # psi_1 is a quasi-isomorphism


def test_lambda_map_is_chain_map_on_non_cycles():
    from filtcones.wfainf import lambda_map
    from support import strict_dg_category
    rng = random.Random(6)
    cat = strict_dg_category(nobj=2)
    m = yoneda_module(cat, "L0")
    cval = m.value("L1")
    for _ in range(10):
        g = rng.choice(cval.generators)
        c = {g: nov(F(rng.randint(0, 4), 2))}
        lhs = mu1_mod(lambda_map(m, "L1", c))
        rhs = lambda_map(m, "L1", cval.d(c))
        assert lhs.add(rhs).is_zero()


def test_unitality_of_cones_matches_kappa_formula():
    """Cones of unital modules stay unital with the displayed kappa."""
    from filtcones.wfainf import (
        assh_cone_kappa, check_Ue, check_Uw, cone, rename_module,
    )
    from support import perturbed_unit_category
    t, s = F(1), F(1, 2)
    cat = perturbed_unit_category(t, s)
    m1 = yoneda_module(cat, "X")
    m0 = rename_module(m1, "cpy.")
    _, zeta = check_Ue(cat)
    _, k0 = check_Uw(m0)
    _, k1 = check_Uw(m1)
    # attach the copy to the original by the identity homomorphism
    comps = {1: {}}
    for g, x in m0.gen_value.items():
        comps[1][(g,)] = m1.value(x).basis_chain(g[len("cpy."):])
    f = PreModHom(m0, m1, comps, 0)
    assert mu1_mod(f).is_zero()
    c = cone(f, 0, Discrepancy.zero(cat.cap, "hom"))
    ok, kappa_c = check_Uw(c)
    assert ok
    bound = assh_cone_kappa(k0, k1, cat.unit_bound, zeta,
                            c.disc[2], c.disc[3])
    assert kappa_c <= bound


def test_verify_hom_filtration_reports_violations():
    from filtcones.wfainf import verify_hom_filtration
    # non-monotone weights give the category a genuinely positive
    # discrepancy, so a zero budget cannot absorb mu1_mod's overshoot
    cat = chain_category(weights={0: F(2), 1: F(0), 2: F(1)})
    assert cat.disc[2] > 0
    m0 = yoneda_module(cat, "L1")
    m1 = yoneda_module(cat, "L0")
    comps = {1: {(g,): m1.value(x).basis_chain(
        m1.value(x).generators[0]) for g, x in m0.gen_value.items()
        if x in m1.values}}
    f = PreModHom(m0, m1, comps, 0)
    assert not mu1_mod(f).is_zero()
    tight = Discrepancy.zero(cat.cap, "hom")
    assert not verify_hom_filtration(m0, m1, tight, [f])
    loose, _ = choose_eps(Discrepancy([0] * cat.cap, "hom"),
                          Discrepancy(m0.disc.values, "module"),
                          Discrepancy(cat.disc.values, "category"))
    assert verify_hom_filtration(m0, m1, loose, [f])


def test_parse_category_roundtrip_units():
    text = """
object X
hom X X: gen e action 0 ; gen a action 0 ; gen b action 0
d a = T^1/2*b
mu 2 (e,e) -> T^0*e
mu 2 (e,a) -> T^0*a
mu 2 (a,e) -> T^0*a
mu 2 (e,b) -> T^0*b
mu 2 (b,e) -> T^0*b
unit X = T^0*e bound 0
"""
    cat = parse_category(text, cutoff=CUT, cap=4)
    from filtcones.wfainf import check_Ue
    ok, zeta = check_Ue(cat)
    assert ok and zeta == 0
