import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from filtcones.novikov import INF, NovikovScalar
from filtcones.filtcx import (
    FilteredComplex, action_level, boundary_level, chain_add, chain_eq,
    cycle_basis, homology_rank,
)
from filtcones.wfainf import (
    CapError, Discrepancy, PreModHom, WFCategory, WFFunctor, WFModule,
    WfError, assh_cone_kappa,
    check_assumption_E, check_mod_squared_condition, check_Ue, check_URe,
    check_Us, check_Uw, choose_eps, cone, cone_boundary_correction,
    cone_compose, disc_max, disc_star, lambda_map, mu1_mod, mu2_mod,
    pullback_disc, pullback_module, shift_module, unit_square_homotopy,
    table_sum, verify_hom_filtration, yoneda_module,
)

from support import (
    _ref_cat_tuples, _ref_home, _ref_mod_tuples, chain_category,
    perturbed_unit_category, random_complex, ref_check_ainf_relations,
    ref_check_module_relations, ref_mu1_mod, ref_mu2_mod, unital_dg_category,
)
from test_twisted import build_random_tower

CUT = 64


def nov(*exps):
    return NovikovScalar(exps, CUT)


def rand_disc(rng, cap=4, kind="hom", step=2):
    vals = [Fraction(rng.randint(0, 6), step) for _ in range(cap)]
    if kind in ("category", "module"):
        vals[0] = Fraction(0)
    return Discrepancy(vals, kind)


# -- discrepancy calculus ----------------------------------------------------

def test_disc_max_examples():
    rng = random.Random(0)
    e = rand_disc(rng)
    assert disc_max([e, e]) == e
    z = Discrepancy.zero(4, "hom")
    assert disc_max([z, e]) == e
    for _ in range(20):
        a, b = rand_disc(rng), rand_disc(rng)
        m = disc_max([a, b])
        for d in range(1, 5):
            assert m[d] == max(a[d], b[d])


def test_disc_star():
    z = Discrepancy.zero(4, "module")
    e = Discrepancy([1, 2, 3, 4], "hom")
    s = disc_star(z, e)
    # (0 * e)_d = max{0_i + e_j : i+j=d+1} with 0 at every entry
    assert s.values == (max(e[1] for _ in [0]),
                        max(e[1], e[2]), max(e[1], e[2], e[3]),
                        max(e[1], e[2], e[3], e[4]))
    ee = disc_star(e, e)
    assert ee[1] == 2 * e[1]
    rng = random.Random(4)
    for _ in range(30):
        a, b = rand_disc(rng), rand_disc(rng)
        s = disc_star(a, b)
        for d in range(1, 5):
            assert s[d] == max(a[i] + b[d + 1 - i] for i in range(1, d + 1))


def test_assumption_E_and_choose_eps():
    cap = 4
    z = Discrepancy.zero(cap, "module")
    assert check_assumption_E(Discrepancy.zero(cap, "hom"), z, z)
    rng = random.Random(8)
    for _ in range(30):
        em = rand_disc(rng, cap, "module")
        ea = rand_disc(rng, cap, "category")
        delta = rand_disc(rng, cap, "hom")
        eps, ratios = choose_eps(delta, em, ea)
        assert check_assumption_E(eps, em, ea)
        assert all(eps[d] >= delta[d] for d in range(1, cap + 1))
        assert len(ratios) == cap
    # the inductive formula at arity 2
    em = Discrepancy([0, 1, 1, 1], "module")
    ea = Discrepancy([0, 2, 2, 2], "category")
    delta = Discrepancy([Fraction(1, 2), 0, 0, 0], "hom")
    eps, _ = choose_eps(delta, em, ea)
    assert eps[1] == Fraction(1, 2)
    assert eps[2] == max(em[2] + eps[1], ea[2] + eps[1], delta[2])
    # a violating sequence is rejected
    bad = Discrepancy([0, 0, 0, 0], "hom")
    assert not check_assumption_E(bad, em, ea)


def test_mod_squared_condition():
    assert check_mod_squared_condition(Discrepancy([1, 1, 1, 1], "hom"))
    c = Fraction(1, 2)
    arith = Discrepancy([c, 2 * c, 3 * c, 4 * c], "hom")
    assert check_mod_squared_condition(arith)
    assert not check_mod_squared_condition(Discrepancy([0, 5, 0, 0], "hom"))


def test_discrepancy_kinds_and_cap():
    with pytest.raises(WfError):
        Discrepancy([1, 0], "module")
    d = Discrepancy([0, 1], "module")
    with pytest.raises(CapError):
        d[3]


def test_table_sum_adds_entrywise_and_drops_what_cancels():
    t = {2: {("a", "m"): {"x": nov(0), "y": nov(1)}},
         3: {("a", "b", "m"): {"x": nov(Fraction(1, 2))}}}
    assert table_sum([t, t]) == {}
    u = {2: {("a", "m"): {"x": nov(0)}}, 1: {("m",): {"y": nov(2)}}}
    # arity 2 keeps only y; arity 3 stays; arity 1 is new
    assert table_sum([t, u]) == {2: {("a", "m"): {"y": nov(1)}},
                                 3: t[3], 1: u[1]}
    assert table_sum([t, {3: t[3]}]) == {2: t[2]}
    assert table_sum([]) == {}


# -- categories, modules, units ----------------------------------------------

def test_unital_category_relations():
    cat = unital_dg_category()
    cat.check_ainf_relations()
    ok, zeta = check_Ue(cat)
    assert ok and zeta == 0


def test_check_Uw_of_a_unit_acting_by_zero():
    """With e acting by 0 on M(X) = C, [mu_2(e, .)] misses the identity by
    the boundary depth of C: infinite if C has homology, else its longest
    bar.  A random complex is bars d b = T^f x under a filtered change of
    basis, so the longest bar is the largest A(b) - A(x) + f."""
    cat = unital_dg_category()
    rng = random.Random(43)
    for _ in range(100):
        cx, bars = random_complex(rng, n=rng.randint(2, 6),
                                  qden=rng.choice([1, 2, 3]), with_split=True)
        m = WFModule(cat, {"X": cx}, {}, Discrepancy([0] * cat.cap, "module"),
                     check=False)
        longest = max((cx.action[b] - cx.action[x] + f
                       for b, col in bars.items() for x, s in col.items()
                       for f in s.exps), default=0)
        assert check_Uw(m) == ((False, INF) if homology_rank(cx)
                               else (True, longest))


def test_check_Uw_reads_an_action_orthogonal_cycle_basis():
    """Bars of different depth share one cycle: d a = d b = d c = y with
    a, b, c at actions 2, 1, 0, and a + b = d u, a + c = d w at action 2.
    The kernel basis {y, a+b, a+c} is not action-orthogonal: its sum b + c
    sits at action 1 and bounds only at 2.  With e acting by 0, kappa is
    the largest B(z) - A(z) over the cycles, 1 at b + c; the raw basis
    reads 0."""
    one = nov(0)
    cx = FilteredComplex(
        ["u", "w", "a", "b", "c", "y"],
        {"u": 2, "w": 2, "a": 2, "b": 1, "c": 0, "y": 0},
        {"u": {"a": one, "b": one}, "w": {"a": one, "c": one},
         "a": {"y": one}, "b": {"y": one}, "c": {"y": one}, "y": {}}, CUT)
    zs = cycle_basis(cx)
    assert max(boundary_level(z, cx) - action_level(z, cx) for z in zs) == 0
    cat = unital_dg_category()
    m = WFModule(cat, {"X": cx}, {}, Discrepancy([0] * cat.cap, "module"),
                 check=False)
    assert check_Uw(m) == (True, 1)


def test_perturbed_unit_witness_level():
    t, s = Fraction(1), Fraction(1, 2)
    cat = perturbed_unit_category(t, s)
    ok, zeta = check_Ue(cat)
    assert ok
    assert zeta == s  # witness c sits at action s
    assert check_Ue(cat, s)[0]
    assert not check_Ue(cat, s - Fraction(1, 4))[0]


def test_unit_assumptions_on_yoneda():
    cat = unital_dg_category()
    m = yoneda_module(cat, "X")
    ok_w, kw = check_Uw(m)
    ok_s, ks = check_Us(m)
    assert ok_w and ok_s
    assert kw == 0 and ks == 0
    ok_r, kr = check_URe(cat, "X")
    assert ok_r and kr == 0
    # over a field the two unit assumptions coincide
    assert kw == ks


def test_unit_square_homotopy_bound():
    t, s = Fraction(1), Fraction(1, 2)
    cat = perturbed_unit_category(t, s)
    m = yoneda_module(cat, "X")
    witness = {"c": nov(0)}
    h = unit_square_homotopy(m, "X", witness)
    # v o v - v = d h + h d, with shift <= max(2u + eps3, zeta + eps2)
    from filtcones.wfainf import _unit_action_map
    v = _unit_action_map(m, "X")
    vv = v.compose(v)
    lhs = vv.add(v)
    cx = m.value("X")
    for g in cx.generators:
        want = lhs.apply(cx.basis_chain(g))
        got = chain_add(h.apply(cx.diff[g]), cx.d(h.matrix.get(g, {})))
        assert chain_eq(want, got)
    zeta = check_Ue(cat)[1]
    assert h.measured_shift() <= max(2 * cat.unit_bound + m.disc[3],
                                     zeta + m.disc[2])


def test_assh_cone_kappa():
    assert assh_cone_kappa(0, 0, 0, 0, 0, 0) == 0
    k = assh_cone_kappa(1, 2, Fraction(1, 2), 3, Fraction(1, 4), Fraction(1, 8))
    assert k == max(2, 4, 1 + Fraction(1, 8), 1 + Fraction(1, 2), 3 + Fraction(1, 4))
    rng = random.Random(12)
    base = [Fraction(rng.randint(0, 8), 2) for _ in range(6)]
    k0 = assh_cone_kappa(*base)
    for i in range(6):
        bumped = list(base)
        bumped[i] += 1
        assert assh_cone_kappa(*bumped) >= k0


# -- module operations ---------------------------------------------------------

def _random_prehom(rng, m0, m1, max_arity=3, qden=2):
    comps = {}
    for d in range(1, max_arity + 1):
        table = {}
        for gens in m0.tuples(d):
            if rng.random() < 0.5:
                x = m0.cat.gen_hom[gens[0]][0] if d > 1 else \
                    m0.gen_value[gens[0]]
                tgt_cx = m1.value(x)
                g = rng.choice(tgt_cx.generators)
                e = Fraction(rng.randint(0, 4), qden)
                table[gens] = {g: nov(e)}
        if table:
            comps[d] = table
    return PreModHom(m0, m1, comps, 0)


def test_mu1_mod_squares_to_zero():
    rng = random.Random(5)
    cat = chain_category()
    m0 = yoneda_module(cat, "L1")
    m1 = yoneda_module(cat, "L0")
    for _ in range(15):
        f = _random_prehom(rng, m0, m1)
        ddf = mu1_mod(mu1_mod(f))
        assert ddf.is_zero()
    assert mu1_mod(PreModHom.zero(m0, m1)).is_zero()


def test_mu2_mod_shift_additivity():
    rng = random.Random(6)
    cat = chain_category()
    m0 = yoneda_module(cat, "L2")
    m1 = yoneda_module(cat, "L1")
    m2 = yoneda_module(cat, "L0")
    for _ in range(10):
        f = _random_prehom(rng, m0, m1)
        g = _random_prehom(rng, m1, m2)
        fg = mu2_mod(f, g)
        mf = [x for x in f.measured_shifts() if x > -INF]
        mg = [x for x in g.measured_shifts() if x > -INF]
        mfg = [x for x in fg.measured_shifts() if x > -INF]
        if mf and mg and mfg:
            sf = max(mf) - min(0, 0)
            # composite lands in hom^{<= rho_f + rho_g; eps_f * eps_g}
            rho_f, rho_g = max(mf), max(mg)
            eps = disc_star(Discrepancy.zero(f.cap, "hom"),
                            Discrepancy.zero(g.cap, "hom"))
            assert fg.in_hom(rho_f + rho_g, eps)


def test_verify_hom_filtration():
    rng = random.Random(7)
    cat = chain_category()
    m0 = yoneda_module(cat, "L1")
    m1 = yoneda_module(cat, "L0")
    eps_h, _ = choose_eps(Discrepancy([1] * cat.cap, "hom"),
                          Discrepancy(m0.disc.values, "module"),
                          Discrepancy(cat.disc.values, "category"))
    homs = [_random_prehom(rng, m0, m1) for _ in range(5)]
    assert verify_hom_filtration(m0, m1, eps_h, homs)


# -- cones ---------------------------------------------------------------------

def _lambda_like(m0, m1, y, c):
    """Module hom Yoneda(y) -> m1 given by inserting the cycle c."""
    return lambda_map(m1, y, c)


def test_cone_zero_map_is_shifted_sum():
    cat = chain_category()
    m0 = yoneda_module(cat, "L1")
    m1 = yoneda_module(cat, "L0")
    rho = Fraction(3, 2)
    epsf = Discrepancy([Fraction(1, 2), 1, 1, 1, 1], "hom")
    f = PreModHom(m0, m1, {}, rho, epsf)
    c = cone(f, rho, epsf)
    table = c.action_table()
    # the M0 part is shifted by rho + eps_1, the M1 part is untouched
    assert table["x1"] == m0.value("X").action["x1"] + rho + epsf[1]
    assert table["x0"] == m1.value("X").action["x0"]
    # discrepancy: max{eps^M0, eps^M1, eps^f - eps^f_1}
    for d in range(1, cat.cap + 1):
        assert c.disc[d] == max(m0.disc[d], m1.disc[d], epsf[d] - epsf[1])


def test_cone_inclusion_is_filtered():
    cat = chain_category()
    m1 = yoneda_module(cat, "L0")
    m0 = yoneda_module(cat, "L1")
    f = _lambda_like(m0, m1, "L1", cat.hom("L1", "L0").basis_chain("m10"))
    assert mu1_mod(f).is_zero()
    k = cone(f)
    # inclusion M1 -> Cone as the identity on M1 generators
    for g, x in m1.gen_value.items():
        if x in k.values:
            assert k.value(x).action[g] == m1.value(x).action[g]
    assert "X" in k.values
    k.check_module_relations()
    # the declared cone discrepancy dominates the measured one
    meas = k.measured_discrepancy()
    assert all(meas[d - 1] <= k.disc[d] for d in range(1, k.cap + 1))


@pytest.mark.xfail(strict=True, reason="cone() keeps only the objects where "
                   "both M0 and M1 have a value (FOUND in CHANGES.md)")
def test_cone_keeps_the_objects_of_the_target_alone():
    """Cone(yon L1 -> yon L0) at L1 is M1(L1) = hom(L1, L0) = {m10}."""
    cat = chain_category()
    m0 = yoneda_module(cat, "L1")
    m1 = yoneda_module(cat, "L0")
    f = _lambda_like(m0, m1, "L1", cat.hom("L1", "L0").basis_chain("m10"))
    k = cone(f)
    assert "L1" in k.values and k.value("L1").generators == ("m10",)


def test_cone_filtration_change_shifts():
    cat = chain_category()
    m0 = yoneda_module(cat, "L1")
    m1 = yoneda_module(cat, "L0")
    f = _lambda_like(m0, m1, "L1", cat.hom("L1", "L0").basis_chain("m10"))
    rho = f.shift
    eps = f.disc
    rho2 = rho + 2
    eps2 = Discrepancy([v + Fraction(1, 2) for v in eps.values], "hom")
    c1 = cone(f, rho, eps)
    c2 = cone(f, rho2, eps2)
    t1, t2 = c1.action_table(), c2.action_table()
    # id: Cone(f;rho,eps) -> Cone(f;rho',eps') shifts by rho'-rho plus the
    # eps_1 defect on the M0 part, and is filtered in the other direction
    for g in t1:
        if g in m0.gen_value:
            assert t2[g] - t1[g] == (rho2 - rho) + (eps2[1] - eps[1])
        else:
            assert t2[g] == t1[g]


def test_shift_module_identities():
    cat = chain_category()
    m = yoneda_module(cat, "L0")
    assert shift_module(m, 0).action_table() == m.action_table()
    a, b = Fraction(1, 2), Fraction(2, 3)
    t1 = shift_module(shift_module(m, a), b).action_table()
    t2 = shift_module(m, a + b).action_table()
    assert t1 == t2


def test_action_shift_cone_four_way_identity():
    cat = chain_category()
    m0 = yoneda_module(cat, "L1")
    m1 = yoneda_module(cat, "L0")
    f = _lambda_like(m0, m1, "L1", cat.hom("L1", "L0").basis_chain("m10"))
    nu = Fraction(5, 4)
    rho, eps = f.shift, f.disc
    lhs = shift_module(cone(f, rho, eps), nu).action_table()
    # Cone(S^nu M0 -> S^nu M1) with the same (rho, eps)
    f_shifted = PreModHom(shift_module(m0, nu), shift_module(m1, nu),
                          f.components, rho, eps)
    rhs1 = cone(f_shifted, rho, eps).action_table()
    assert lhs == rhs1
    # Cone(M0 -> S^nu M1; f; rho, eps - nu) -- realized via the eps_1 offset
    shifted = all(v >= nu for v in eps.values)
    eps_half = Discrepancy([v - nu for v in eps.values], "hom") if shifted \
        else eps
    f_half = PreModHom(m0, shift_module(m1, nu), f.components, rho, eps_half)
    if shifted:
        rhs2 = cone(f_half, rho, eps_half).action_table()
        assert lhs == rhs2
    # Cone(M0 -> S^nu M1; f; rho - nu, eps)
    f_low = PreModHom(m0, shift_module(m1, nu), f.components, rho - nu, eps)
    rhs3 = cone(f_low, rho - nu, eps).action_table()
    assert lhs == rhs3


def test_cone_compose():
    cat = chain_category()
    m0 = yoneda_module(cat, "L2")
    m1 = yoneda_module(cat, "L1")
    m1p = yoneda_module(cat, "L0")
    f = _lambda_like(m0, m1, "L2", cat.hom("L2", "L1").basis_chain("m21"))
    xi = _lambda_like(m1, m1p, "L1", cat.hom("L1", "L0").basis_chain("m10"))
    psi = cone_compose(f, xi)
    assert mu1_mod(psi).is_zero()
    # shift and discrepancy bounds
    assert psi.in_hom(xi.shift, xi.disc)
    # xi = id gives psi = id
    ident = PreModHom.identity(m1)
    psi_id = cone_compose(f, ident)
    for g, x in psi_id.source.gen_value.items():
        assert chain_eq(psi_id.mu_gens((g,)),
                        psi_id.target.value(x).basis_chain(g))


def test_cone_boundary_correction():
    rng = random.Random(9)
    cat = chain_category()
    m0 = yoneda_module(cat, "L1")
    m1 = yoneda_module(cat, "L0")
    f = _lambda_like(m0, m1, "L1", cat.hom("L1", "L0").basis_chain("m10"))
    # theta = 0: the correction map is the identity
    vt0 = cone_boundary_correction(f, PreModHom.zero(m0, m1))
    for g, x in vt0.source.gen_value.items():
        assert chain_eq(vt0.mu_gens((g,)),
                        vt0.target.value(x).basis_chain(g))
    for _ in range(5):
        theta = _random_prehom(rng, m0, m1, max_arity=2)
        rho = max([f.shift] + [s for s in theta.measured_shifts() if s > -INF])
        eps, _ = choose_eps(Discrepancy([2] * cat.cap, "hom"),
                            Discrepancy(m0.disc.values, "module"),
                            Discrepancy(cat.disc.values, "category"))
        f2 = PreModHom(m0, m1, f.components, rho, eps)
        if not theta.in_hom(rho, eps):
            continue
        theta2 = PreModHom(m0, m1, theta.components, rho, eps)
        vt = cone_boundary_correction(f2, theta2)
        assert mu1_mod(vt).is_zero()
        assert vt.in_hom(0, eps.minus_first())
        # first order part preserves the action filtration
        meas = vt.measured_shifts()
        assert meas[0] <= 0
        # the two cones have equal homology ranks objectwise
        from filtcones.filtcx import homology_rank
        for x in vt.source.values:
            assert homology_rank(vt.source.value(x)) == \
                homology_rank(vt.target.value(x))


# -- pullbacks -----------------------------------------------------------------

def test_pullback_identity_functor():
    cat = chain_category()
    m = yoneda_module(cat, "L0")
    F = WFFunctor(cat, {o: o for o in cat.objects},
                  {1: {(g,): cat.hom(*cat.gen_hom[g]).basis_chain(g)
                       for g in cat.gen_hom}},
                  Discrepancy.zero(cat.cap, "hom"))
    pm = pullback_module(F, m)
    assert pm.values.keys() == m.values.keys()
    for d in range(2, cat.cap + 1):
        assert pm.mu_tables.get(d, {}) == m.mu_tables.get(d, {})


def test_pullback_disc_formula():
    cap = 5
    c = Fraction(1, 2)
    fd = Discrepancy([c, 0, 0, 0, 0], "hom")
    md = Discrepancy([0, 1, 1, 2, 2], "module")
    out = pullback_disc(fd, md)
    for d in range(2, cap + 1):
        assert out[d] == (d - 1) * c + md[d]


def test_pullback_shifted_category():
    # identity functor into the same category with actions lowered by c:
    # F_1 raises action by c, higher terms vanish
    c = Fraction(1, 2)
    cat = chain_category()
    shifted_homs = {k: v.shift_actions(-c) for k, v in cat.homs.items()}
    from filtcones.wfainf import WFCategory
    cat2 = WFCategory(cat.objects, shifted_homs, cat.mu_tables,
                      Discrepancy([0] + [cat.disc[d] + 2 * c
                                         for d in range(2, cat.cap + 1)],
                                  "category"),
                      cap=cat.cap, check=False)
    m = yoneda_module(cat, "L0")
    F = WFFunctor(cat2, {o: o for o in cat.objects},
                  {1: {(g,): cat.hom(*cat.gen_hom[g]).basis_chain(g)
                       for g in cat2.gen_hom}},
                  Discrepancy([c] + [0] * (cat.cap - 1), "hom"))
    pm = pullback_module(F, m)
    meas = pm.measured_discrepancy()
    for d in range(2, cat.cap + 1):
        assert meas[d - 1] <= (d - 1) * c + m.disc[d]


def test_pullback_reads_a_higher_functor_component():
    """With F_2(x2, m21) = T^1 x1 the pulled-back mu_3 at (x2, m21, m10)
    is mu_2(T^1 x1, m10): the yoneda module of L0 has no mu_3, so the
    one-block splitting is the only term."""
    cat = chain_category()
    m = yoneda_module(cat, "L0")
    ident = {(g,): cat.hom(*cat.gen_hom[g]).basis_chain(g)
             for g in cat.gen_hom}
    F = WFFunctor(cat, {o: o for o in cat.objects},
                  {1: ident, 2: {("x2", "m21"): {"x1": nov(1)}}},
                  Discrepancy.zero(cat.cap, "hom"))
    pm = pullback_module(F, m)
    want = {g: s.shift(1) for g, s in m.mu_gens(("x1", "m10")).items()}
    assert want and chain_eq(pm.mu_gens(("x2", "m21", "m10")), want)
    assert pm.mu_tables[2] == m.mu_tables[2]


# -- the lambda map -------------------------------------------------------------

def test_lambda_map_properties():
    cat = chain_category()
    m = yoneda_module(cat, "L0")
    y = "L1"
    cval = m.value(y)
    rng = random.Random(3)
    eps_h = Discrepancy([max(m.disc[min(d + 1, cat.cap)], 1)
                         for d in range(1, cat.cap + 1)], "hom")
    # lambda(0) = 0
    lz = lambda_map(m, y, {}, eps_h)
    assert lz.is_zero()
    for _ in range(10):
        exps = {Fraction(rng.randint(0, 4), 2)}
        c = {rng.choice(cval.generators): NovikovScalar(exps, cval.cutoff)}
        if not cval.is_cycle(c):
            continue
        lam = lambda_map(m, y, c, eps_h)
        # chain map: mu1_mod(lambda(c)) = lambda(mu_1 c) = 0 for cycles
        assert mu1_mod(lam).is_zero()
        # action bound: lands in hom^{<= A(c); eps_h}
        assert lam.in_hom(action_level(c, cval), eps_h)
    # eq:eh-emm violation rejected
    bad = Discrepancy([0] * cat.cap, "hom")
    big_disc = Discrepancy([0] + [1] * (cat.cap - 1), "module")
    m2 = yoneda_module(cat, "L0")
    m2.disc = big_disc
    with pytest.raises(WfError):
        lambda_map(m2, y, {cval.generators[0]: nov(0)}, bad)


# -- the relation checks and module maps against their oracles ----------------

def _subject(rng, kind):
    """A category or module to mutate: the category of a random MC tower,
    ``chain_category``, a Yoneda module of it, a tower's K_r, or a cone of
    ``chain_category``."""
    if kind in ("tower category", "tower module"):
        cat, _, k, _, _ = build_random_tower(rng, nobj=rng.randint(2, 3))
        return cat if kind == "tower category" else k
    cat = chain_category()
    if kind == "chain category":
        return cat
    if kind == "yoneda":
        return yoneda_module(cat, rng.choice(["L0", "L1", "L2"]))
    j = rng.randint(1, 2)
    i = rng.randrange(j)
    m1 = yoneda_module(cat, f"L{i}")
    return cone(lambda_map(m1, f"L{j}",
                           cat.hom(f"L{j}", f"L{i}").basis_chain(f"m{j}{i}")))


def _mutate(rng, obj):
    """A copy of ``obj`` (category or module) with one random term added
    to one table entry of arity 2 or 3, and a discrepancy large enough
    that only the relations can fail."""
    is_cat = isinstance(obj, WFCategory)
    cat = obj if is_cat else obj.cat
    home = _ref_home(cat.homs)
    d = rng.choice([2, 2, 3])
    if is_cat:
        tuples = list(_ref_cat_tuples(cat, home, d))
    else:
        tuples = list(_ref_mod_tuples(obj, d))
    tables = {e: dict(t) for e, t in obj.mu_tables.items()}
    if tuples:
        gens = rng.choice(tuples)
        src = home[gens[0]][0]
        out = cat.homs.get((src, home[gens[-1]][1])) if is_cat else \
            obj.values.get(src)
        if out is not None and out.generators:
            term = {rng.choice(out.generators):
                    nov(Fraction(rng.randint(0, 4), 2))}
            table = tables.setdefault(d, {})
            table[gens] = chain_add(table.get(gens, {}), term)
    big = Discrepancy([0] + [100] * (cat.cap - 1),
                      "category" if is_cat else "module")
    if is_cat:
        return WFCategory(cat.objects, cat.homs, tables, big, cap=cat.cap,
                          check=False)
    return WFModule(cat, obj.values, tables, big, check=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32),
       st.sampled_from(["tower category", "chain category", "yoneda",
                        "tower module", "cone"]))
def test_relation_checks_match_the_oracles(seed, kind):
    """The checks raise exactly when the oracle finds a failing tuple,
    and name the oracle's first one."""
    rng = random.Random(seed)
    obj = _mutate(rng, _subject(rng, kind))
    if isinstance(obj, WFCategory):
        want, check = ref_check_ainf_relations(obj), obj.check_ainf_relations
        message = "A-infinity relation fails at {}"
    else:
        want, check = ref_check_module_relations(obj), \
            obj.check_module_relations
        message = "module relation fails at {}"
    if want is None:
        check()
    else:
        with pytest.raises(WfError) as exc:
            check()
        assert str(exc.value) == message.format(want)


def _any_prehom(rng, m0, m1, max_arity=3):
    """Random components on the module tuples of m0 that land where m1
    has a value."""
    comps = {}
    for d in range(1, max_arity + 1):
        for gens in m0.tuples(d):
            x = m0.cat.gen_hom[gens[0]][0] if d > 1 else m0.gen_value[gens[0]]
            if x in m1.values and rng.random() < 0.5:
                g = rng.choice(m1.value(x).generators)
                comps.setdefault(d, {})[gens] = \
                    {g: nov(Fraction(rng.randint(0, 4), 2))}
    return PreModHom(m0, m1, comps, 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.booleans())
def test_module_maps_match_the_oracles(seed, tower):
    """mu1_mod and mu2_mod on random pre-module maps between Yoneda modules
    of ``chain_category``, or into and out of a random tower's K_r."""
    rng = random.Random(seed)
    if tower:
        cat, _, k, _, _ = build_random_tower(rng, nobj=rng.randint(2, 3))
        m0 = yoneda_module(cat, rng.choice(["L0", "L1"]))
        mods = [m0, k, yoneda_module(cat, "L0")]
    else:
        cat = chain_category()
        mods = [yoneda_module(cat, f"L{i}") for i in (2, 1, 0)]
    f = _any_prehom(rng, mods[0], mods[1])
    g = _any_prehom(rng, mods[1], mods[2])
    assert mu1_mod(f).components == ref_mu1_mod(f)
    assert mu1_mod(g).components == ref_mu1_mod(g)
    assert mu2_mod(f, g).components == ref_mu2_mod(f, g)
