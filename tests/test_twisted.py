import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from filtcones.novikov import INF, NovikovScalar
from filtcones.filtcx import (
    FilteredComplex, FilteredMap, action_level, chain_eq,
    chain_left_inverse_action, field_rank, homology_rank,
)
from filtcones.wfainf import (
    Discrepancy, PreModHom, cone, cone_boundary_correction, cone_compose,
    mu1_mod, mu2_mod, yoneda_module,
)
from filtcones import twisted, wfainf
from filtcones.twisted import (
    IteratedConeSpec, TwistedData, TwistedError, TwistedEntry, assemble_twisted_mu1,
    audit_structure_theorem, bounds_chi_xi, build_iterated_cone,
    check_rho_subadditive, check_twisted_square_zero, cone_replace,
    retract_energy, twisted_value_complex, weight_wp,
)

from support import (
    random_chain_map, random_complex, random_cycle_in, ref_chain_left_inverses,
    ref_left_inverse_action, strict_dg_category, strict_right_mult_hom,
)

CUT = 64


def nov(*exps):
    return NovikovScalar(exps, CUT)


def build_random_tower(rng, nobj=3, sigma=Fraction(1, 2)):
    """Iterated cone over the strict dg category with random attaching
    cycles; returns (cat, objects, K_r, extracted twisted data, rhos)."""
    cat = strict_dg_category(nobj=nobj, sigma=sigma)
    objs = [f"L{i}" for i in range(nobj)]
    k = yoneda_module(cat, "L0")
    cycles = {}
    rhos = [Fraction(0)]
    for j in range(1, nobj):
        src = yoneda_module(cat, f"L{j}")
        cval = k.value(f"L{j}")
        c = random_cycle_in(rng, cval)
        f = strict_right_mult_hom(cat, src, k, c)
        assert mu1_mod(f).is_zero()
        # record the components of c as twisted data entries c_{j,p}
        for g, s in c.items():
            tgt = cat.gen_hom[g][1]
            p = int(tgt[1:])
            cyc = cycles.setdefault((j, p), {})
            cyc[g] = s
        rhos.append(f.shift)
        k = cone(f, f.shift, Discrepancy.zero(cat.cap, "hom"))
    data = TwistedData(cat, objs, cycles, require_cycles=False)
    return cat, objs, k, data, rhos


def test_symbolic_matrix_r1_r2():
    cat = strict_dg_category(nobj=3)
    objs = ["L0", "L1", "L2"]
    data = TwistedData(cat, objs, {}, require_cycles=False)
    sym, _ = assemble_twisted_mu1(cat, objs, data)
    assert sym[(0, 1)] == TwistedEntry([(2, (((1, 0),)))])
    # r = 2 matrix matches the displayed shape entry for entry
    assert sym[(0, 2)] == TwistedEntry([
        (2, ((2, 0),)),
        (3, ((2, 1), (1, 0))),
    ])
    assert sym[(1, 2)] == TwistedEntry([(2, ((2, 1),))])
    assert sym[(0, 0)] == TwistedEntry([(1, ())])
    assert (1, 0) not in sym and (2, 0) not in sym and (2, 1) not in sym


def test_zero_data_block_diagonal():
    cat = strict_dg_category(nobj=3)
    objs = ["L0", "L1", "L2"]
    data = TwistedData(cat, objs, {}, require_cycles=False)
    cx = twisted_value_complex(cat, objs, data, "X")
    for g in cx.generators:
        base, blk = g.rsplit("@", 1)
        for h in cx.diff[g]:
            assert h.rsplit("@", 1)[1] == blk
    assert check_twisted_square_zero(cat, objs, data, "X")


def test_square_zero_random_mc_towers():
    rng = random.Random(99)
    for _ in range(30):
        nobj = rng.randint(2, 5)
        cat, objs, k, data, _ = build_random_tower(rng, nobj=nobj)
        assert check_twisted_square_zero(cat, objs, data, "X")
        # the assembled twisted complex IS the cone complex (sigma = id)
        cx = twisted_value_complex(cat, objs, data, "X")
        kx = k.value("X")
        assert set(g.rsplit("@", 1)[0] for g in cx.generators) == set(kx.generators)
        for g in cx.generators:
            base, blk = g.rsplit("@", 1)
            want = {f"{h}@{int(cat.gen_hom[h][1][1:])}": s
                    for h, s in kx.diff[base].items()}
            assert chain_eq(cx.diff[g], want)


def test_square_zero_detects_bad_data():
    rng = random.Random(2)
    cat = strict_dg_category(nobj=3)
    objs = ["L0", "L1", "L2"]
    # random non-solution: c20 chosen so that mu1(c20) != mu2(c21, c10)
    c10 = {"one[L1,L0]": nov(0)}
    c21 = {"one[L2,L1]": nov(0)}
    c20 = {"eps[L2,L0]": nov(0)}  # d(eps) = T^sigma one != mu2(c21, c10)
    data = TwistedData(cat, objs, {(1, 0): c10, (2, 1): c21, (2, 0): c20},
                       require_cycles=False)
    assert not check_twisted_square_zero(cat, objs, data, "X")


def test_build_iterated_cone_ledger():
    rng = random.Random(5)
    cat = strict_dg_category(nobj=3)
    objs = ["L0", "L1", "L2"]
    k0 = yoneda_module(cat, "L0")

    def phi1(k):
        return strict_right_mult_hom(
            cat, yoneda_module(cat, "L1"), k,
            random_cycle_in(rng, k.value("L1")))

    def phi2(k):
        return strict_right_mult_hom(
            cat, yoneda_module(cat, "L2"), k,
            random_cycle_in(rng, k.value("L2")))

    d1 = Discrepancy([Fraction(1, 2)] + [1] * (cat.cap - 1), "hom")
    d2 = Discrepancy([Fraction(1, 4)] + [2] * (cat.cap - 1), "hom")
    spec = IteratedConeSpec(cat, objs, [phi1, phi2], [2, 3], [d1, d2])
    k, ledger = build_iterated_cone(spec)
    assert len(ledger) == 3
    for d in range(1, cat.cap + 1):
        assert ledger[1][d] == max(cat.disc[d], d1[d] - d1[1])
        assert ledger[2][d] == max(ledger[1][d], d2[d] - d2[1])
    assert k.disc.values == ledger[2].values
    # r = 0: the cone tower degenerates to the Yoneda module
    spec0 = IteratedConeSpec(cat, ["L0"], [], [], [])
    k0b, ledger0 = build_iterated_cone(spec0)
    assert k0b.values.keys() == k0.values.keys()
    assert ledger0[0].values == tuple(cat.disc.values)


def test_build_iterated_cone_refuses_a_non_cycle():
    """Each stage computes mu1_mod of its attaching map once, in ``cone``,
    and a non-cycle is refused with the stage's number."""
    rng = random.Random(8)
    cat = strict_dg_category(nobj=3)
    objs = ["L0", "L1", "L2"]
    zero = Discrepancy.zero(cat.cap, "hom")

    def right_mult(j, c=None):
        def build(k):
            cyc = random_cycle_in(rng, k.value(f"L{j}")) if c is None else c
            return strict_right_mult_hom(cat, yoneda_module(cat, f"L{j}"),
                                         k, cyc)
        return build

    calls = []

    def counted(f):
        calls.append(f)
        return mu1_mod(f)

    spec = IteratedConeSpec(cat, objs, [right_mult(1), right_mult(2)],
                            [0, 0], [zero, zero])
    saved = wfainf.mu1_mod, twisted.mu1_mod
    wfainf.mu1_mod = twisted.mu1_mod = counted
    try:
        build_iterated_cone(spec)
    finally:
        wfainf.mu1_mod, twisted.mu1_mod = saved
    assert len(calls) == 2
    # eps[Lj,Li] is no cycle: d eps = T^sigma one
    bad1, bad2 = {"eps[L1,L0]": nov(0)}, {"eps[L2,L1]": nov(0)}
    for phis, stage in (([right_mult(1, bad1)], 1),
                        ([right_mult(1), right_mult(2, bad2)], 2)):
        spec = IteratedConeSpec(cat, objs[:len(phis) + 1], phis,
                                [0] * len(phis), [zero] * len(phis))
        with pytest.raises(TwistedError) as exc:
            build_iterated_cone(spec)
        assert str(exc.value) == f"attaching map {stage} is not a cycle"


def test_bounds_chi_xi():
    cap = 6
    zero = Discrepancy.zero(cap, "hom")
    chi, xi = bounds_chi_xi(0, 2, 0, Fraction(1, 2), zero, [])
    assert chi == 0 and xi == Fraction(1, 2)
    d1 = Discrepancy([1, 2, 0, 0, 0, 0], "hom")
    chi, xi = bounds_chi_xi(1, 1, 1, 0, zero, [d1])
    # chi_{1,1} = sum_{i<=2} delta_i = 3 ; xi_1 = sum_{i<=3} delta_i = 3
    assert chi == 3 and xi == 3
    # monotone in each argument
    d2 = Discrepancy([1, 2, 1, 0, 0, 0], "hom")
    chi2, xi2 = bounds_chi_xi(1, 1, 1, 0, zero, [d2])
    assert chi2 >= chi and xi2 >= xi
    chi3, xi3 = bounds_chi_xi(1, 1, 1, 1, zero, [d1])
    assert xi3 == xi + 1


def _rename_block(cx, cat):
    gens = [f"{g}@{int(cat.gen_hom[g][1][1:])}" for g in cx.generators]
    action = {f"{g}@{int(cat.gen_hom[g][1][1:])}": cx.action[g]
              for g in cx.generators}
    diff = {}
    for g in cx.generators:
        gg = f"{g}@{int(cat.gen_hom[g][1][1:])}"
        diff[gg] = {f"{h}@{int(cat.gen_hom[h][1][1:])}": s
                    for h, s in cx.diff[g].items()}
    return FilteredComplex(gens, action, diff, cx.cutoff, check=False)


def test_audit_trivial_tower():
    rng = random.Random(11)
    cat, objs, k, data, rhos = build_random_tower(rng, nobj=3)
    kx = _rename_block(k.value("X"), cat)
    mx = twisted_value_complex(cat, objs, data, "X",
                               actions={j: {g: k.value("X").action[g]
                                            for g in cat.hom("X", o).generators}
                                        for j, o in enumerate(objs)})
    ident = FilteredMap.identity(kx)
    sigma1 = FilteredMap(kx, mx, {g: {g: nov(0)} for g in kx.generators}, 0)
    rep = audit_structure_theorem(cat, objs, kx, mx, sigma1)
    assert rep["ok"], rep
    assert rep["sigma1_shift"] <= 0
    assert rep["sigma1_inverse_shift"] == ref_left_inverse_action(sigma1)
    # sigma_1 = id + (d h + h d) for h(one[X,L1]) = eps[X,L0] is a chain
    # iso, upper triangular with id diagonal; its inverse id - (d h + h d)
    # raises action by 3/2
    mat = {g: {g: nov(0)} for g in kx.generators}
    mat["one[X,L1]@1"]["one[X,L0]@0"] = nov(Fraction(1, 2))
    mat["eps[X,L1]@1"]["eps[X,L0]@0"] = nov(Fraction(1, 2))
    sigma1 = FilteredMap(kx, mx, mat, 0)
    assert sigma1.is_chain_map()
    rep = audit_structure_theorem(cat, objs, kx, mx, sigma1)
    assert rep["error"] == "sigma_1^{-1} raises action"
    assert rep["sigma1_inverse_shift"] == ref_left_inverse_action(sigma1) \
        == Fraction(3, 2)
    # an injective chain map into a larger complex is no isomorphism
    big = FilteredComplex([*mx.generators, "z@0"], {**mx.action, "z@0": 0},
                          mx.diff, CUT)
    rep = audit_structure_theorem(
        cat, objs, kx, big,
        FilteredMap(kx, big, {g: {g: nov(0)} for g in kx.generators}, 0))
    assert rep["error"] == "sigma_1 not invertible"


def test_audit_corrected_tower():
    """Nontrivial sigma_1 produced by the cone correction lemmas."""
    rng = random.Random(23)
    cat = strict_dg_category(nobj=2)
    objs = ["L0", "L1"]
    m0 = yoneda_module(cat, "L1")
    m1 = yoneda_module(cat, "L0")
    c1 = random_cycle_in(rng, m1.value("L1"))
    lam = strict_right_mult_hom(cat, m0, m1, c1)
    # theta: a random pre-module correction
    theta_comps = {1: {}}
    for g, x in m0.gen_value.items():
        if x in m1.values and rng.random() < 0.7:
            tgt = m1.value(x)
            theta_comps[1][(g,)] = {rng.choice(tgt.generators):
                                    nov(Fraction(rng.randint(0, 2), 2))}
    eps = Discrepancy([2] * cat.cap, "hom")
    rho = Fraction(3)
    theta = PreModHom(m0, m1, theta_comps, rho, eps)
    lam2 = PreModHom(m0, m1, lam.components, rho, eps)
    f = lam2.add(mu1_mod(theta))
    f = PreModHom(m0, m1, f.components, rho, eps)
    # vartheta: Cone(f) -> Cone(f + mu1 theta) = Cone(lambda(c1))
    vt = cone_boundary_correction(f, theta)
    assert mu1_mod(vt).is_zero()
    kx = _rename_block(vt.source.value("X"), cat)
    mx = _rename_block(vt.target.value("X"), cat)
    mat = {}
    for (g,), img in vt.components[1].items():
        if vt.source.gen_value[g] != "X":
            continue
        gg = f"{g}@{int(cat.gen_hom[g][1][1:])}"
        mat[gg] = {f"{h}@{int(cat.gen_hom[h][1][1:])}": s
                   for h, s in img.items()}
    sigma1 = FilteredMap(kx, mx, mat, 0)
    rep = audit_structure_theorem(cat, objs, kx, mx, sigma1, xi_r=1)
    assert rep["ok"], rep
    assert rep["sigma1_inverse_shift"] <= 0
    assert rep["sigma1_inverse_shift"] == ref_left_inverse_action(sigma1)
    # a deliberately shifted sigma fails the diagonal check
    bad = dict(mat)
    g0 = next(iter(bad))
    bad[g0] = {list(bad[g0])[0]: nov(Fraction(1, 2))}
    rep_bad = audit_structure_theorem(cat, objs, kx, mx,
                                      FilteredMap(kx, mx, bad, 0))
    assert not rep_bad["ok"]


# -- retract energy ------------------------------------------------------------


def zero_diff_complex(names, actions, cutoff=CUT):
    return FilteredComplex(list(names), dict(zip(names, actions)),
                           {n: {} for n in names}, cutoff)


def map_columns(f):
    return [f.matrix[g] for g in f.domain.generators]


def test_retract_energy_identity_and_monomials():
    cx = zero_diff_complex(["x"], [0])
    ident = FilteredMap.identity(cx)
    lo, up = retract_energy(ident)
    assert lo == up == 0
    cy = zero_diff_complex(["y"], [0])
    s = Fraction(3, 2)
    f = FilteredMap(cx, cy, {"x": {"y": nov(s)}}, 0)
    lo, up = retract_energy(f)
    # g(y) = T^{-s}x gives A(g) + A(f) = s - s = 0
    assert lo == up == 0
    # f = 0 into a nonzero target
    z = FilteredMap.zero_map(cx, cy)
    lo, up = retract_energy(z)
    assert lo >= INF and up >= INF


def test_retract_energy_finite_when_the_determinant_is_a_unit():
    # f = [[1, T^(1/2)], [T^(1/2), 1]] has det 1 + T, a unit; its inverse
    # (1 + T)^(-1) [[1, T^(1/2)], [T^(1/2), 1]] has hom-action 0, so rho = 0
    cx = zero_diff_complex(["x1", "x2"], [0, 0])
    cy = zero_diff_complex(["y1", "y2"], [0, 0])
    h = Fraction(1, 2)
    f = FilteredMap(cx, cy, {"x1": {"y1": nov(0), "y2": nov(h)},
                             "x2": {"y1": nov(h), "y2": nov(0)}}, 0)
    lo, up = retract_energy(f)
    assert up < INF
    assert lo == up == 0


def test_retract_energy_reads_a_series_inverse_at_its_precision():
    # with a differential: f = (1 + T) id has the chain-map inverse
    # sum_k T^k id, a series of action 0, so rho = 0
    acts = {"x": 0, "y": 0, "z": 0}
    cx = FilteredComplex(list(acts), acts, {"y": {"x": nov(0)}}, CUT)
    f = FilteredMap(cx, cx, {g: {g: nov(0, 1)} for g in acts}, 0)
    assert retract_energy(f) == (0, 0)
    # with d y = T x1 + x2, this f has a series inverse that is a chain map
    acts = {"x1": 0, "x2": 0, "y": 0}
    cx = FilteredComplex(list(acts), acts, {"y": {"x1": nov(1), "x2": nov(0)}},
                         CUT)
    f = FilteredMap(cx, cx, {"x1": {"x1": nov(0), "x2": nov(0)},
                             "x2": {"x1": nov(2), "x2": nov(0)},
                             "y": {"y": nov(0, 1)}}, 0)
    assert f.is_chain_map()
    assert retract_energy(f) == (0, 0)
    # scaled by T^-1, g scales by T: A(g) + A(f) = -1 + 1, read exactly
    # with no cut to lose a tail
    f = FilteredMap(cx, cx, {x: {y: s.shift(-1) for y, s in col.items()}
                             for x, col in f.matrix.items()}, 0)
    assert chain_left_inverse_action(f) == -1
    assert retract_energy(f) == (0, 0)


def brute_force_rho_monomial(f):
    """Oracle: minimize max(A(g)+A(f), 0) over monomial left inverses."""
    C, D = f.domain, f.codomain
    from itertools import product
    if C.dim != 1 or D.dim < 1:
        raise ValueError("oracle limited to 1-dim domains")
    c = C.generators[0]
    best = None
    a_f = f.measured_shift()
    col = f.matrix.get(c, {})
    for d, s in col.items():
        for e in s.exps:
            # g(d) = T^{-e} c inverts the term; check it really inverts
            g = FilteredMap(D, C, {d: {c: nov(-e)}}, 0)
            comp = g.compose(f)
            if chain_eq(comp.apply(C.basis_chain(c)), C.basis_chain(c)):
                val = max(Fraction(0), g.measured_shift() + a_f)
                best = val if best is None else min(best, val)
    return best


def test_retract_energy_vs_bruteforce_random():
    rng = random.Random(31)
    count = 0
    for _ in range(40):
        a_x = Fraction(rng.randint(-2, 2), 2)
        a_ys = [Fraction(rng.randint(-2, 2), 2) for _ in range(rng.randint(1, 3))]
        cx = zero_diff_complex(["x"], [a_x])
        names = [f"y{i}" for i in range(len(a_ys))]
        cy = zero_diff_complex(names, a_ys)
        col = {}
        for n in names:
            if rng.random() < 0.7:
                col[n] = nov(Fraction(rng.randint(0, 4), 2))
        if not col:
            continue
        f = FilteredMap(cx, cy, {"x": col}, 0)
        lo, up = retract_energy(f)
        assert lo == up
        oracle = brute_force_rho_monomial(f)
        assert oracle is not None
        assert up <= oracle  # the engine may beat single-term inverses
        # and the engine value is the least action of a basic solution
        assert up == max(Fraction(0),
                         ref_left_inverse_action(f) + f.measured_shift())
        count += 1
    assert count >= 25


def test_retract_energy_dim_upto_4_exact():
    rng = random.Random(43)
    done = 0
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rng.randint(n, 4)
        cx = zero_diff_complex([f"x{i}" for i in range(n)],
                               [Fraction(rng.randint(-2, 2), 2) for _ in range(n)])
        cy = zero_diff_complex([f"y{i}" for i in range(m)],
                               [Fraction(rng.randint(-2, 2), 2) for _ in range(m)])
        mat = {}
        for i, g in enumerate(cx.generators):
            col = {}
            for j, h in enumerate(cy.generators):
                if rng.random() < 0.5 or j == i:
                    col[h] = nov(Fraction(rng.randint(0, 3), 2))
            mat[g] = col
        f = FilteredMap(cx, cy, mat, 0)
        lo, up = retract_energy(f)
        assert (up >= INF) == (field_rank(map_columns(f)) < n)
        if up >= INF:
            continue
        assert lo == up
        done += 1
    assert done >= 15


def _rationals(lo, hi, dens):
    return st.sampled_from(dens).flatmap(
        lambda q: st.integers(lo * q, hi * q).map(lambda k: Fraction(k, q)))


@st.composite
def zero_diff_maps(draw):
    """f: C -> D between zero-differential complexes, dim C <= 3 and
    dim D <= 4, entries of 1-3 terms with exponents in [-2, 6] (some
    entries zero), so non-injective maps occur too."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    act = _rationals(-2, 2, [2, 3])
    cx = zero_diff_complex([f"x{i}" for i in range(n)],
                           [draw(act) for _ in range(n)])
    cy = zero_diff_complex([f"y{i}" for i in range(m)],
                           [draw(act) for _ in range(m)])
    scalar = st.lists(_rationals(-2, 6, [1, 2, 3]), min_size=1,
                      max_size=3).map(lambda exps: nov(*exps))
    mat = {g: {h: draw(scalar) for h in cy.generators if draw(st.booleans())}
           for g in cx.generators}
    return FilteredMap(cx, cy, mat, 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(zero_diff_maps())
def test_retract_energy_matches_the_basic_solution_oracle(f):
    lo, up = retract_energy(f)
    ref = ref_left_inverse_action(f)
    assert (ref is None) == (field_rank(map_columns(f)) < f.domain.dim)
    if ref is None:
        assert lo >= INF and up >= INF
    else:
        assert lo == up == max(Fraction(0), ref + f.measured_shift())


def test_left_inverse_action_of_a_map_with_a_nonunit_determinant():
    # det = T^-2 (1 + T); the inverse T^2/(1 + T) [[1, T^-1], [T^-1, T^-1]]
    # lowers action by 1
    cx = zero_diff_complex(["x1", "x2"], [0, 0])
    cy = zero_diff_complex(["y1", "y2"], [0, 0])
    f = FilteredMap(cx, cy, {"x1": {"y1": nov(-1), "y2": nov(-1)},
                             "x2": {"y1": nov(-1), "y2": nov(0)}}, 0)
    assert chain_left_inverse_action(f) == ref_left_inverse_action(f) == -1
    # a rank-1 map has no left inverse
    f = FilteredMap(cx, cy, {"x1": {"y1": nov(0)}, "x2": {"y1": nov(1)}}, 0)
    assert chain_left_inverse_action(f) == INF
    assert ref_left_inverse_action(f) is None


def test_retract_energy_refuses_a_field_inverse_that_is_no_chain_map():
    # f: x -> b into a -> b is zero on H(C) != 0, so no g has g f ~ id;
    # g(b) = x inverts f over the field but is not a chain map.  C has no
    # differential, so the lower bound is infinite too
    cx = zero_diff_complex(["x"], [0])
    cy = FilteredComplex(["a", "b"], {"a": 1, "b": 0}, {"a": {"b": nov(0)}},
                         CUT)
    f = FilteredMap(cx, cy, {"x": {"b": nov(0)}}, 0)
    assert f.is_chain_map()
    assert retract_energy(f) == (INF, INF)


def test_retract_energy_finds_a_chain_map_left_inverse_off_the_least_action():
    # the least-action field left inverse g(b) = x is no chain map (g d a =
    # T x, d g a = 0), while g'(y) = x is one with g' f = id: rho <= 1.
    # C has no differential, so g f ~ id forces g f = id and rho = 1
    cx = zero_diff_complex(["x"], [0])
    cy = FilteredComplex(["a", "b", "y"], {"a": 2, "b": 1, "y": 0},
                         {"a": {"b": nov(1)}}, CUT)
    f = FilteredMap(cx, cy, {"x": {"y": nov(0), "b": nov(0)}}, 0)
    assert f.is_chain_map()
    # the least field left inverse lies below every chain-map one
    assert ref_left_inverse_action(f) == -1 < chain_left_inverse_action(f)
    assert chain_left_inverse_action(f) == 0
    assert retract_energy(f) == (1, 1)


def test_chain_left_inverse_action_is_exact_where_a_cut_run_is_not():
    # this map's elimination, run modulo t^727, left entries off the
    # pivots at t^725 and t^726 and read no solution; the exact run reads 1
    rng = random.Random(11)
    for _ in range(98):
        f, _ = random_chain_map(rng, n=rng.randint(2, 4), qden=2)
    assert f.measured_shift() == -1
    assert chain_left_inverse_action(f) == 1
    assert retract_energy(f) == (0, 0)


# monomial exponents of the enumerated left inverses
LEFT_INVERSE_EXPS = [Fraction(k, 2) for k in range(-3, 4)]


def test_chain_left_inverse_action_vs_enumerated_left_inverses():
    """Every chain map g: D -> C with g f = id and monomial entries T^e, e
    in [-3/2, 3/2], on random complexes of dimension at most 3 and chain
    maps f with monomial entries: the least action is at most the least
    A(g) found, so it is finite whenever one is found."""
    rng = random.Random(5)
    found = with_diff = 0
    for _ in range(1000):
        C = random_complex(rng, n=rng.randint(1, 3), qden=2, cutoff=CUT)
        D = random_complex(rng, n=rng.randint(1, 3), qden=2, cutoff=CUT)
        f = FilteredMap(C, D, {x: {y: nov(Fraction(rng.randint(-1, 2), 2))
                                   for y in D.generators if rng.random() < .5}
                               for x in C.generators})
        if not f.is_chain_map():
            continue
        level = chain_left_inverse_action(f)
        acts = [g.measured_shift()
                for g in ref_chain_left_inverses(f, LEFT_INVERSE_EXPS)]
        if acts:
            assert level <= min(acts)
            found += 1
            with_diff += any(C.diff.values()) or any(D.diff.values())
    assert found >= 80 and with_diff >= 20


def test_rho_subadditive_on_compositions():
    rng = random.Random(3)

    def random_map(dom, cod):
        mat = {g: {h: nov(Fraction(rng.randint(0, 3), 2))
                   for j, h in enumerate(cod.generators)
                   if rng.random() < 0.5 or j == i}
               for i, g in enumerate(dom.generators)}
        return FilteredMap(dom, cod, mat, 0)

    finite = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(n, 4)
        k = rng.randint(m, 4)
        cx, cy, cz = (zero_diff_complex(
            [f"{p}{i}" for i in range(d)],
            [Fraction(rng.randint(-2, 2), 2) for _ in range(d)])
            for p, d in (("x", n), ("y", m), ("z", k)))
        f, fp = random_map(cx, cy), random_map(cy, cz)
        if max(retract_energy(h)[1] for h in (f, fp, fp.compose(f))) < INF:
            finite += 1
        assert check_rho_subadditive(f, fp)
    # 138 of the 150 pairs are finite; a solver that returned INF on
    # injective maps left 48, and the check passed vacuously on the rest
    assert finite >= 100


def test_rho_subadditive():
    rng = random.Random(7)
    cx = zero_diff_complex(["x"], [0])
    cy = zero_diff_complex(["y"], [0])
    cz = zero_diff_complex(["z"], [0])
    f = FilteredMap(cx, cy, {"x": {"y": nov(Fraction(1, 2))}}, 0)
    fp = FilteredMap(cy, cz, {"y": {"z": nov(Fraction(2))}}, 0)
    assert check_rho_subadditive(f, fp)
    ident = FilteredMap.identity(cy)
    # f' = id gives equality
    lo, up = retract_energy(f)
    loc, upc = retract_energy(ident.compose(f))
    assert upc == up
    for _ in range(10):
        a = FilteredMap(cx, cy, {"x": {"y": nov(Fraction(rng.randint(0, 4), 2))}}, 0)
        b = FilteredMap(cy, cz, {"y": {"z": nov(Fraction(rng.randint(0, 4), 2))}}, 0)
        assert check_rho_subadditive(a, b)


def test_weight_wp():
    cx = zero_diff_complex(["x"], [0])
    ident = FilteredMap.identity(cx)
    assert weight_wp([ident]) == 0
    f = FilteredMap(cx, cx, {"x": {"x": nov(Fraction(2))}}, 0)
    assert weight_wp([f, ident]) == 0
    g = FilteredMap(cx, cx, {"x": {"x": nov(Fraction(1, 2))}}, 0)
    w1 = weight_wp([g])
    w2 = weight_wp([f])
    assert weight_wp([f, g]) == min(w1, w2)


def test_cone_replace_bound():
    rng = random.Random(3)
    cat = strict_dg_category(nobj=2)
    mN = yoneda_module(cat, "L1")
    mK = yoneda_module(cat, "L0")
    c = random_cycle_in(rng, mK.value("L1"))
    phi = strict_right_mult_hom(cat, mN, mK, c)
    # N' = N with identity u, v and xi = 0
    u = PreModHom.identity(mN)
    v = PreModHom.identity(mN)
    xi = PreModHom.zero(mN, mN)
    m1, m1p, up, vp, xip, bound = cone_replace(phi, u, v, xi)
    assert bound == 0
    # v' u' is homotopic to id via xi' (here: equal on the nose)
    comp = mu2_mod(up, vp)
    ident = PreModHom.identity(m1)
    delta = comp.add(ident)
    corr = mu1_mod(xip)
    assert delta.add(corr).is_zero()
    from filtcones.twisted import rho_upper_from_witness
    upb = rho_upper_from_witness(up, vp, xip)
    assert upb <= max(bound, 0)
