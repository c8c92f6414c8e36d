"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them)."""

import random
from fractions import Fraction as F

import pytest

from filtcones.novikov import INF, NovikovScalar
from filtcones.filtcx import (
    FilteredComplex, FilteredMap,
    boundary_depth_elem, boundary_level, chain_add, delta_d,
    field_rank, find_robust_subspace, homology_rank, hom_complex,
    is_delta_robust, map_to_chain, verify_rig_cplx2,
)
from filtcones.wfainf import (
    Discrepancy, PreModHom, check_assumption_E, choose_eps, cone,
    cone_boundary_correction, cone_compose, disc_star, mu1_mod,
    WFFunctor, mu2_mod, pullback_disc, shift_module, yoneda_module,
)
from filtcones.twisted import (
    TwistedData, TwistedEntry, assemble_twisted_mu1, audit_structure_theorem,
    check_twisted_square_zero, cone_replace,
    retract_energy, rho_upper_from_witness,
)
from filtcones.surface.curves import GeometryError, TorusCurve, intersections
from filtcones.surface.floer import floer_complex, hf_rank
from filtcones.surface.shadow import PlanarDiagram, planar_shadow
from filtcones.scenarios import (
    connected_small_shadow_footprint, disjoint_union_space, lem_ex1_space,
    trace_surgery_space,
)

from support import (
    check_rho_subadditive, oracle_boundary_level, random_boundary,
    random_complex,
    random_split_complex, random_cycle_in, shear_diagram, strict_dg_category,
    strict_right_mult_hom, nov as mknov,
)

EPS, DELTA = F(1, 8), F(1, 256)


def criterion(num, desc, ok):
    print(f"ACCEPTANCE {num}: {desc} ... {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def lem_space():
    return lem_ex1_space(EPS, DELTA)


def test_criterion_1_lem_ex1_metrics(lem_space):
    sp = lem_space
    r0 = sp.d_k("L'", "L", "F", 0)
    ok = r0.lower == r0.upper == 4 * EPS == F(1, 2)
    r4 = sp.d_k("L'", "L", "F", 4)
    ok &= r4.upper <= 2 * DELTA
    ok &= sp.moves[1].shadow == 2 * DELTA == F(1, 128)
    ok &= sp.cone_length("L'", "L", "F", None).upper == 0
    l2d = sp.cone_length("L'", "L", "F", 2 * DELTA)
    ok &= l2d.upper == 4 and l2d.lower == 4  # no <=3-end decomposition survives
    criterion(1, "d_0 = 4eps exactly, d_4 <= 2delta via the 4-surgery "
                 "trace, l = 0, l_{2delta} = 4", ok)


def test_criterion_2_lem_ex1_intersections(lem_space):
    sp = lem_space
    n, lp, l = sp.curves["N"], sp.curves["L'"], sp.curves["L"]
    count = len(intersections(n, lp))
    ranks = sum(hf_rank(n, sp.curves[f"S{i}"]) for i in range(1, 5))
    rank_l = hf_rank(n, l)
    ok = count == 4 and ranks == 4 and rank_l == 0
    ok &= count == ranks + rank_l  # equality in the intersection bound
    criterion(2, "#(N cap L') = 4 = sum rk HF(N,S_i) with rk HF(N,L) = 0",
              ok)


def test_criterion_3_trace_of_surgery():
    sp = trace_surgery_space(EPS, DELTA)
    r = sp.d_k("L''", "L", "F", 1)
    ok = r.lower == r.upper == DELTA
    ok &= "probe" in r.certificate
    criterion(3, "d_1(L'', L) = delta exactly (probe-certified lower)", ok)


def test_criterion_4_degenerate_examples():
    sp = disjoint_union_space(EPS)
    r = sp.d_k("S1", "S2", "F", 3)
    ok = (r.lower == r.upper == 0) and bool(r.witness)
    shadows = [planar_shadow(connected_small_shadow_footprint(e))
               for e in (F(1, 4), F(1, 8), F(1, 16))]
    ok &= shadows == [F(1, 4), F(1, 8), F(1, 16)]
    ok &= shadows[0] > shadows[1] > shadows[2] > 0
    criterion(4, "d^F_3(S1,S2) = 0 via disjoint union; W_eps shadows "
                 "decrease to 0 exactly", ok)


def test_criterion_5_floer_sanity():
    l = TorusCurve([(-1, 0), (1, 0)], name="L")
    s = TorusCurve([(F(-1, 2), -1), (F(-1, 2), 1)], name="S")
    ok = hf_rank(s, l) == 1
    n = TorusCurve([(-1, F(1, 2)), (1, F(1, 2))], name="N")
    ok &= hf_rank(n, l) == 0
    y, x0, x1, depth = F(1, 4), F(-1, 4), F(1, 4), F(1, 2)

    def jog(dp, name):
        return TorusCurve([(-1, y), (x0, y), (x0, y - dp), (x1, y - dp),
                           (x1, y), (1, y)], name=name)

    m_uneq = jog(depth, "M1")
    ok &= hf_rank(m_uneq, l) == 0
    w = x1 - x0
    depth_eq = (2 - w) * y / w + y
    m_eq = jog(depth_eq, "M2")
    ok &= hf_rank(m_eq, l) == 2
    # exhaustive d^2 = 0 over systems of at most 4 curves, including a
    # four-crossing double-dip curve (bigon directions must compose)
    double_dip = TorusCurve(
        [(-1, y), (F(-3, 4), y), (F(-3, 4), -y), (F(-1, 2), -y),
         (F(-1, 2), y), (0, y), (0, -y), (F(1, 4), -y), (F(1, 4), y),
         (1, y)], name="W4")
    pool = [l, s, n, m_uneq, m_eq, double_dip,
            TorusCurve([(F(1, 8), -1), (F(1, 8), 1)], name="S2")]
    pairs = 0
    for i in range(len(pool)):
        for j in range(len(pool)):
            if i == j:
                continue
            try:
                cx = floer_complex(pool[i], pool[j])  # validates d^2 = 0
            except GeometryError:
                continue
            pairs += 1
    ok &= pairs >= 20
    criterion(5, "Floer ranks 1/0/2/0 and d^2 = 0 across the small-system "
                 f"suite ({pairs} transverse pairs)", ok)


def test_criterion_6_boundary_depth_suite():
    rng = random.Random(2024)
    checked = 0
    ok = True
    while checked < 200:
        cx = random_complex(rng, n=rng.randint(2, 6))
        c, _ = random_boundary(rng, cx)
        if not c:
            continue
        b = boundary_level(c, cx)
        ok &= b == oracle_boundary_level(c, cx)
        ok &= boundary_depth_elem(c, cx) >= delta_d(cx)
        checked += 1
    hom_checked = 0
    while hom_checked < 25:
        cx = random_complex(rng, n=2)
        h = hom_complex(cx, cx)
        ch = map_to_chain(FilteredMap.identity(cx))
        if not h.is_cycle(ch):
            continue
        got = boundary_level(ch, h)
        if got >= INF:
            want = oracle_boundary_level(ch, h)
            ok &= want >= INF
        else:
            ok &= got == oracle_boundary_level(ch, h)
        hom_checked += 1
    criterion(6, "200 random complexes: boundary level matches the "
                 "brute-force oracle, beta >= delta_d; B_h oracle-checked "
                 "on hom complexes", ok)


def test_criterion_7_robust_suite():
    rng = random.Random(77)
    ok = True
    built = 0
    while built < 200:
        cx, d0, d1 = random_split_complex(rng, n=rng.randint(3, 6))
        c0 = FilteredComplex(cx.generators, cx.action, d0, cx.cutoff,
                             check=False)
        h0 = homology_rank(c0)
        h = homology_rank(cx)
        V, k = find_robust_subspace(cx, d0, d1)
        ok &= k == (h0 - h) // 2
        ok &= len(V) >= k
        built += 1
        # the returned V was verified delta_{d1}-robust inside; spot-check
        if built % 25 == 0 and any(d1[g] for g in cx.generators):
            dd1 = -FilteredMap(cx, cx, d1, 0).measured_shift()
            ok &= is_delta_robust(V, dd1, cx)
    # rank inequality of the rigidity proposition under its hypotheses
    rig_checked = 0
    while rig_checked < 40:
        cx, d0, d1 = random_split_complex(rng, n=4)
        if not any(d1[g] for g in cx.generators):
            continue
        dd1 = -FilteredMap(cx, cx, d1, 0).measured_shift()
        if dd1 <= 0:
            continue
        hmat = {}
        for g in cx.generators:
            if rng.random() < 0.5:
                tgt = rng.choice(cx.generators)
                e = cx.action[tgt] - cx.action[g] + dd1 / 2
                if e > 0:
                    hmat[g] = {tgt: NovikovScalar([e], cx.cutoff)}
        hm = FilteredMap(cx, cx, hmat, 0)
        pert = {}
        for g in cx.generators:
            val = chain_add(hm.apply(cx.diff[g]), cx.d(hm.matrix.get(g, {})))
            pert[g] = chain_add(val, {g: NovikovScalar([0], cx.cutoff)})
        f = FilteredMap(cx, cx, pert, 0)
        rep = verify_rig_cplx2(cx, d0, d1, f)
        if rep.get("hypotheses_ok"):
            ok &= rep["inequality_holds"]
            rig_checked += 1
    criterion(7, "200 split instances: k matches the homology count and V "
                 "is delta_{d1}-robust; rank inequality holds under the "
                 "hypotheses", ok)


def _tower(rng, nobj, sigma=F(1, 2)):
    cat = strict_dg_category(nobj=nobj, sigma=sigma)
    objs = [f"L{i}" for i in range(nobj)]
    k = yoneda_module(cat, "L0")
    cycles = {}
    for j in range(1, nobj):
        src = yoneda_module(cat, f"L{j}")
        c = random_cycle_in(rng, k.value(f"L{j}"))
        f = strict_right_mult_hom(cat, src, k, c)
        for g, s in c.items():
            tgt = cat.gen_hom[g][1]
            cycles.setdefault((j, int(tgt[1:])), {})[g] = s
        k = cone(f, f.shift, Discrepancy.zero(cat.cap, "hom"))
    return cat, objs, k, TwistedData(cat, objs, cycles)


def test_criterion_8_twisted_assembly():
    cat = strict_dg_category(nobj=3)
    objs = ["L0", "L1", "L2"]
    sym = assemble_twisted_mu1(cat, objs)
    ok = sym[(0, 2)] == TwistedEntry([(2, ((2, 0),)), (3, ((2, 1), (1, 0)))])
    ok &= sym[(0, 1)] == TwistedEntry([(2, ((1, 0),))])
    ok &= sym[(1, 2)] == TwistedEntry([(2, ((2, 1),))])
    rng = random.Random(31337)
    for trial in range(100):
        nobj = rng.randint(2, 5)  # towers up to r = 4
        cat, objs, k, data = _tower(rng, nobj)
        ok &= check_twisted_square_zero(cat, objs, data, "X")
    # audit on an instance assembled through the cone correction lemmas
    ok &= _audit_corrected_instance(rng)
    criterion(8, "r=2 matrix matches the displayed shape; (mu_1)^2 = 0 on "
                 "100 random dg towers up to r=4; structural audit passes",
              ok)


def _audit_corrected_instance(rng) -> bool:
    from filtcones.filtcx import FilteredMap
    cat = strict_dg_category(nobj=3)
    objs = ["L0", "L1", "L2"]
    m0 = yoneda_module(cat, "L1")
    m1 = yoneda_module(cat, "L0")
    eps = Discrepancy([2] * cat.cap, "hom")
    rho = F(3)
    c1 = random_cycle_in(rng, m1.value("L1"))
    lam1 = strict_right_mult_hom(cat, m0, m1, c1)
    theta1 = PreModHom(m0, m1, {1: {
        (g,): {rng.choice(list(m1.value(x).generators)):
               mknov([F(rng.randint(0, 2), 2)], 64)}
        for g, x in m0.gen_value.items() if x in m1.values
        if rng.random() < 0.7}}, rho, eps)
    f1 = PreModHom(m0, m1, lam1.add(mu1_mod(theta1)).components, rho, eps)
    # vartheta_1 : K1' = Cone(f1) -> M1 = Cone(lambda(c1))
    vt1 = cone_boundary_correction(f1, theta1)
    k1p, m1c = vt1.source, vt1.target
    # attach L2 to K1' and push through psi / vartheta
    m2src = yoneda_module(cat, "L2")
    c2raw = random_cycle_in(rng, k1p.value("L2"))
    phi2 = strict_right_mult_hom(cat, m2src, k1p, c2raw)
    psi2 = cone_compose(phi2, vt1)
    g = mu2_mod(phi2, vt1)  # = vt1 o phi2 : Y(L2) -> M1
    # extract the twisted cycle and the correction homotopy from g
    e2 = cat.units["L2"]
    c2 = g.apply([], e2)
    theta2_comps = {1: {}}
    for gen, x in m2src.gen_value.items():
        if x not in m1c.values:
            continue
        img = g.apply([m2src.value(x).basis_chain(gen)], e2)
        if img:
            theta2_comps[1][(gen,)] = img
    rho2 = max(phi2.shift + vt1.shift, F(4))
    eps2 = Discrepancy([4] * cat.cap, "hom")
    theta2 = PreModHom(m2src, m1c, theta2_comps, rho2, eps2)
    lam2 = strict_right_mult_hom(cat, m2src, m1c, c2)
    recon = lam2.add(mu1_mod(theta2))
    if not recon.add(g).is_zero():
        return False  # extraction identity must hold in the strict dg case
    g2 = PreModHom(m2src, m1c, g.components, rho2, eps2)
    theta2b = PreModHom(m2src, m1c, theta2.components, rho2, eps2)
    vt2 = cone_boundary_correction(g2, theta2b)
    sigma = mu2_mod(psi2, vt2)

    def block(gen):
        return int(cat.gen_hom[gen][1][1:])

    def rename(cx):
        gens = [f"{g}@{block(g)}" for g in cx.generators]
        action = {f"{g}@{block(g)}": cx.action[g] for g in cx.generators}
        diff = {f"{g}@{block(g)}":
                {f"{h}@{block(h)}": s for h, s in cx.diff[g].items()}
                for g in cx.generators}
        return FilteredComplex(gens, action, diff, cx.cutoff, check=False)

    kx = rename(sigma.source.value("X"))
    mx = rename(sigma.target.value("X"))
    mat = {}
    for (gen,), img in sigma.components.get(1, {}).items():
        if sigma.source.gen_value[gen] != "X":
            continue
        mat[f"{gen}@{block(gen)}"] = {f"{h}@{block(h)}": s
                                      for h, s in img.items()}
    sigma1 = FilteredMap(kx, mx, mat, 0)
    rep = audit_structure_theorem(cat, objs, kx, mx, sigma1)
    return rep["ok"]


def test_criterion_9_discrepancy_calculus():
    rng = random.Random(5)
    cap = 5
    ok = True
    for _ in range(500):
        em = Discrepancy([0] + [F(rng.randint(0, 6), 2) for _ in range(cap - 1)],
                         "module")
        ea = Discrepancy([0] + [F(rng.randint(0, 6), 2) for _ in range(cap - 1)],
                         "category")
        d1 = Discrepancy([F(rng.randint(0, 4), 2) for _ in range(cap)], "hom")
        d2 = Discrepancy([F(rng.randint(0, 4), 2) for _ in range(cap)], "hom")
        ef, _ = choose_eps(d1, em, ea)
        eg, _ = choose_eps(d2, em, ea)
        ok &= check_assumption_E(disc_star(ef, eg), em, ea)
    # cone filtration table identity on random modules
    cat = strict_dg_category(nobj=2, cap=cap)
    m0 = yoneda_module(cat, "L1")
    m1 = yoneda_module(cat, "L0")
    for _ in range(20):
        rho = F(rng.randint(0, 8), 2)
        epsf = Discrepancy([F(rng.randint(0, 6), 2) for _ in range(cap)],
                           "hom")
        f = PreModHom(m0, m1, {}, rho, epsf)
        c = cone(f, rho, epsf)
        table = c.action_table()
        for g, x in m0.gen_value.items():
            if x in c.values:
                ok &= table[g] == m0.value(x).action[g] + rho + epsf[1]
        for g, x in m1.gen_value.items():
            if x in c.values:
                ok &= table[g] == m1.value(x).action[g]
        for d in range(1, cap + 1):
            ok &= c.disc[d] == max(m0.disc[d], m1.disc[d], epsf[d] - epsf[1])
        # the action-shift identity, as an equality of tables
        nu = F(rng.randint(-4, 4), 2)
        lhs = shift_module(c, nu).action_table()
        f2 = PreModHom(shift_module(m0, nu), shift_module(m1, nu),
                       f.components, rho, epsf)
        ok &= lhs == cone(f2, rho, epsf).action_table()
        f3 = PreModHom(m0, shift_module(m1, nu), f.components, rho - nu, epsf)
        ok &= lhs == cone(f3, rho - nu, epsf).action_table()
    # pull-back special case: (d-1) eps_1^F + eps_d^M, exactly
    for _ in range(20):
        c1 = F(rng.randint(0, 4), 2)
        fd = Discrepancy([c1] + [0] * (cap - 1), "hom")
        md = Discrepancy([0] + [F(rng.randint(0, 6), 2)
                                for _ in range(cap - 1)], "module")
        ident = WFFunctor(cat, {o: o for o in cat.objects}, {}, fd)
        out = pullback_disc(ident, md)
        ok &= all(out[d] == (d - 1) * c1 + md[d] for d in range(2, cap + 1))
    criterion(9, "disc_star closes Assumption E on 500 triples; cone "
                 "filtration and shift identities hold as tables; pull-back "
                 "special case exact", ok)


def test_criterion_10_retract_energy():
    rng = random.Random(11)
    ok = True
    done = 0
    while done < 60:
        n = rng.randint(1, 4)
        m = rng.randint(n, 4)
        cx = FilteredComplex([f"x{i}" for i in range(n)],
                             {f"x{i}": F(rng.randint(-2, 2), 2)
                              for i in range(n)},
                             {f"x{i}": {} for i in range(n)}, 64)
        cy = FilteredComplex([f"y{i}" for i in range(m)],
                             {f"y{i}": F(rng.randint(-2, 2), 2)
                              for i in range(m)},
                             {f"y{i}": {} for i in range(m)}, 64)
        mat = {}
        for i, g in enumerate(cx.generators):
            col = {}
            for j, h in enumerate(cy.generators):
                if rng.random() < 0.5 or j == i:
                    col[h] = NovikovScalar([F(rng.randint(0, 3), 2)], 64)
            mat[g] = col
        fmap = FilteredMap(cx, cy, mat, 0)
        lo, up = retract_energy(fmap)[:2]
        cols = [mat[g] for g in cx.generators]
        ok &= (up >= INF) == (field_rank(cols) < n)  # INF iff not injective
        if up >= INF:
            continue
        ok &= lo == up  # exact on zero-differential complexes
        done += 1
    # subadditivity on sampled composites
    for _ in range(30):
        cx = FilteredComplex(["x"], {"x": 0}, {"x": {}}, 64)
        cy = FilteredComplex(["y"], {"y": F(rng.randint(-2, 2), 2)},
                             {"y": {}}, 64)
        cz = FilteredComplex(["z"], {"z": 0}, {"z": {}}, 64)
        a = FilteredMap(cx, cy, {"x": {"y": NovikovScalar(
            [F(rng.randint(0, 4), 2)], 64)}}, 0)
        b = FilteredMap(cy, cz, {"y": {"z": NovikovScalar(
            [F(rng.randint(0, 4), 2)], 64)}}, 0)
        ok &= check_rho_subadditive(a, b)
    # cone replacement bound, identity and shifted variants
    cat = strict_dg_category(nobj=2)
    mN = yoneda_module(cat, "L1")
    mK = yoneda_module(cat, "L0")
    for _ in range(10):
        c = random_cycle_in(rng, mK.value("L1"))
        phi = strict_right_mult_hom(cat, mN, mK, c)
        u = PreModHom.identity(mN)
        v = PreModHom.identity(mN)
        xi = PreModHom.zero(mN, mN)
        m1, m1p, up_, vp, xip, bound = cone_replace(phi, u, v, xi)
        ok &= bound == 0
        ok &= rho_upper_from_witness(up_, vp, xip) <= bound
        # shifted factor: S^s N with identity maps, shifts cancel
        s = F(rng.randint(1, 4), 2)
        mNs = shift_module(mN, s)
        us = PreModHom(mN, mNs, PreModHom.identity(mN).components, 0)
        vs = PreModHom(mNs, mN, PreModHom.identity(mN).components, s)
        xis = PreModHom.zero(mN, mN)
        m1b, m1pb, upb, vpb, xipb, bound_b = cone_replace(phi, us, vs, xis)
        ok &= rho_upper_from_witness(upb, vpb, xipb) <= max(bound_b, 0)
        ok &= bound_b == 0  # A(u) + A(v) = -s + s = 0
    criterion(10, "rho exact (lower = upper) on zero-differential complexes "
                  "up to dim 4; subadditive; cone replacement bound holds",
              ok)


def test_criterion_11_shadow_geometry():
    ok = True
    d = PlanarDiagram()
    d.add_rect(0, 0, F(7, 3), F(3, 7))
    ok &= planar_shadow(d) == 1
    sp = lem_ex1_space(EPS, DELTA)
    ok &= sp.moves[1].shadow == 2 * DELTA
    base = PlanarDiagram(rays=[((0, 0), -1), ((4, 3), 1)])
    base.add_rect(0, 0, 2, F(3, 2))
    base.add_polyline([(2, F(3, 2)), (4, 3)])
    area0 = planar_shadow(base)
    shear_ok = all(planar_shadow(shear_diagram(base, F(k - 5, 4))) == area0
                   for k in range(10))
    ok &= shear_ok and area0 == 3
    criterion(11, "single loop area exact; 4-handle trace footprint = "
                  "2delta; shear invariance on 10 parameters", ok)
