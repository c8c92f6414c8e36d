"""Shared oracles and random generators for the test suite.

The oracles here deliberately take different algorithmic routes from the
library (plain F2 solves on bounded monomial windows, affine-set
enumeration) so that agreement is meaningful.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import ceil, floor, lcm

from filtcones.novikov import INF, NovikovScalar
from filtcones.filtcx import (
    Chain, FilteredComplex, FilteredMap, NEG_INF, action_level, chain_add,
)
from filtcones.surface.curves import (
    SIDE, Crossing, GeometryError, _seg_common, common_scale, path_from,
    scaled, segment_pairs,
)
from filtcones.surface.shadow import PlanarDiagram

Rat = Fraction


def chain_scale(s: NovikovScalar, x: Chain) -> Chain:
    """s times the chain x, term by term."""
    out = {}
    for g, t in x.items():
        u = s * t
        if u:
            out[g] = u
    return out


def ref_chain_sum(terms) -> Chain:
    """``filtcx.chain_sum`` by exponent parities: each generator keeps a
    Counter of the exponents of its terms, and no two scalars are added.
    A generator whose counts all turn even leaves the order, and its next
    odd count puts it back at the end."""
    counts, cutoff, order = {}, {}, {}
    for g, s in terms:
        counts.setdefault(g, Counter()).update(s.exps)
        cutoff[g] = s.cutoff
        if any(n % 2 for n in counts[g].values()):
            order.setdefault(g)
        else:
            order.pop(g, None)
    return {g: NovikovScalar([e for e, n in counts[g].items() if n % 2],
                             cutoff[g]) for g in order}


# ---------------------------------------------------------------------------
# brute-force boundary level via F2 solves on a monomial window
# ---------------------------------------------------------------------------

def _grid_q(cx: FilteredComplex, extra=()):
    q = 1
    for g in cx.generators:
        q = lcm(q, cx.action[g].denominator)
        for s in cx.diff[g].values():
            for e in s.exps:
                q = lcm(q, e.denominator)
    for e in extra:
        q = lcm(q, Fraction(e).denominator)
    return q


def _f2_solve(rows, rhs):
    """Solve the F2 system given as {var_index} row sets; rhs list of 0/1."""
    eqs = []
    for row, b in zip(rows, rhs):
        v = 0
        for j in row:
            v ^= 1 << j
        eqs.append((v, b))
    pivots = {}
    for v, b in eqs:
        while v:
            top = v.bit_length() - 1
            if top in pivots:
                pv, pb = pivots[top]
                v ^= pv
                b ^= pb
            else:
                pivots[top] = (v, b)
                v = 0
                b = 0
        if b:
            return False
    return True


def oracle_boundary_decision(c: Chain, cx: FilteredComplex, alpha: Fraction,
                             depth: int = 3) -> bool:
    """Is c = d b solvable with b of action <= alpha?  Window F2 solve."""
    q = _grid_q(cx, [alpha] + [e for s in c.values() for e in s.exps])
    step = Fraction(1, q)
    exps = [e for g in cx.generators for s in cx.diff[g].values() for e in s.exps]
    span = max(exps, default=Fraction(0)) + 1
    top = max([e for s in c.values() for e in s.exps], default=Fraction(0))
    top = max(top, max(cx.action.values()) - min(cx.action.values()))
    hi_exp = {g: top + span * (cx.dim + depth) for g in cx.generators}
    # variables: (g, s) with s in [A_g - alpha, hi_exp_g)
    var_index = {}
    for g in cx.generators:
        s = cx.action[g] - alpha
        while s < hi_exp[g]:
            var_index[(g, s)] = len(var_index)
            s += step
    # equations: coefficient of T^t in row i of (d b - c) = 0
    eq = {}

    def tap(i, t, var):
        eq.setdefault((i, t), [set(), 0])[0].add(var)

    for (g, s), vi in var_index.items():
        for i, scal in cx.diff[g].items():
            for e in scal.exps:
                tap(i, s + e, vi)
    rhs_terms = {}
    for i, scal in c.items():
        for e in scal.exps:
            rhs_terms[(i, e)] = rhs_terms.get((i, e), 0) ^ 1
    for key, b in rhs_terms.items():
        eq.setdefault(key, [set(), 0])[1] = 0
        eq[key][1] ^= b
    rows = [sorted(v[0]) for v in eq.values()]
    rhs = [v[1] for v in eq.values()]
    return _f2_solve(rows, rhs)


def oracle_boundary_level(c: Chain, cx: FilteredComplex):
    """Brute-force B(c;C): binary search over the exponent grid."""
    if not c:
        return NEG_INF
    q = _grid_q(cx, [e for s in c.values() for e in s.exps])
    step = Fraction(1, q)
    lo = action_level(c, cx) - step  # provably infeasible
    exps = [e for g in cx.generators for s in cx.diff[g].values() for e in s.exps]
    span = max(exps, default=Fraction(0)) + 1
    # a primitive lies above the chain itself, which may lie above every
    # generator
    hi = max(*cx.action.values(), action_level(c, cx)) + span * (cx.dim + 1)
    if not oracle_boundary_decision(c, cx, hi):
        return INF
    while hi - lo > step:
        mid = lo + ((hi - lo) / step // 2) * step
        if mid in (lo, hi):
            mid = lo + step
        if oracle_boundary_decision(c, cx, mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# random complex generators
# ---------------------------------------------------------------------------

def nov(exps, cutoff=64):
    return NovikovScalar(exps, cutoff)


def random_complex(rng: random.Random, n=4, qden=2, cutoff=64,
                   with_split=False):
    """Random filtered complex built from bars conjugated by an
    action-compatible triangular automorphism, so d*d = 0 exactly."""
    gens = [f"g{i}" for i in range(n)]
    action = {g: Fraction(rng.randint(0, 2 * qden), qden) for g in gens}
    perm = list(range(n))
    rng.shuffle(perm)
    diff = {g: {} for g in gens}
    pairs = []
    i = 0
    while i + 1 < n:
        if rng.random() < 0.7:
            pairs.append((perm[i], perm[i + 1]))
            i += 2
        else:
            i += 1
    for (bi, xi) in pairs:
        b, x = gens[bi], gens[xi]
        drop = Fraction(rng.randint(0, 2 * qden), qden)
        e = action[x] - action[b] + drop  # A(T^e x) = A(b) - drop <= A(b)
        if e < 0:
            action[x] = action[b]
            e = drop
        diff[b] = {x: nov([e], cutoff)}
    cx = FilteredComplex(gens, action, diff, cutoff)
    # conjugate by id + N, N strictly triangular action-nonincreasing
    order = sorted(gens)
    mat = {g: {g: nov([0], cutoff)} for g in gens}
    inv = {g: {g: nov([0], cutoff)} for g in gens}
    nilp = {}
    for i, g in enumerate(order):
        for h in order[i + 1:]:
            if rng.random() < 0.4:
                e = action[h] - action[g] + Fraction(rng.randint(0, qden), qden)
                if e <= 0:
                    continue
                nilp.setdefault(g, {})[h] = nov([e], cutoff)
    # mat = id + N; inv = id + N + N^2 + ...
    def apply_n(ch):
        out = {}
        for g, s in ch.items():
            for h, t in nilp.get(g, {}).items():
                out = chain_add(out, {h: s * t})
        return out

    for g in gens:
        col = {g: nov([0], cutoff)}
        term = {g: nov([0], cutoff)}
        while True:
            term = apply_n(term)
            if not term:
                break
            col = chain_add(col, term)
        inv[g] = col
        mat[g] = chain_add({g: nov([0], cutoff)}, apply_n({g: nov([0], cutoff)}))

    def conj(dcol):
        # P d P^{-1}
        out = {g: {} for g in gens}
        for g in gens:
            img = {}
            for h, s in inv[g].items():
                img = chain_add(img, chain_scale(s, dcol[h]))
            img2 = {}
            for h, s in img.items():
                img2 = chain_add(img2, chain_scale(s, mat[h]))
            out[g] = img2
        return out

    new_diff = conj(diff)
    cx2 = FilteredComplex(gens, action, new_diff, cutoff)
    if not with_split:
        return cx2
    # split: d0 keeps the bars with drop 0 amount... use: d0 = bars part
    # conjugated, d1 = remainder scaled deeper.  Simpler split: d0 = terms of
    # minimal valuation per column where that valuation equals the action
    # drop 0; here we instead return the pre-conjugation split.
    return cx2, diff


def random_chain(rng: random.Random, cx: FilteredComplex, density=0.7,
                 qden=2, nterms=2):
    ch = {}
    for g in cx.generators:
        if rng.random() < density:
            exps = {Fraction(rng.randint(0, 4 * qden), qden)
                    for _ in range(rng.randint(1, nterms))}
            s = NovikovScalar(exps, cx.cutoff)
            if not s.is_zero():
                ch[g] = s
    return ch


def random_chain_map(rng: random.Random, n=4, qden=2):
    """A strictly filtered chain map phi = base + T^s (d h + h d) from a
    random complex C, and whether base is the identity.  Base is either
    the identity from C to C with every action lowered by some nu >= 0,
    or zero into another random complex D; h is a random map C -> D, and
    s >= 0 the least shift that keeps T^s (d h + h d) from raising
    action."""
    C = random_complex(rng, n=n, qden=qden)
    ident = rng.random() < 0.5
    D = (C.shift_actions(-Fraction(rng.randint(0, qden), qden)) if ident
         else random_complex(rng, n=rng.randint(2, n), qden=qden))
    h = FilteredMap(C, D, {g: random_chain(rng, D, density=0.4, qden=qden)
                           for g in C.generators})
    htpy = FilteredMap(C, D, {g: chain_add(D.d(h.matrix[g]),
                                           h.apply(C.diff[g]))
                              for g in C.generators})
    s = max(0, htpy.measured_shift())
    mat = {g: chain_scale(NovikovScalar.monomial(s, D.cutoff), htpy.matrix[g])
           for g in C.generators}
    if ident:
        mat = {g: chain_add(mat[g], C.basis_chain(g)) for g in C.generators}
    return FilteredMap(C, D, mat), ident


def random_boundary(rng: random.Random, cx: FilteredComplex, qden=2):
    b = random_chain(rng, cx, qden=qden)
    return cx.d(b), b


# ---------------------------------------------------------------------------
# least action of a left inverse, by basic solutions
# ---------------------------------------------------------------------------

def _poly_mul(a: frozenset, b: frozenset) -> frozenset:
    """Product of two F2 polynomials in T, each a set of exponents."""
    out = set()
    for x in a:
        for y in b:
            out ^= {x + y}
    return frozenset(out)


def _det(rows) -> frozenset:
    """Determinant by permutation expansion (no signs in characteristic 2)."""
    out = set()
    for perm in itertools.permutations(range(len(rows))):
        term = frozenset([Fraction(0)])
        for i, j in enumerate(perm):
            term = _poly_mul(term, rows[i][j])
        out ^= term
    return frozenset(out)


def ref_field_rank(columns) -> int:
    """Rank of the chains over the Novikov field: the size of the largest
    nonzero minor, by permutation-expansion determinants.

    The minor is grown one row and column at a time.  With M[R, S]
    nonsingular, column j is in the span of the columns S iff every
    bordered minor det M[R + i, S + j] vanishes (it is det M[R, S] times
    the entry at row i of column j minus its projection on S), so a
    greedy bordering finds a largest independent set of columns."""
    rows = sorted({g for col in columns for g in col})
    entry = [{g: frozenset(s.exps) for g, s in col.items()} for col in columns]
    R, S = [], []
    for j in range(len(columns)):
        for g in rows:
            if g not in R and _det([[entry[c].get(r, frozenset())
                                     for c in S + [j]] for r in R + [g]]):
                R.append(g)
                S.append(j)
                break
    return len(S)


def ref_left_inverse_action(f):
    """Least hom-action of a left inverse of f: C -> D, None if none exists.

    Row c of a left inverse is a vector x over D with x F = e_c, where
    F[d][c'] = f_{c',d}.  For an n-subset S of D with det F_S != 0 the
    basic solution adj(F_S)/det F_S is a left inverse; its row c has
    action max_{d in S} (A_C(c) - A_D(d) - v(adj_{c,d}) + v(det)).  Rows
    decouple, so each row takes its least action over S, and the result
    is the largest row.  Scaled to the unit ball of an optimum, n rows of
    F whose residues span generate the row lattice (Nakayama over the
    valuation ring), so some basic solution attains the optimum.
    """
    C, D = f.domain, f.codomain
    xs, n = C.generators, C.dim
    entry = {(c, d): frozenset(s.exps) for c, col in f.matrix.items()
             for d, s in col.items()}
    best = {}
    for S in itertools.combinations(D.generators, n):
        F_S = [[entry.get((c, d), frozenset()) for c in xs] for d in S]
        det = _det(F_S)
        if not det:
            continue
        for ci, c in enumerate(xs):
            acts = []
            for di, d in enumerate(S):
                # adj(F_S)[c][d] is the minor without row d and column c
                adj = _det([[row[j] for j in range(n) if j != ci]
                            for i, row in enumerate(F_S) if i != di])
                if adj:
                    acts.append(C.action[c] - D.action[d] - min(adj) + min(det))
            best[c] = min(best.get(c, INF), max(acts))
    if len(best) < n:
        return None
    return max(best.values(), default=NEG_INF)


def ref_chain_left_inverses(f, exps):
    """Every chain map g: D -> C with g f = id whose entries are 0 or T^e,
    e in ``exps``, for f: C -> D.

    g f = id decouples over the rows of g, so each row is enumerated on
    its own and kept when it inverts f; every combination of kept rows is
    then tested for g d_D = d_C g.  All checks are exact."""
    C, D = f.domain, f.codomain
    zero, one = NovikovScalar.zero(C.cutoff), NovikovScalar.one(C.cutoff)
    options = [None] + [NovikovScalar([e], C.cutoff) for e in exps]
    rows = []
    for c in C.generators:
        kept = []
        for entries in itertools.product(options, repeat=D.dim):
            row = {d: s for d, s in zip(D.generators, entries) if s}
            if all(sum((row[d] * s for d, s in f.matrix[x].items()
                        if d in row), zero) == (one if x == c else zero)
                   for x in C.generators):
                kept.append(row)
        rows.append(kept)
    for combo in itertools.product(*rows):
        g = FilteredMap(D, C, {d: {c: row[d] for c, row
                                   in zip(C.generators, combo) if d in row}
                               for d in D.generators})
        if g.is_chain_map():
            yield g


# ---------------------------------------------------------------------------
# weakly filtered category fixtures
# ---------------------------------------------------------------------------

def _fc(gens, action, diff, cutoff=64):
    return FilteredComplex(gens, action, diff, cutoff, check=False)


def unital_dg_category(s=Fraction(1, 2), cutoff=64, cap=4):
    """One object, strictly unital: e plus an acyclic pair a -> T^s b."""
    from filtcones.wfainf import Discrepancy, WFCategory
    homs = {("X", "X"): _fc(
        ["e", "a", "b"], {"e": 0, "a": 0, "b": 0},
        {"e": {}, "a": {"b": nov([s], cutoff)}, "b": {}}, cutoff)}
    one = nov([0], cutoff)
    mu2 = {}
    for g in ("e", "a", "b"):
        mu2[("e", g)] = {g: one}
        if g != "e":
            mu2[(g, "e")] = {g: one}
    mu2[("e", "e")] = {"e": one}
    cat = WFCategory(["X"], homs, {2: mu2}, Discrepancy([0] * cap, "category"),
                     cap=cap, units={"X": {"e": one}}, unit_bound=0)
    return cat


def perturbed_unit_category(t=Fraction(1), s=Fraction(1, 2), cutoff=64, cap=4):
    """mu_2(e, e) = e + mu_1(c) with the witness c at action s."""
    from filtcones.wfainf import Discrepancy, WFCategory
    one = nov([0], cutoff)
    unit_sq = NovikovScalar([0, t], cutoff)  # 1 + T^t
    homs = {("X", "X"): _fc(
        ["e", "c"], {"e": 0, "c": s},
        {"e": {}, "c": {"e": nov([t], cutoff)}}, cutoff)}
    # A(mu_1 c) = -t <= A(c) = s as long as t >= -s
    mu2 = {
        ("e", "e"): {"e": unit_sq},
        ("e", "c"): {"c": unit_sq},
        ("c", "e"): {"c": unit_sq},
    }
    cat = WFCategory(["X"], homs, {2: mu2}, Discrepancy([0] * cap, "category"),
                     cap=cap, units={"X": {"e": one}}, unit_bound=0)
    return cat


def chain_category(weights=None, cutoff=64, cap=5, objects=3):
    """dg category on X, L0..L_{objects-1} with composable monomial arrows.

    hom(X, Li) has one generator x_i; hom(L_j, L_i) for i < j has one
    generator m_{j}{i}.  All differentials vanish; mu_2 composes with
    exponent weights chosen associatively (additive in endpoints).
    """
    from filtcones.wfainf import Discrepancy, WFCategory
    if weights is None:
        weights = {i: Fraction(i, 2) for i in range(objects + 1)}
    objs = ["X"] + [f"L{i}" for i in range(objects)]
    homs = {}
    gen_of = {}
    for i in range(objects):
        g = f"x{i}"
        homs[("X", f"L{i}")] = _fc([g], {g: 0}, {g: {}}, cutoff)
        gen_of[("X", f"L{i}")] = g
    for j in range(objects):
        for i in range(j):
            g = f"m{j}{i}"
            homs[(f"L{j}", f"L{i}")] = _fc([g], {g: 0}, {g: {}}, cutoff)
            gen_of[(f"L{j}", f"L{i}")] = g
    # assign omega to arrows; mu_2 exponent omega(ab)+omega(bc)-omega(ac)
    # is a coboundary, hence associative for any choice
    omega = {}
    for i in range(objects):
        omega[("X", f"L{i}")] = weights[i]
    for j in range(objects):
        for i in range(j):
            omega[(f"L{j}", f"L{i}")] = weights[j] - weights[i]
    mu2 = {}
    worst = Fraction(0)
    for (a, b), g1 in gen_of.items():
        for (b2, c), g2 in gen_of.items():
            if b2 != b:
                continue
            tgt = gen_of.get((a, c))
            if tgt is None:
                continue
            e = omega[(a, b)] + omega[(b, c)] - omega[(a, c)]
            worst = max(worst, -e, Fraction(0))
            mu2[(g1, g2)] = {tgt: nov([e], cutoff)}
    cat = WFCategory(objs, homs, {2: mu2},
                     Discrepancy([0] + [worst] * (cap - 1), "category"),
                     cap=cap)
    return cat


def strict_dg_category(nobj=3, sigma=Fraction(1, 2), cutoff=64, cap=None):
    """Strictly unital dg category on X, L0..L_{nobj-1}.

    hom(A, B) for A != B has generators one_AB, eps_AB with
    d(eps) = T^sigma one; endomorphisms are spanned by strict units.
    Products follow the epsilon-algebra rule (eps * eps = 0), which is
    associative and Leibniz-compatible in characteristic 2.
    """
    from filtcones.wfainf import Discrepancy, WFCategory
    if cap is None:
        cap = nobj + 2
    objs = ["X"] + [f"L{i}" for i in range(nobj)]
    arrows = [("X", f"L{i}") for i in range(nobj)]
    arrows += [(f"L{j}", f"L{i}") for j in range(nobj) for i in range(j)]
    homs = {}
    one_name = {}
    eps_name = {}
    for (a, b) in arrows:
        u, w = f"one[{a},{b}]", f"eps[{a},{b}]"
        one_name[(a, b)], eps_name[(a, b)] = u, w
        homs[(a, b)] = _fc([u, w], {u: 0, w: 0},
                           {u: {}, w: {u: nov([sigma], cutoff)}}, cutoff)
    units = {}
    for o in objs:
        g = f"id[{o}]"
        homs[(o, o)] = _fc([g], {g: 0}, {g: {}}, cutoff)
        units[o] = {g: nov([0], cutoff)}
        one_name[(o, o)] = g
    mu2 = {}
    one = nov([0], cutoff)
    pairs = list(one_name)
    comp = [(a, b, c) for (a, b) in pairs for (b2, c) in pairs
            if b2 == b and (a, c) in one_name]
    for (a, b, c) in comp:
        u_ab = one_name[(a, b)]
        u_bc = one_name[(b, c)]
        u_ac = one_name[(a, c)]
        mu2[(u_ab, u_bc)] = {u_ac: one}
        e_ab = eps_name.get((a, b))
        e_bc = eps_name.get((b, c))
        e_ac = eps_name.get((a, c))
        if e_ac is not None:
            if e_ab is not None:
                mu2[(e_ab, u_bc)] = {e_ac: one}
            if e_bc is not None:
                mu2[(u_ab, e_bc)] = {e_ac: one}
        if e_ab is not None and e_bc is not None:
            pass  # eps * eps = 0
    cat = WFCategory(objs, homs, {2: mu2},
                     Discrepancy([0] * cap, "category"), cap=cap,
                     units=units, unit_bound=0)
    return cat


def random_cycle_in(rng, cx, qden=2, allow_zero=False):
    """Random Lambda-combination of a cycle basis with monomial weights."""
    from filtcones.filtcx import cycle_basis, chain_add
    zs = cycle_basis(cx)
    out = {}
    for z in zs:
        if rng.random() < 0.6:
            lam = nov([Fraction(rng.randint(0, 4), qden)], cx.cutoff)
            out = chain_add(out, chain_scale(lam, z))
    if not out and zs and not allow_zero:
        out = dict(zs[0])
    return out


def random_split_complex(rng: random.Random, n=6, qden=2, cutoff=64):
    """Complex with a split differential d = d0 + d1: d0 collects the
    zero-drop bars, d1 the strictly dropping ones (disjoint supports),
    both conjugated by the same action-compatible automorphism."""
    gens = [f"g{i}" for i in range(n)]
    action = {g: Fraction(rng.randint(0, 2 * qden), qden) for g in gens}
    perm = list(range(n))
    rng.shuffle(perm)
    d0 = {g: {} for g in gens}
    d1 = {g: {} for g in gens}
    i = 0
    while i + 1 < n:
        r = rng.random()
        if r < 0.35:
            b, x = gens[perm[i]], gens[perm[i + 1]]
            action[x] = action[b]
            d0[b] = {x: nov([0], cutoff)}
            i += 2
        elif r < 0.75:
            b, x = gens[perm[i]], gens[perm[i + 1]]
            drop = Fraction(rng.randint(1, 2 * qden), qden)
            e = action[x] - action[b] + drop
            if e < 0:
                action[x] = action[b]
                e = drop
            d1[b] = {x: nov([e], cutoff)}
            i += 2
        else:
            i += 1
    # conjugate by id + N with N strictly triangular, action-nonincreasing
    order = sorted(gens)
    nilp = {}
    for i, g in enumerate(order):
        for h in order[i + 1:]:
            if rng.random() < 0.35:
                e = action[h] - action[g] + Fraction(rng.randint(0, qden), qden)
                if e <= 0:
                    continue
                nilp.setdefault(g, {})[h] = nov([e], cutoff)

    def apply_n(ch):
        out = {}
        for g, s in ch.items():
            for h, t in nilp.get(g, {}).items():
                out = chain_add(out, {h: s * t})
        return out

    inv = {}
    mat = {}
    for g in gens:
        col = {g: nov([0], cutoff)}
        term = {g: nov([0], cutoff)}
        while True:
            term = apply_n(term)
            if not term:
                break
            col = chain_add(col, term)
        inv[g] = col
        mat[g] = chain_add({g: nov([0], cutoff)},
                           apply_n({g: nov([0], cutoff)}))

    def conj(dcol):
        out = {}
        for g in gens:
            img = {}
            for h, s in inv[g].items():
                img = chain_add(img, chain_scale(s, dcol[h]))
            img2 = {}
            for h, s in img.items():
                img2 = chain_add(img2, chain_scale(s, mat[h]))
            out[g] = img2
        return out

    d0c = conj(d0)
    d1c = conj(d1)
    total = {g: chain_add(d0c[g], d1c[g]) for g in gens}
    cx = FilteredComplex(gens, action, total, cutoff)
    return cx, d0c, d1c


def strict_right_mult_hom(cat, m_src, m_tgt, c):
    """Module hom Yoneda(L_j) -> K given by b -> mu_2^K(b, c) (strict dg).

    Uses the target module's mu_2 so cones with arity-2 correction terms
    are handled; in the strict dg case all higher lambda components
    vanish, so the single component suffices.
    """
    from filtcones.wfainf import PreModHom
    from filtcones.filtcx import chain_add
    comps = {1: {}}
    for g, x in m_src.gen_value.items():
        if x not in m_tgt.values:
            continue
        img = {}
        for gc, s in c.items():
            img = chain_add(img, chain_scale(s, m_tgt.mu_gens((g, gc))))
        if img:
            comps[1][(g,)] = img
    f = PreModHom(m_src, m_tgt, comps, 0)
    meas = [s for s in f.measured_shifts() if s > NEG_INF]
    f.shift = max(meas, default=Fraction(0))
    return f


# ---------------------------------------------------------------------------
# A-infinity relation oracles: one explicit loop per relation, reading only
# the hom complexes, values and tables (no library tuple walk or evaluation)
# ---------------------------------------------------------------------------

def _ref_home(complexes):
    """generator -> the key of the complex holding it."""
    return {g: key for key, cx in complexes.items() for g in cx.generators}


def _ref_cat_op(cat, home, gens):
    if len(gens) == 1:
        return cat.homs[home[gens[0]]].diff[gens[0]]
    return cat.mu_tables.get(len(gens), {}).get(gens, {})


def _ref_mod_op(m, home, gens):
    if len(gens) == 1:
        return m.values[home[gens[0]]].diff[gens[0]]
    return m.mu_tables.get(len(gens), {}).get(gens, {})


def _ref_hom_op(f, gens):
    return f.components.get(len(gens), {}).get(gens, {})


def _ref_cat_tuples(cat, home, n):
    if n == 1:
        for g in home:
            yield (g,)
        return
    for gens in _ref_cat_tuples(cat, home, n - 1):
        y = home[gens[-1]][1]
        for g, (x2, _) in home.items():
            if x2 == y:
                yield gens + (g,)


def _ref_mod_tuples(m, n):
    chome, mhome = _ref_home(m.cat.homs), _ref_home(m.values)
    if n == 1:
        for g in mhome:
            yield (g,)
        return
    for gens in _ref_cat_tuples(m.cat, chome, n - 1):
        y = chome[gens[-1]][1]
        for g, x in mhome.items():
            if x == y:
                yield gens + (g,)


def _ref_top(tables, floor=1):
    return max([floor] + [d for d, t in tables.items() if t])


def ref_check_ainf_relations(cat):
    """The first generator tuple at which the A-infinity relations of
    ``cat`` fail, in the library's tuple order, or None."""
    home = _ref_home(cat.homs)
    top = min(cat.cap - 1, 2 * _ref_top(cat.mu_tables) - 1)
    for n in range(1, top + 1):
        for gens in _ref_cat_tuples(cat, home, n):
            acc = {}
            for m in range(1, n + 1):
                for j in range(0, n - m + 1):
                    inner = _ref_cat_op(cat, home, gens[j:j + m])
                    for g_in, s in inner.items():
                        outer = _ref_cat_op(
                            cat, home, gens[:j] + (g_in,) + gens[j + m:])
                        acc = chain_add(acc, chain_scale(s, outer))
            if acc:
                return gens
    return None


def ref_check_module_relations(m):
    """The first tuple at which the module relations of ``m`` fail, or
    None."""
    chome, mhome = _ref_home(m.cat.homs), _ref_home(m.values)
    top = min(m.cat.cap - 1, 2 * max(_ref_top(m.cat.mu_tables),
                                     _ref_top(m.mu_tables)) - 1)
    for n in range(1, top + 1):
        for gens in _ref_mod_tuples(m, n):
            acc = {}
            for k in range(1, n):
                for j in range(0, n - k):
                    inner = _ref_cat_op(m.cat, chome, gens[j:j + k])
                    for g_in, s in inner.items():
                        outer = _ref_mod_op(
                            m, mhome, gens[:j] + (g_in,) + gens[j + k:])
                        acc = chain_add(acc, chain_scale(s, outer))
            for k in range(1, n + 1):
                inner = _ref_mod_op(m, mhome, gens[n - k:])
                for g_in, s in inner.items():
                    outer = _ref_mod_op(m, mhome, gens[:n - k] + (g_in,))
                    acc = chain_add(acc, chain_scale(s, outer))
            if acc:
                return gens
    return None


def ref_mu1_mod(f):
    """The component tables of mu1_mod(f), one explicit loop per term."""
    m0, m1 = f.source, f.target
    cat = m0.cat
    chome = _ref_home(cat.homs)
    h0, h1 = _ref_home(m0.values), _ref_home(m1.values)
    maxf = _ref_top(f.components, 0)
    maxmu = max(_ref_top(cat.mu_tables), _ref_top(m0.mu_tables),
                _ref_top(m1.mu_tables))
    top = min(cat.cap, maxf + maxmu - 1) if maxf else 0
    comps = {}
    for n in range(1, top + 1):
        table = {}
        for gens in _ref_mod_tuples(m0, n):
            acc = {}
            for k in range(0, n):
                for g_in, s in _ref_hom_op(f, gens[k:]).items():
                    outer = _ref_mod_op(m1, h1, gens[:k] + (g_in,))
                    acc = chain_add(acc, chain_scale(s, outer))
            for k in range(0, n):
                for g_in, s in _ref_mod_op(m0, h0, gens[k:]).items():
                    outer = _ref_hom_op(f, gens[:k] + (g_in,))
                    acc = chain_add(acc, chain_scale(s, outer))
            for k in range(1, n):
                for j in range(0, n - k):
                    inner = _ref_cat_op(cat, chome, gens[j:j + k])
                    for g_in, s in inner.items():
                        outer = _ref_hom_op(
                            f, gens[:j] + (g_in,) + gens[j + k:])
                        acc = chain_add(acc, chain_scale(s, outer))
            if acc:
                table[gens] = acc
        if table:
            comps[n] = table
    return comps


def ref_mu2_mod(f, g):
    """The component tables of the composite g o f."""
    maxf, maxg = _ref_top(f.components, 0), _ref_top(g.components, 0)
    top = min(f.source.cat.cap, maxf + maxg - 1) if maxf and maxg else 0
    comps = {}
    for n in range(1, top + 1):
        table = {}
        for gens in _ref_mod_tuples(f.source, n):
            acc = {}
            for k in range(0, n):
                for g_in, s in _ref_hom_op(f, gens[k:]).items():
                    outer = _ref_hom_op(g, gens[:k] + (g_in,))
                    acc = chain_add(acc, chain_scale(s, outer))
            if acc:
                table[gens] = acc
        if table:
            comps[n] = table
    return comps


# ---------------------------------------------------------------------------
# an area-preserving transform for the shear-invariance checks
# ---------------------------------------------------------------------------

def shear_diagram(d: PlanarDiagram, lam) -> PlanarDiagram:
    """x -> x + lam*y: area preserving, keeps ends horizontal."""
    lam = Fraction(lam)
    return PlanarDiagram(
        [((a[0] + lam * a[1], a[1]), (b[0] + lam * b[1], b[1]))
         for a, b in d.segments],
        [((p[0] + lam * p[1], p[1]), dd) for p, dd in d.rays])


def ref_rect_union_area(rects) -> Fraction:
    """The area enclosed by the outlines of closed axis-parallel
    rectangles (x0, y0, x1, y1): their union together with every pocket
    of its complement that the union surrounds.  By coordinate
    compression, with no planar arrangement: the lines through the edges
    cut the bounding box into cells, each in the union or out of it as a
    whole.  Two uncovered cells that share a side are joined through it,
    as a rectangle edge on that side would cover one of them; so the
    uncovered cells joined to the border of the box are the outside, and
    the rest of the box is the answer."""
    xs = sorted({c for r in rects for c in (r[0], r[2])})
    ys = sorted({c for r in rects for c in (r[1], r[3])})
    nx, ny = len(xs) - 1, len(ys) - 1
    free = {(i, j) for i in range(nx) for j in range(ny)
            if not any(r[0] <= xs[i] and xs[i + 1] <= r[2]
                       and r[1] <= ys[j] and ys[j + 1] <= r[3]
                       for r in rects)}
    outside = [(i, j) for i, j in free
               if i in (0, nx - 1) or j in (0, ny - 1)]
    seen = set(outside)
    while outside:
        i, j = outside.pop()
        for cell in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if cell in free and cell not in seen:
                seen.add(cell)
                outside.append(cell)
    return (xs[-1] - xs[0]) * (ys[-1] - ys[0]) - sum(
        ((xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j]) for i, j in seen),
        Fraction(0))


# ---------------------------------------------------------------------------
# all-pairs geometry scans: every segment pair goes to the exact predicate,
# with no bounding-box pruning
# ---------------------------------------------------------------------------

def ref_seg_common(p1, p2, q1, q2):
    """Exact contact between two closed segments with rational endpoints,
    by the division form: the hit parameters t and u are Fractions.

    Returns None, ("point", p, kind) with kind "proper" (both interiors)
    or "touch", or ("overlap",) for a collinear sub-segment.
    """
    r = (p2[0] - p1[0], p2[1] - p1[1])
    s = (q2[0] - q1[0], q2[1] - q1[1])
    denom = r[0] * s[1] - r[1] * s[0]
    qp = (q1[0] - p1[0], q1[1] - p1[1])
    if denom == 0:
        if qp[0] * r[1] - qp[1] * r[0] != 0:
            return None  # parallel, disjoint lines
        rr = r[0] * r[0] + r[1] * r[1]
        t0 = Fraction(qp[0] * r[0] + qp[1] * r[1]) / rr
        t1 = t0 + Fraction(s[0] * r[0] + s[1] * r[1]) / rr
        lo, hi = min(t0, t1), max(t0, t1)
        if hi < 0 or lo > 1:
            return None
        if hi == 0:
            return ("point", p1, "touch")
        if lo == 1:
            return ("point", p2, "touch")
        return ("overlap",)
    t = Fraction(qp[0] * s[1] - qp[1] * s[0]) / denom
    u = Fraction(qp[0] * r[1] - qp[1] * r[0]) / denom
    if t < 0 or t > 1 or u < 0 or u > 1:
        return None
    kind = "proper" if (0 < t < 1 and 0 < u < 1) else "touch"
    return ("point", (p1[0] + t * r[0], p1[1] + t * r[1]), kind)


def _translate(seg, t):
    return tuple((p[0] + t[0], p[1] + t[1]) for p in seg)


def _edge_bounds(edges):
    xs = [p[0] for e in edges for p in e]
    ys = [p[1] for e in edges for p in e]
    return (min(xs), min(ys)), (max(xs), max(ys))


def _ref_translates(curve, lo, hi):
    """Deck translates (multiples of SIDE) of ``curve`` whose vertex box,
    widened by one square on each side, meets the box [lo, hi]."""
    pts = curve.vertices + [curve.closure]
    ranges = []
    for c in (0, 1):
        vals = [p[c] for p in pts]
        ranges.append(range(floor((lo[c] - max(vals)) / SIDE) - 1,
                            ceil((hi[c] - min(vals)) / SIDE) + 2))
    return [(SIDE * kx, SIDE * ky) for kx in ranges[0] for ky in ranges[1]]


def ref_is_embedded(curve) -> bool:
    """``TorusCurve.is_embedded`` over every edge pair of every nearby
    deck translate."""
    edges = curve.edges()
    n = len(edges)
    cls = (SIDE * curve.hclass[0], SIDE * curve.hclass[1])
    for t in _ref_translates(curve, *_edge_bounds(edges)):
        for i, (a, b) in enumerate(edges):
            for j, seg in enumerate(edges):
                if t == (0, 0) and j <= i:
                    continue
                hit = ref_seg_common(a, b, *_translate(seg, t))
                if hit is None:
                    continue
                allowed = None
                if t == (0, 0) and j == i + 1:
                    allowed = b
                elif i == n - 1 and j == 0 and t == cls:
                    allowed = b
                elif t == (0, 0) and i == 0 and j == n - 1:
                    allowed = a
                elif i == 0 and j == n - 1 and t == (-cls[0], -cls[1]):
                    allowed = a
                if hit[0] == "point" and allowed is not None \
                        and hit[1] == allowed:
                    continue
                return False
    return True


def ref_wrap_point(p):
    """Representative in the fundamental square [-1, 1) x [-1, 1), by
    Fraction add, mod and subtract."""
    return (Fraction((p[0] + 1) % SIDE) - 1, Fraction((p[1] + 1) % SIDE) - 1)


def ref_crossing_records(c1, c2, proper: bool = False):
    """{wrapped crossing point: ``Crossing``} from every edge of ``c1``
    against every edge of every nearby deck translate of ``c2``: each end
    holds the edge index and the point on that curve's own lift path,
    and the sign is that of det(t1, t2) of the two edge tangents.
    Touches and overlaps are skipped if ``proper`` is set and raise like
    ``intersections`` otherwise."""
    edges1 = c1.edges()
    found = {}
    for t in _ref_translates(c2, *_edge_bounds(edges1)):
        for i, (a, b) in enumerate(edges1):
            for j, seg in enumerate(c2.edges()):
                c, d = _translate(seg, t)
                hit = ref_seg_common(a, b, c, d)
                if hit is None:
                    continue
                if hit[0] == "overlap":
                    if proper:
                        continue
                    raise GeometryError("segments overlap along a sub-segment")
                if hit[2] == "touch":
                    if proper:
                        continue
                    raise GeometryError("segments meet at a vertex")
                p = hit[1]
                det = (b[0] - a[0]) * (d[1] - c[1]) \
                    - (b[1] - a[1]) * (d[0] - c[0])
                w = ref_wrap_point(p)
                lift = (p[0] - t[0], p[1] - t[1])
                found[w] = Crossing(w, ((i, p), (j, lift)),
                                    1 if det > 0 else -1)
    return found


def ref_crossing_signs(c1, c2, proper: bool):
    """{wrapped crossing point: sign} of ``ref_crossing_records``."""
    return {p: r.sign for p, r in ref_crossing_records(c1, c2, proper).items()}


def ref_crossings(c1, c2, proper: bool):
    """Sorted wrapped crossing points; touches and overlaps are skipped if
    ``proper`` is set and raise like ``intersections`` otherwise."""
    return sorted(ref_crossing_signs(c1, c2, proper))


def ref_atomic_segments(segments):
    """Segments split at every mutual contact point, overlaps merged."""
    lines = {}
    for p, q in segments:
        a, b = q[1] - p[1], p[0] - q[0]
        scale = a if a != 0 else b
        key = (a / scale, b / scale, (a * p[0] + b * p[1]) / scale)
        lines.setdefault(key, []).append((p, q))
    cuts = {k: {p for seg in segs for p in seg} for k, segs in lines.items()}
    keys = list(lines)
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1:]:
            for p, q in lines[k1]:
                for r, s in lines[k2]:
                    hit = ref_seg_common(p, q, r, s)
                    if hit is not None and hit[0] == "point":
                        cuts[k1].add(hit[1])
                        cuts[k2].add(hit[1])
    edges = set()
    for k, segs in lines.items():
        pts = sorted(cuts[k])
        for p, q in segs:
            lo, hi = sorted((p, q))
            inside = [x for x in pts if lo <= x <= hi]
            edges.update((u, v) for u, v in zip(inside, inside[1:]) if u != v)
    return edges


def ref_polygon_simple(path) -> bool:
    """``polygon_simple`` over every pair of edges of the closed
    path (first == last): only consecutive edges may meet, and only at
    their shared vertex."""
    segs = list(zip(path, path[1:]))
    n = len(segs)
    if n < 2:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            hit = ref_seg_common(*segs[i], *segs[j])
            if hit is None:
                continue
            if hit[0] == "overlap":
                return False
            if not (j == i + 1 and hit[1] == segs[i][1]
                    or i == 0 and j == n - 1 and hit[1] == segs[0][0]):
                return False
    return True


def ref_signed_area(path) -> Fraction:
    """Shoelace area of the closed path, summed in Fractions."""
    return sum((Fraction(a[0]) * b[1] - Fraction(b[0]) * a[1]
                for a, b in zip(path, path[1:])), Fraction(0)) / 2


# ---------------------------------------------------------------------------
# Floer polygons: every pair or triple of lift arcs up to one extra wind
# ---------------------------------------------------------------------------

def polygon_simple(path) -> bool:
    """Is the closed PL path (first == last) simple?  Tested on the
    integer points at its common scale, over the pairs of edges that
    ``segment_pairs`` yields."""
    n = len(path) - 1
    if n < 2:
        return False
    pts = scaled(path, common_scale(path))
    segs = list(zip(pts, pts[1:]))
    for i, j in segment_pairs(segs):
        a, b = segs[i]
        hit = _seg_common(a, b, *segs[j])
        if hit is None:
            continue
        if hit[0] == "overlap":
            return False
        p = hit[1]
        consecutive = (j == i + 1 and p == b) or \
            (i == 0 and j == n - 1 and p == a)
        if not consecutive:
            return False
    return True


def _shift_path(path, d):
    return [(v[0] + d[0], v[1] + d[1]) for v in path]


def _loop_at(curve, rec, side):
    """The closed lift path of ``curve``, side ``side`` of the crossing
    ``rec``, from the wrapped crossing point to it plus the class."""
    i, lift = rec.ends[side]
    return _shift_path(path_from(curve, i, lift),
                       (rec.point[0] - lift[0], rec.point[1] - lift[1]))


def _dedupe(path):
    out = [path[0]]
    for p in path[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _arc_options(loop, at_p, at_q):
    """Lift arcs along ``loop`` (from ``_loop_at``) from its start p to
    lifts of q: the forward and backward simple arcs plus their variants
    winding one extra time around the curve."""
    (ip, lp), (iq, lq) = at_p, at_q
    p, cls = loop[0], (loop[-1][0] - loop[0][0], loop[-1][1] - loop[0][1])
    back = (-cls[0], -cls[1])
    q = (lq[0] + p[0] - lp[0], lq[1] + p[1] - lp[1])
    i = iq - ip
    if i < 0 or i == 0 and ((lq[0] - lp[0]) * (loop[1][0] - p[0])
                            + (lq[1] - lp[1]) * (loop[1][1] - p[1])) < 0:
        i += len(loop) - 2
        q = (q[0] + cls[0], q[1] + cls[1])
    rev = [p] + _shift_path(loop[-2:0:-1], back)
    fwd = _dedupe(loop[:i + 1] + [q])
    bwd = rev[:len(loop) - 1 - i] + _shift_path([q], back)
    return [fwd, bwd, loop[:-1] + _shift_path(fwd, cls),
            rev + _shift_path(bwd, back)]


def _corners_convex(loop, corners, ccw):
    """Interior angle < pi at each corner index of the simple loop."""
    n = len(loop) - 1
    for k in corners:
        a, b, c = loop[(k - 1) % n], loop[k % n], loop[(k + 1) % n]
        cr = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if not (cr > 0 if ccw else cr < 0):
            return False
    return True


def _ref_records(c1, c2):
    """The crossing records of ``ref_crossing_records``, sorted by point."""
    found = ref_crossing_records(c1, c2)
    return [found[p] for p in sorted(found)]


def ref_enumerate_bigons(n_curve, l_curve):
    """``floer.enumerate_bigons`` by brute force: every pair of
    ``_arc_options`` arcs for every pair of crossings, each closed loop
    tested for simplicity, area and convex corners, and deduplicated by
    its corners and its shape modulo translation.  Arcs wind at most
    one extra time, so this sees only the bigons inside that window."""
    recs = _ref_records(n_curve, l_curve)
    seen = set()
    out = []
    for rp in recs:
        p = rp.point
        loop_n, loop_l = _loop_at(n_curve, rp, 0), _loop_at(l_curve, rp, 1)
        for rq in recs:
            q = rq.point
            for an in _arc_options(loop_n, rp.ends[0], rq.ends[0]):
                for al in _arc_options(loop_l, rp.ends[1], rq.ends[1]):
                    if an[-1] != al[-1] or len(an) < 2 or len(al) < 2:
                        continue
                    loop = _dedupe(an + al[-2::-1])
                    if loop[0] != loop[-1] or len(loop) < 4 \
                            or not polygon_simple(loop):
                        continue
                    area = ref_signed_area(loop)
                    if area == 0 or not _corners_convex(
                            loop, (0, len(an) - 1), area > 0):
                        continue
                    base = min(loop[:-1])
                    shape = tuple(sorted((v[0] - base[0], v[1] - base[1])
                                         for v in loop[:-1]))
                    key = (tuple(sorted((p, q))), shape)
                    if key not in seen:
                        seen.add(key)
                        out.append((p, q, abs(area), loop))
    return out


def ref_mu2_triangles(c0, c1, c2, cutoff=64):
    """``floer.mu2_triangles`` by brute force: every triple of
    ``_arc_options`` arcs for every triple of crossings, each loop tested
    for simplicity, area and three convex corners; one extra wind at
    most, as in ``ref_enumerate_bigons``."""
    recs01, recs12, recs02 = _ref_records(c0, c1), _ref_records(c1, c2), \
        _ref_records(c0, c2)
    others = {r.point for r in recs12 + recs02}
    if any(r.point in others for r in recs01):
        raise GeometryError("triple point in mu_2 configuration")
    out = {}
    for x in recs01:
        for y in recs12:
            for z in recs02:
                for arc01 in _arc_options(_loop_at(c1, x, 1), x.ends[1],
                                          y.ends[0]):
                    for arc12 in _arc_options(_loop_at(c2, y, 1), y.ends[1],
                                              z.ends[1]):
                        a12 = _shift_path(arc12, (arc01[-1][0] - arc12[0][0],
                                                  arc01[-1][1] - arc12[0][1]))
                        for arc20 in _arc_options(_loop_at(c0, z, 0),
                                                  z.ends[0], x.ends[0]):
                            a20 = _shift_path(arc20, (a12[-1][0] - arc20[0][0],
                                                      a12[-1][1] - arc20[0][1]))
                            if a20[-1] != arc01[0]:
                                continue
                            loop = _dedupe(arc01 + a12[1:] + a20[1:])
                            if loop[0] != loop[-1] or len(loop) < 4 \
                                    or not polygon_simple(loop):
                                continue
                            area = ref_signed_area(loop)
                            corners = (0, len(arc01) - 1,
                                       len(arc01) + len(a12) - 2)
                            if area == 0 or not _corners_convex(
                                    loop, corners, area > 0):
                                continue
                            mono = NovikovScalar.monomial(abs(area), cutoff)
                            cur = out.setdefault((y.point, x.point), {})
                            prev = cur.get(z.point)
                            cur[z.point] = mono if prev is None \
                                else prev + mono
    for k in list(out):
        out[k] = {z: s for z, s in out[k].items() if not s.is_zero()}
        if not out[k]:
            del out[k]
    return out


# ---------------------------------------------------------------------------
# metric search: every sequence of distinct moves
# ---------------------------------------------------------------------------

def ref_metric_uppers(moves, lp, l, family, top_end=False):
    """(sum of shadows, extra-end count) at every goal that some sequence
    of distinct moves reaches from ``(lp,)``.

    Plain recursion over all such sequences, with no heap, visited set or
    pruning.  A move replaces the first occurrence of its source by its
    ends (forward), or the first occurrence of one of its ends by its
    source followed by its other ends (end reversal), tried at every end
    position.  A goal holds ``l`` (first, with ``top_end``) plus extra
    ends that all lie in ``family``.
    """
    fam = set(family)
    found = set()

    def walk(state, left, shadow):
        if l in state and (not top_end or state[0] == l):
            rest = list(state)
            rest.remove(l)
            if all(r in fam for r in rest):
                found.add((shadow, len(rest)))
        for mv in left:
            others = [m for m in left if m is not mv]
            swaps = [(mv.source, mv.ends)] + [
                (e, (mv.source,) + mv.ends[:j] + mv.ends[j + 1:])
                for j, e in enumerate(mv.ends)]
            for old, new in swaps:
                if old in state:
                    i = state.index(old)
                    walk(state[:i] + new + state[i + 1:], others,
                         shadow + mv.shadow)

    walk((lp,), list(moves), Fraction(0))
    return found


# ---------------------------------------------------------------------------
# relative widths and metric lower bounds, one strand and one multiset at a time
# ---------------------------------------------------------------------------

def _ref_strand_lines(curves):
    """(vertical_line_coords, horizontal_line_coords), wrapped."""
    vs, hs = set(), set()
    for c in curves:
        for axis, coord, _ in c.strands():
            if axis == "v":
                vs.add(coord)
            else:
                hs.add(coord)
    return vs, hs


def _ref_gaps(coord, obstacles):
    """Wrap-aware distances to the nearest obstruction line on either
    side; unobstructed sides share the complement evenly."""
    ds = sorted({(c - coord) % SIDE for c in obstacles
                 if (c - coord) % SIDE != 0})
    if not ds:
        return SIDE / 2, SIDE / 2
    return ds[0], SIDE - ds[-1]


def ref_gromov_width_rel(carrier, q):
    """delta(L; Q) strand by strand: every strand's obstacles (the other
    carrier strands and the Q lines of its axis) gathered afresh, each
    gap a Fraction subtract-and-mod over them."""
    for c in list(carrier) + list(q):
        if not c.axis_parallel():
            raise GeometryError("widths require axis-parallel curves")
    qv, qh = _ref_strand_lines(q)
    all_strands = []
    for c in carrier:
        all_strands.extend(c.strands())
    best = Fraction(0)
    usable = 0
    for idx, (axis, coord, length) in enumerate(all_strands):
        q_lines = qv if axis == "v" else qh
        if coord in q_lines:
            continue  # strand rides on Q
        usable += 1
        others = {c2 for j, (a2, c2, _) in enumerate(all_strands)
                  if j != idx and a2 == axis and c2 != coord}
        g1, g2 = _ref_gaps(coord, others | set(q_lines))
        best = max(best, 2 * length * min(g1, g2))
    return best if usable else Fraction(0)


def ref_hf_rank(n_curve, l_curve, cutoff=64) -> int:
    """``floer.hf_rank`` from the brute-force bigons: the generators and
    their signs from ``ref_crossing_signs``, each bigon of
    ``ref_enumerate_bigons`` directed from its positive corner to its
    negative one, and the rank of the homology of that complex, its
    differential's rank from ``ref_field_rank``."""
    signs = ref_crossing_signs(n_curve, l_curve, proper=False)
    gens = {p: f"g{i}" for i, p in enumerate(sorted(signs))}
    diff = {g: {} for g in gens.values()}
    for p, q, area, _ in ref_enumerate_bigons(n_curve, l_curve):
        src, tgt = (p, q) if signs[p] > 0 else (q, p)
        col = diff[gens[src]]
        col[gens[tgt]] = col.get(gens[tgt], NovikovScalar.zero(cutoff)) \
            + NovikovScalar.monomial(area, cutoff)
    diff = [{h: s for h, s in col.items() if s} for col in diff.values()]
    return len(gens) - 2 * ref_field_rank(diff)


def ref_double_point_width(curves, sigma, q):
    """``gromov_width_double_points`` in Fractions: at each wrapped point
    of ``sigma``, 4 times the least product of the gaps to the nearest
    strand lines of ``curves`` and ``q`` in two neighbouring directions;
    0 if a line of ``q`` passes through it."""
    if not sigma:
        return INF
    vs, hs = _ref_strand_lines(list(curves) + list(q))
    qv, qh = _ref_strand_lines(q)
    best = INF
    for p in sigma:
        x, y = ref_wrap_point((Fraction(p[0]), Fraction(p[1])))
        if x in qv or y in qh:
            return Fraction(0)
        (e, w), (n, s) = _ref_gaps(x, vs), _ref_gaps(y, hs)
        best = min(best, 4 * min(e * n, e * s, w * n, w * s))
    return best


def ref_probe_verify(probe, space) -> bool:
    """``ProbeFamily.verify`` by the all-pairs oracles: at each sample t,
    A(t) strictly between 0 and the claimed sup, N_t embedded
    (``ref_is_embedded``), fewer proper crossings of N_t with the source
    (``ref_crossings``) than the Floer ranks of N_t against the system
    curves add up to (``ref_hf_rank``), and the quadrant capacity
    (``ref_double_point_width``) exactly 4 A(t)."""
    src = space.geometry(probe.source)
    system = [space.curves[n] for n in probe.system]
    for t in probe.samples:
        n_t, a_t = probe.build(t), probe.profile(t)
        if not (0 < a_t < probe.claimed_sup and ref_is_embedded(n_t)):
            return False
        if len(ref_crossings(n_t, src, proper=True)) >= \
                sum(ref_hf_rank(n_t, c) for c in system):
            return False
        if ref_double_point_width(system, probe.sigma_points, [n_t]) \
                != 4 * a_t:
            return False
    return True


def ref_lower_bounds(space, lp, l, family_name, kmax=6):
    """(lower, certificate) of d_k(lp, l) for k = 0..kmax, bounding every
    end multiset of at most k family members on its own: both widths
    through ``ref_gromov_width_rel``, of the source object's carrier
    curves against the cover curves of the other end objects, capped at
    the space's ``monotone_min_area`` if it has one, then the probes of
    that multiset, each verified once here by ``ref_probe_verify``."""
    verified = {}

    def width(source, ends):
        carrier = [space.curves[c] for c in space.objects[source].carrier]
        q = [space.curves[c] for n in ends for c in space.objects[n].cover]
        val = ref_gromov_width_rel(carrier, q) / 2
        if space.monotone_min_area is not None:
            val = min(val, space.monotone_min_area)
        return val

    def bound(ends):
        best, cert = Fraction(0), "none"
        names = "+".join(ends) or "none"
        for a, b in ((lp, l), (l, lp)):
            val = width(a, [b, *ends])
            if val > best:
                best, cert = val, f"width({a};{b}+{names})/2"
        for p in space.probes:
            if sorted((p.source, *p.ends)) == sorted((lp, l, *ends)) \
                    and p.claimed_sup > best:
                if p not in verified:
                    verified[p] = ref_probe_verify(p, space)
                if verified[p]:
                    best, cert = p.claimed_sup, f"probe {p.name}"
        return best, cert

    out = []
    lower, cert = INF, "no ends"
    family = sorted(set(space.families[family_name]))
    for k in range(kmax + 1):
        for ends in itertools.combinations_with_replacement(family, k):
            val, why = bound(ends)
            if val < lower:
                lower, cert = val, why
        if lp == l:
            lower = Fraction(0)
        out.append((lower, cert))
    return out


def ref_least_lower_bound(space, lp, l, family_name):
    """(lower, certificate) of d_F(lp, l): ``ref_lower_bounds`` run out
    to k = |F| + #probes.  From there on the end multisets of every
    family member, one per size, outnumber the probes, so one that no
    probe matches is bounded by widths alone, and no later k lowers the
    bound."""
    k = len(set(space.families[family_name])) + len(space.probes)
    return ref_lower_bounds(space, lp, l, family_name, k)[-1]


# ---------------------------------------------------------------------------
# a text round trip and a property check of the retract energy
# ---------------------------------------------------------------------------

def serialize_complex(cx: FilteredComplex) -> str:
    """The text ``parse_complex`` reads back: one ``T^e*gen`` term per
    monomial of the differential."""
    lines = [f"cutoff {cx.cutoff}"]
    for g in cx.generators:
        lines.append(f"gen {g} action {cx.action[g]}")
    for g in cx.generators:
        col = cx.diff[g]
        if col:
            rhs = " + ".join(f"T^{e}*{h}" for h, s in sorted(col.items())
                             for e in s.exps)
            lines.append(f"d {g} = {rhs}")
    return "\n".join(lines) + "\n"


def check_rho_subadditive(f: FilteredMap, fprime: FilteredMap) -> bool:
    """rho(f' o f) <= rho(f) + rho(f') on the computed upper bounds."""
    from filtcones.twisted import retract_energy
    up1 = retract_energy(f)[1]
    up2 = retract_energy(fprime)[1]
    upc = retract_energy(fprime.compose(f))[1]
    if up1 >= INF or up2 >= INF:
        return True
    return upc <= up1 + up2
