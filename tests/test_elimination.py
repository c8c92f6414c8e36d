"""The elimination kernel: the Smith form against the brute-force
boundary-level oracle and closed-form bar families, the exact field
layer (rank, kernel, basis and preimage off one echelon over F2[t])
against the largest nonzero minor and exact annihilation, and the
orthonormal basis read off that echelon against ranks and the actions
of sampled combinations."""

import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from filtcones.filtcx import (
    NEG_INF, FilteredComplex, FilteredMap, _Smith, action_level,
    boundary_depth_elem, boundary_depth_map, chain_add,
    field_basis, field_kernel, field_preimage, field_rank,
    is_delta_robust, orthonormal_basis,
)
from filtcones.novikov import NovikovScalar

from support import (
    _poly_mul, chain_scale, oracle_boundary_level, random_complex,
    ref_field_rank,
)

# -- Smith-form kernel against the brute-force oracle ----------------------------


def _chain(rng, cx, qden, lo, hi):
    """A random chain with exponents in [lo, hi] on the 1/qden lattice."""
    return {g: s for g in cx.generators if rng.random() < 0.6
            and (s := NovikovScalar({F(rng.randint(lo * qden, hi * qden), qden)
                                     for _ in range(rng.randint(1, 2))},
                                    cx.cutoff))}


@st.composite
def kernel_cases(draw):
    """A random complex at cutoff 64 (odd or even denominators, actions
    shifted below zero or not), a lattice refinement factor in {1, 2, 6,
    30}, query chains (boundaries of chains whose exponents reach far
    above and below the actions, plus one chain that need not be a
    cycle) and a generator for sampled combinations."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    qden = draw(st.sampled_from([1, 2, 3, 5, 15]))
    cx = random_complex(rng, n=draw(st.integers(2, 4)), qden=qden)
    cx = cx.shift_actions(F(-draw(st.integers(0, 6 * qden)), qden))
    chains = [cx.d(_chain(rng, cx, qden, -6, 9))
              for _ in range(draw(st.integers(0, 3)))]
    chains = [c for c in chains if c] + [_chain(rng, cx, qden, -6, 9)]
    return cx, draw(st.sampled_from([1, 2, 6, 30])), chains, rng


def _beta(c, cx):
    return oracle_boundary_level(c, cx) - action_level(c, cx)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kernel_cases())
def test_smith_kernel_matches_oracle(case):
    cx, refine, chains, rng = case
    red = cx.grid(chains)
    fine = _Smith(cx, red.q * refine)
    for c in chains:
        want = oracle_boundary_level(c, cx)
        assert red.boundary_level(c) == want
        assert fine.boundary_level(c) == want
    bounds = chains[:-1]
    if not bounds:
        return
    m = red.min_beta_over_span(bounds)
    # no sampled combination dips below the minimum
    for _ in range(6):
        combo = {}
        for b in bounds:
            lam = NovikovScalar({F(rng.randint(-4, 8), 2)
                                 for _ in range(rng.randint(0, 2))}, cx.cutoff)
            combo = chain_add(combo, chain_scale(lam, b))
        if combo:
            assert _beta(combo, cx) >= m
    # scale invariance: a power of T per vector leaves the span as it is
    shifted = [chain_scale(NovikovScalar.monomial(F(rng.randint(-40, 40), 3),
                                                cx.cutoff), b)
               for b in bounds]
    assert cx.grid(shifted).min_beta_over_span(shifted) == m
    # on a one-vector span the minimum is beta of that vector
    assert cx.grid(bounds[:1]).min_beta_over_span(bounds[:1]) == \
        _beta(bounds[0], cx)


def _bars(data):
    """Bars d b_i = T^e_i x_i on the 1/qden lattice with beta(x_i) =
    drop_i.  Returns the complex, the drops, qden and the lattice draw."""
    qden = data.draw(st.sampled_from([1, 3, 5, 7]))
    n = data.draw(st.integers(1, 4))

    def lattice(lo, hi):
        return F(data.draw(st.integers(lo * qden, hi * qden)), qden)

    gens, action, diff, drops = [], {}, {}, []
    for i in range(n):
        a, e, drop = lattice(-4, 4), lattice(-2, 3), lattice(0, 3)
        gens += [f"b{i}", f"x{i}"]
        action[f"x{i}"], action[f"b{i}"] = a, a - e + drop
        diff[f"b{i}"] = {f"x{i}": NovikovScalar([e], 64)}
        drops.append(drop)
    return FilteredComplex(gens, action, diff, 64), drops, qden, lattice


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_min_beta_closed_form_bars(data):
    """On the bars: over the span of the x_i for i in S, however the
    spanning vectors mix them, min beta is the least drop in S, and
    robustness switches exactly there."""
    cx, drops, qden, lattice = _bars(data)
    S = data.draw(st.lists(st.integers(0, len(drops) - 1), min_size=1,
                           unique=True))
    vecs = []
    for k, i in enumerate(S):
        v = {f"x{i}": NovikovScalar([lattice(-3, 3)], 64)}
        for j in S[k + 1:]:
            if data.draw(st.booleans()):
                v[f"x{j}"] = NovikovScalar([lattice(-3, 3)], 64)
        vecs.append(v)
    m = min(drops[i] for i in S)
    assert cx.grid(vecs).min_beta_over_span(vecs) == m
    assert is_delta_robust(vecs, m, cx)
    assert not is_delta_robust(vecs, m + F(1, qden), cx)
    for v in vecs:
        assert cx.grid([v]).min_beta_over_span([v]) == \
            boundary_depth_elem(v, cx)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_boundary_depth_map_closed_form_bars(data):
    """On the bars the identity has the largest drop as its boundary
    depth, and the projection onto the bars i in S the largest drop in S
    (0 for S empty)."""
    cx, drops, _, _ = _bars(data)
    assert boundary_depth_map(FilteredMap.identity(cx)) == max(drops)
    S = data.draw(st.lists(st.integers(0, len(drops) - 1), unique=True))
    proj = FilteredMap(cx, cx, {g: cx.basis_chain(g) for i in S
                                for g in (f"b{i}", f"x{i}")})
    assert boundary_depth_map(proj) == max((drops[i] for i in S), default=0)


# -- the field layer: one exact echelon over F2[t] -------------------------------

EXP = st.builds(F, st.integers(-2, 4), st.sampled_from([1, 2, 3]))
SCALAR = st.lists(EXP, max_size=2).map(lambda exps: NovikovScalar(exps, 64))
ONE = NovikovScalar([0], 64)


@st.composite
def novikov_columns(draw):
    """Up to five chains over up to four generators; some are sums of
    earlier ones times scalars, so dependent families are common."""
    rows = [f"r{i}" for i in range(draw(st.integers(1, 4)))]
    cols = []
    for _ in range(draw(st.integers(1, 5))):
        if cols and draw(st.booleans()):
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            cols.append(chain_add(chain_scale(draw(SCALAR), a),
                                  chain_scale(draw(SCALAR), b)))
        else:
            cols.append({g: x for g in rows if (x := draw(SCALAR))})
    return cols


def _poly(lam, q):
    """The bitmask polynomial lam in t = T^(1/q) as a set of T-exponents."""
    return frozenset(F(k, q) for k in range(lam.bit_length()) if lam >> k & 1)


def _markers(n):
    """Chains on n fresh generators: a combination of them shows its
    coefficients."""
    return [{f"x{j}": ONE} for j in range(n)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(novikov_columns())
def test_echelon_rank_plus_nullity(cols):
    """The retired and dropped vectors split the columns, the rank is the
    size of the largest nonzero minor, and ``field_basis`` keeps that
    many of the columns, spanning them all."""
    rank = field_rank(cols)
    assert rank == ref_field_rank(cols)
    assert rank + len(field_kernel(cols)[1]) == len(cols)
    basis = field_basis(cols)
    assert all(any(b is c for c in cols) for b in basis)
    assert len(basis) == ref_field_rank(basis) == rank


@settings(max_examples=200, deadline=None, derandomize=True)
@given(novikov_columns())
def test_kernel_vectors_annihilate_the_columns(cols):
    """Each relation l makes sum_j l_j(T) cols_j vanish as exact
    polynomials in T, read with no cutoff, and the relations are
    independent."""
    q, rels = field_kernel(cols)
    for rel in rels:
        assert any(rel)
        for g in {g for c in cols for g in c}:
            total = frozenset()
            for lam, col in zip(rel, cols):
                if g in col:
                    total ^= _poly_mul(_poly(lam, q), frozenset(col[g].exps))
            assert not total
    top = max((e for rel in rels for lam in rel for e in _poly(lam, q)),
              default=0) + 1
    assert ref_field_rank([{f"c{j}": NovikovScalar(_poly(lam, q), top)
                            for j, lam in enumerate(rel) if lam}
                           for rel in rels]) == len(rels)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(novikov_columns(), st.integers(0, 4))
def test_in_span_agrees_with_augmented_rank(cols, pick):
    """``field_preimage`` finds a combination landing in the span iff the
    augmented rank does not grow; in general its combinations land in
    the span and their number is the dimension of the preimage."""
    # the last column is often a combination of the others
    *rest, target = cols
    assert bool(field_preimage(_markers(1), [target], rest, 64)) == (
        ref_field_rank(rest + [target]) == ref_field_rank(rest))
    assert field_preimage(_markers(1), [cols[pick % len(cols)]], cols, 64)
    images, span = cols[:pick % len(cols) + 1], cols[pick % len(cols) + 1:]
    found = field_preimage(_markers(len(images)), images, span, 64)
    assert len(found) == len(images) - ref_field_rank(images + span) \
        + ref_field_rank(span)
    for w in found:
        image = {}
        for j, col in enumerate(images):
            if f"x{j}" in w:
                image = chain_add(image, chain_scale(w[f"x{j}"], col))
        assert ref_field_rank(span + [image]) == ref_field_rank(span)


# -- the orthonormal basis off one exact echelon ---------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(novikov_columns(),
       st.lists(st.sampled_from([F(0), F(1, 2), F(1)]), min_size=4,
                max_size=4),
       st.lists(SCALAR, min_size=4, max_size=4))
def test_orthonormal_basis(cols, actions, coeffs):
    """The members span the chains, their pivots are distinct, no member
    has an exponent above the chains', and with the generators off the
    pivots they are action-orthogonal: a combination has the largest
    action of its terms."""
    gens = sorted({g for c in cols for g in c} | {"r0"})
    cx = FilteredComplex(gens, dict(zip(gens, actions)), {}, 64)
    basis = orthonormal_basis(cols, cx)
    pivots = [g for g, _ in basis]
    members = [w for _, w in basis]
    rank = field_rank(cols)
    assert len(members) == rank
    assert field_rank(members) == field_rank(cols + members) == rank
    assert len(set(pivots)) == len(pivots)
    top = max((e for c in cols for s in c.values() for e in s.exps), default=0)
    assert all(e <= top for w in members for s in w.values() for e in s.exps)
    off = [cx.basis_chain(g) for g in gens if g not in pivots]
    terms = [chain_scale(lam, w) for lam, w in zip(coeffs, members + off)]
    combo = {}
    for t in terms:
        combo = chain_add(combo, t)
    assert action_level(combo, cx) == max(
        (action_level(t, cx) for t in terms if t), default=NEG_INF)
