"""The elimination kernels: the F2 pivot basis against the window
solver of the oracle suite, the Smith-form kernel against the
brute-force boundary-level oracle and closed-form bar families, and the
Novikov echelon against the rank-nullity identity and exact
annihilation."""

import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from filtcones.filtcx import (
    _FIELD_CUTOFF, F2Basis, FilteredComplex, _Smith, action_level,
    boundary_depth_elem, chain_add, chain_scale, chain_shift, field_in_span,
    field_kernel, field_rank, is_delta_robust, min_beta_subspace,
)
from filtcones.novikov import NovikovScalar

from support import _f2_solve, oracle_boundary_level, random_complex

# -- F2 pivot basis --------------------------------------------------------------


@st.composite
def f2_systems(draw):
    """Rows over up to 10 unknowns.  Half the systems take their
    right-hand side from a hidden solution (always consistent), the other
    half draw it freely (often inconsistent)."""
    nvars = draw(st.integers(1, 10))
    rows = draw(st.lists(st.sets(st.integers(0, nvars - 1)), min_size=1,
                         max_size=14))
    if draw(st.booleans()):
        hidden = draw(st.sets(st.integers(0, nvars - 1)))
        rhs = [len(r & hidden) % 2 for r in rows]
    else:
        rhs = draw(st.lists(st.integers(0, 1), min_size=len(rows),
                            max_size=len(rows)))
    return rows, rhs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(f2_systems())
def test_f2_basis_consistency_agrees_with_window_solver(system):
    rows, rhs = system
    basis = F2Basis()
    consistent = True
    for row, b in zip(rows, rhs):
        if basis.add(sum(1 << j for j in row), b) == (0, 1):
            consistent = False
    assert consistent == _f2_solve([sorted(r) for r in rows], rhs)


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
    # attained exactly by the witness; no sampled combination dips below
    assert _beta(red.last_witness, cx) == m
    for _ in range(6):
        combo = {}
        for b in bounds:
            lam = NovikovScalar({F(rng.randint(-4, 8), 2)
                                 for _ in range(rng.randint(0, 2))}, cx.cutoff)
            combo = chain_add(combo, chain_scale(lam, b))
        if combo:
            assert _beta(combo, cx) >= m
    # scale invariance: a power of T per vector leaves the span as it is
    shifted = [chain_shift(F(rng.randint(-40, 40), 3), b) for b in bounds]
    assert min_beta_subspace(shifted, cx) == m
    # on a one-vector span the minimum is beta of that vector
    assert min_beta_subspace(bounds[:1], cx) == _beta(bounds[0], cx)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_min_beta_closed_form_bars(data):
    """Bars d b_i = T^e_i x_i with beta(x_i) = drop_i: over the span of
    the x_i for i in S, however the spanning vectors mix them, min beta
    is the least drop in S, and robustness switches exactly there."""
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
    cx = FilteredComplex(gens, action, diff, 64)
    S = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    vecs = []
    for k, i in enumerate(S):
        v = {f"x{i}": NovikovScalar([lattice(-3, 3)], 64)}
        for j in S[k + 1:]:
            if data.draw(st.booleans()):
                v[f"x{j}"] = NovikovScalar([lattice(-3, 3)], 64)
        vecs.append(v)
    m = min(drops[i] for i in S)
    assert min_beta_subspace(vecs, cx) == m
    assert is_delta_robust(vecs, m, cx)
    assert not is_delta_robust(vecs, m + F(1, qden), cx)
    for v in vecs:
        assert min_beta_subspace([v], cx) == boundary_depth_elem(v, cx)


# -- Novikov echelon -------------------------------------------------------------

EXP = st.builds(F, st.integers(-2, 4), st.sampled_from([1, 2]))
SCALAR = st.lists(EXP, max_size=2).map(
    lambda exps: NovikovScalar(exps, _FIELD_CUTOFF))


@st.composite
def novikov_columns(draw):
    """Up to five columns of length up to four; some are sums of earlier
    ones times monomials, so dependent families are common."""
    nrows = draw(st.integers(1, 4))
    cols = []
    for _ in range(draw(st.integers(1, 5))):
        if cols and draw(st.booleans()):
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            s, t = draw(SCALAR), draw(SCALAR)
            cols.append([s * x + t * y for x, y in zip(a, b)])
        else:
            cols.append(draw(st.lists(SCALAR, min_size=nrows,
                                      max_size=nrows)))
    return cols


@settings(max_examples=200, deadline=None, derandomize=True)
@given(novikov_columns())
def test_echelon_rank_plus_nullity(cols):
    assert field_rank(cols) + len(field_kernel(cols)) == len(cols)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(novikov_columns())
def test_kernel_vectors_annihilate_the_columns(cols):
    zero = NovikovScalar.zero(_FIELD_CUTOFF)
    for k in field_kernel(cols):
        assert any(k)
        for r in range(len(cols[0])):
            total = zero
            for t, col in zip(k, cols):
                total = total + t * col[r]
            assert total.is_zero()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(novikov_columns(), st.integers(0, 4))
def test_in_span_agrees_with_augmented_rank(cols, pick):
    # the last column is often a combination of the others
    *rest, target = cols
    assert field_in_span(rest, target) == (
        field_rank(rest + [target]) == field_rank(rest))
    assert field_in_span(cols, cols[pick % len(cols)])
