"""The elimination kernels: the F2 pivot basis against the window
solver of the oracle suite, the lattice grid reduction against the
Fraction-monomial reference grid, and the Novikov echelon against the
rank-nullity identity and exact annihilation."""

import random
from fractions import Fraction as F
from math import lcm

from hypothesis import given, settings, strategies as st

from filtcones.filtcx import (
    _FIELD_CUTOFF, F2Basis, FiltError, FilteredComplex, _denominators,
    _GridReduction, field_in_span, field_kernel, field_rank,
)
from filtcones.novikov import NovikovScalar

from support import RefGridReduction, _f2_solve, random_complex

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
def test_f2_basis_solve_agrees_with_window_solver(system):
    rows, rhs = system
    basis = F2Basis()
    consistent = True
    for row, b in zip(rows, rhs):
        if basis.add(sum(1 << j for j in row), b) == (0, 1):
            consistent = False
    assert consistent == _f2_solve([sorted(r) for r in rows], rhs)
    if consistent:
        x = basis.solve()
        for row, b in zip(rows, rhs):
            assert sum(x >> j & 1 for j in row) % 2 == b


# -- lattice grid against the reference grid ---------------------------------------


@st.composite
def grid_cases(draw):
    """A random complex (odd or even denominators) rebased to a cutoff
    that may be small enough to cut terms off inside the window, a grid
    step refined by a factor in {1, 2, 6, 30}, and query chains: boundaries
    of chains with negative and large exponents, which widen the window
    at both ends, plus one chain that need not be a cycle."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    qden = draw(st.sampled_from([1, 2, 3, 5, 15]))
    cx = random_complex(rng, n=draw(st.integers(2, 4)), qden=qden)
    cut = draw(st.sampled_from([F(64), F(5), F(7, 2), F(13, 3)]))
    cx = FilteredComplex(cx.generators, cx.action,
                         {g: {h: s.rebase(cut) for h, s in col.items()}
                          for g, col in cx.diff.items()}, cut, check=False)

    def chain():
        return {g: s for g in cx.generators if rng.random() < 0.6
                and (s := NovikovScalar({F(rng.randint(-3 * qden, 6 * qden), qden)
                                         for _ in range(rng.randint(1, 2))}, cut))}

    chains = [cx.d(chain()) for _ in range(draw(st.integers(0, 3)))]
    chains = [c for c in chains if c] + [chain()]
    return cx, draw(st.sampled_from([1, 2, 6, 30])), chains


def _outcome(f, *args):
    try:
        return f(*args)
    except FiltError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid_cases())
def test_lattice_grid_matches_reference_grid(case):
    cx, refine, chains = case
    exps = [(g, e) for c in chains for g, s in c.items() for e in s.exps]
    q = lcm(_denominators(cx), refine, *(e.denominator for _, e in exps))
    acts = [cx.action[g] - e for g, e in exps]
    need = (q, max(acts, default=None), min(acts, default=None))
    grid, ref = _GridReduction(cx, *need), RefGridReduction(cx, *need)
    assert (grid.lo, grid.hi, grid.step) == (ref.lo, ref.hi, ref.step)
    assert len(grid.monomials) == len(ref.monomials)
    assert grid.births == ref.births
    assert grid.basis.rows == ref.basis.rows
    for c in chains:
        assert (_outcome(grid.boundary_level, c)
                == _outcome(ref.boundary_level, c))
    bounds = chains[:-1]
    assert (_outcome(grid.min_beta_over_span, bounds)
            == _outcome(ref.min_beta_over_span, bounds))
    assert (getattr(grid, "last_witness", None)
            == getattr(ref, "last_witness", None))


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
