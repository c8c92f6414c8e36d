"""The two elimination kernels: the F2 pivot basis against the window
solver of the oracle suite, and the Novikov echelon against the
rank-nullity identity and exact annihilation."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from filtcones.filtcx import (
    _FIELD_CUTOFF, F2Basis, field_in_span, field_kernel, field_rank,
)
from filtcones.novikov import NovikovScalar

from support import _f2_solve

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
