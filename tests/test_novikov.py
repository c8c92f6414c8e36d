import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from filtcones.novikov import (
    INF, NovikovError, NovikovScalar, content_lines, name_tuple, options,
    parse_scalar, points,
)

CUT = Fraction(64)


def nov(*exps, cutoff=CUT):
    return NovikovScalar(exps, cutoff)


def test_char2_cancellation():
    assert (nov(0) + nov(0)).is_zero()
    assert nov(Fraction(1, 2), 2) + nov(2) == nov(Fraction(1, 2))


def test_mul():
    a, b = Fraction(1, 3), Fraction(5, 2)
    assert nov(a) * nov(b) == nov(a + b)
    sq = (nov(0) + nov(1)) * (nov(0) + nov(1))
    assert sq == nov(0, 2)
    assert (nov(1) * NovikovScalar.zero(CUT)).is_zero()


def test_valuation():
    assert nov(Fraction(1, 2), 2).valuation() == Fraction(1, 2)
    assert NovikovScalar.zero(CUT).valuation() == INF


def test_valuation_multiplicative_random():
    rng = random.Random(7)
    for _ in range(50):
        x = nov(*{Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))})
        y = nov(*{Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))})
        assert (x * y).valuation() == x.valuation() + y.valuation()
        assert (x + y).valuation() >= min(x.valuation(), y.valuation())
        if x.valuation() != y.valuation():
            assert (x + y).valuation() == min(x.valuation(), y.valuation())


def test_assoc_comm_random():
    rng = random.Random(11)
    for _ in range(30):
        xs = [nov(*{Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))})
              for _ in range(3)]
        x, y, z = xs
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x


def test_invert_unit():
    assert nov(0).invert() == nov(0)
    x = NovikovScalar([0, 1], 4)
    inv = x.invert()
    assert inv == NovikovScalar([0, 1, 2, 3], 4)
    # the product is exact: (1 + T)(1 + T + T^2 + T^3) = 1 + T^4
    assert x * inv == NovikovScalar([0, 4], 4)
    assert (x * inv).below_cutoff() == NovikovScalar.one(Fraction(4))


def test_invert_errors():
    with pytest.raises(NovikovError):
        NovikovScalar.zero(CUT).invert()
    with pytest.raises(NovikovError):
        nov(Fraction(1, 2)).invert()


def test_invert_roundtrip_random():
    rng = random.Random(3)
    for _ in range(25):
        exps = {Fraction(0)} | {Fraction(rng.randint(1, 20), rng.randint(1, 4))
                                for _ in range(rng.randint(0, 4))}
        x = nov(*exps)
        assert (x * x.invert()).below_cutoff().exps == (Fraction(0),)


def test_cutoff_mismatch():
    with pytest.raises(NovikovError):
        nov(0) + nov(0, cutoff=Fraction(2))


def test_parse_and_print():
    s = parse_scalar("T^{1/2} + T^2 + T^0", CUT)
    assert s == nov(0, Fraction(1, 2), 2)
    assert str(s) == "T^0 + T^1/2 + T^2"
    assert parse_scalar("0", CUT).is_zero()
    assert str(NovikovScalar.zero(CUT)) == "0"
    # unsorted + duplicate terms normalize
    assert parse_scalar("T^3 + T^1 + T^3", CUT) == nov(1)


# -- ring laws, derandomized property tests ----------------------------------

def exponent(lo, hi):
    """Rationals in [lo, hi] whose denominators divide 12."""
    return st.builds(Fraction, st.integers(lo * 12, hi * 12), st.just(12))


def scalars(lo=-3, hi=12, cutoff=CUT):
    """Scalars with exponents in [lo, hi]."""
    return st.builds(lambda exps: NovikovScalar(exps, cutoff),
                     st.lists(exponent(lo, hi), max_size=5))


# the laws both with exponents of either sign far below the cutoff, and
# with nonnegative exponents whose sums cross a small cutoff
LAW_CASES = st.one_of(
    st.tuples(scalars(), scalars(), scalars()),
    st.tuples(*(scalars(0, 4, Fraction(5)) for _ in range(3))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(LAW_CASES)
def test_ring_laws(xyz):
    x, y, z = xyz
    cut = x.cutoff
    zero, one = NovikovScalar.zero(cut), NovikovScalar.one(cut)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + x).is_zero()
    assert x + zero == x and x * one == x and (x * zero).is_zero()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(LAW_CASES, exponent(-3, 6))
def test_shift_is_multiplication_by_a_monomial(xyz, s):
    x = xyz[0]
    assert x.shift(s) == x * NovikovScalar.monomial(s, x.cutoff)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(LAW_CASES, exponent(-3, 6))
def test_ring_operations_keep_terms_past_the_cutoff(xyz, s):
    x, y, _ = xyz
    assert set((x + y).exps) == set(x.exps) ^ set(y.exps)
    terms = Counter(a + b for a in x.exps for b in y.exps)
    assert set((x * y).exps) == {e for e, n in terms.items() if n % 2}
    assert x.shift(s).exps == tuple(e + s for e in x.exps)
    assert nov(60) * nov(10) == nov(70) and nov(60).shift(4) == nov(64)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(exponent(0, 6).filter(lambda e: e > 0), max_size=4),
       st.sampled_from([Fraction(4), Fraction(15, 2)]))
def test_invert_is_an_inverse_below_the_cutoff(rest, cutoff):
    x = NovikovScalar([0, *rest], cutoff)
    inv = x.invert()
    assert (inv * x).below_cutoff() == NovikovScalar.one(cutoff)
    assert all(e < cutoff for e in inv.exps)


def test_line_reader():
    text = "gen a action 0  # a comment\n\n   # only a comment\n d a = 0\n"
    assert list(content_lines(text)) == [(1, "gen a action 0"), (4, "d a = 0")]
    # numbered pairs keep their numbers
    assert list(content_lines([(7, " x # y"), (9, "#")])) == [(7, "x")]
    assert options(["k=0", "family=G"], ("k", "family")) == \
        {"k": "0", "family": "G"}
    for words, msg in [(["k"], "expected key=value, got 'k'"),
                       (["famly=G"], "unknown option 'famly'; expected k"),
                       (["k=0", "k=1"], "option 'k' given twice")]:
        with pytest.raises(ValueError, match=msg):
            options(words, ("k",))
    assert points("(0,1/2) (-1,0)") == [(0, Fraction(1, 2)), (-1, 0)]
    assert name_tuple(" (a, b) ") == ("a", "b")
    for bad in ("0,0", "(0,0,1)", "(0)"):
        with pytest.raises(ValueError):
            points(bad)
