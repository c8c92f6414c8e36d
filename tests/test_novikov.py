import random
from fractions import Fraction

import pytest

from filtcones.novikov import (
    INF, NovikovError, NovikovScalar, parse_scalar, valuation,
)

CUT = Fraction(64)


def nov(*exps, cutoff=CUT):
    return NovikovScalar(exps, cutoff)


def test_char2_cancellation():
    assert (nov(0) + nov(0)).is_zero()
    assert nov(Fraction(1, 2), 2) + nov(2) == nov(Fraction(1, 2))


def test_truncation_flag():
    x = NovikovScalar([1], 2)
    y = NovikovScalar([3], 2)
    assert y.is_zero() and y.truncated
    z = x + y
    assert z == NovikovScalar([1], 2)
    assert z.truncated


def test_mul():
    a, b = Fraction(1, 3), Fraction(5, 2)
    assert nov(a) * nov(b) == nov(a + b)
    sq = (nov(0) + nov(1)) * (nov(0) + nov(1))
    assert sq == nov(0, 2)
    assert (nov(1) * NovikovScalar.zero(CUT)).is_zero()


def test_valuation():
    assert valuation(nov(Fraction(1, 2), 2)) == Fraction(1, 2)
    assert valuation(NovikovScalar.zero(CUT)) == INF


def test_valuation_multiplicative_random():
    rng = random.Random(7)
    for _ in range(50):
        x = nov(*{Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))})
        y = nov(*{Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))})
        assert valuation(x * y) == valuation(x) + valuation(y)
        assert valuation(x + y) >= min(valuation(x), valuation(y))
        if valuation(x) != valuation(y):
            assert valuation(x + y) == min(valuation(x), valuation(y))


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
    assert inv == NovikovScalar([0, 1, 2, 3], 4, truncated=True)
    prod = x * inv
    assert prod == NovikovScalar.one(Fraction(4))


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
        assert (x * x.invert()).exps == (Fraction(0),)


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
