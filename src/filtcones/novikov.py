"""Exact arithmetic in the Novikov field over the two-element field.

A scalar is a finite sum of powers T^e with rational exponents e and
coefficient 1 (characteristic 2: a power is present or absent).  Sums,
products and shifts of such sums are finite sums again, and they keep
every term.  Every scalar carries a rational cutoff.  It bounds the
written exponents: one at or above the cutoff is refused by
``parse_scalar``.  Scalars of different cutoffs do not mix.  The one
series left, ``invert`` (a geometric series kept below the cutoff
through ``below_cutoff``), has no caller in the package; the benchmark
tracer still counts its calls by name, so it stays until that counter
goes.  No inverse of a map is built: ``filtcx`` reads only its least
action.
"""

from __future__ import annotations

import contextlib
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Union

RatLike = Union[int, str, Fraction]

INF = Fraction(10**12)  # sentinel used by callers for +infinity levels
DEFAULT_CUTOFF = Fraction(64)  # the cutoff where none is given


def rat(x: RatLike) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


class NovikovError(ValueError):
    pass


class NovikovScalar:
    """A finite Z/2-combination of powers T^e; ``cutoff`` bounds its
    written exponents and is the precision of ``invert``."""

    __slots__ = ("exps", "cutoff")

    def __init__(self, exps: Iterable[RatLike], cutoff: RatLike):
        seen = set()
        for e in exps:
            e = rat(e)
            if e in seen:
                seen.remove(e)  # characteristic 2 cancellation
            else:
                seen.add(e)
        self.exps = tuple(sorted(seen))
        self.cutoff = rat(cutoff)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(cutoff: RatLike) -> "NovikovScalar":
        return NovikovScalar((), cutoff)

    @staticmethod
    def one(cutoff: RatLike) -> "NovikovScalar":
        return NovikovScalar((0,), cutoff)

    @staticmethod
    def monomial(e: RatLike, cutoff: RatLike) -> "NovikovScalar":
        return NovikovScalar((rat(e),), cutoff)

    # -- basic predicates ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.exps

    def __bool__(self) -> bool:
        return bool(self.exps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NovikovScalar)
            and self.exps == other.exps
            and self.cutoff == other.cutoff
        )

    def __hash__(self):
        return hash((self.exps, self.cutoff))

    def _check(self, other: "NovikovScalar"):
        if self.cutoff != other.cutoff:
            raise NovikovError(
                f"cutoff mismatch: {self.cutoff} vs {other.cutoff}"
            )

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "NovikovScalar") -> "NovikovScalar":
        self._check(other)
        return NovikovScalar(set(self.exps) ^ set(other.exps), self.cutoff)

    def __mul__(self, other: "NovikovScalar") -> "NovikovScalar":
        self._check(other)
        acc = set()
        for a in self.exps:
            for b in other.exps:
                s = a + b
                if s in acc:
                    acc.remove(s)
                else:
                    acc.add(s)
        return NovikovScalar(acc, self.cutoff)

    def shift(self, s: RatLike) -> "NovikovScalar":
        """Multiply by the monomial T^s."""
        s = rat(s)
        return NovikovScalar((e + s for e in self.exps), self.cutoff)

    def valuation(self) -> Fraction:
        """Minimal exponent; +infinity (INF sentinel) for the zero scalar."""
        if not self.exps:
            return INF
        return self.exps[0]

    def below_cutoff(self) -> "NovikovScalar":
        """The terms below the cutoff: where a series stops."""
        return NovikovScalar(self.exps[:bisect_left(self.exps, self.cutoff)],
                             self.cutoff)

    def invert(self) -> "NovikovScalar":
        """Inverse of a valuation-zero unit, exact below the cutoff.

        Uses the geometric series: if x = 1 + k with v(k) > 0 then
        x^-1 = sum k^n, each power cut below the cutoff; the sum ends
        once a power is cut to zero.  Every exponent of the result is
        below the cutoff.
        """
        if not self.exps:
            raise NovikovError("cannot invert 0")
        if self.exps[0] != 0:
            raise NovikovError(
                f"inversion requires valuation 0, got {self.exps[0]}; "
                "rescale by T^-v first"
            )
        k = NovikovScalar(self.exps[1:], self.cutoff)
        acc = power = NovikovScalar.one(self.cutoff).below_cutoff()
        while power:
            power = (power * k).below_cutoff()
            acc = acc + power
        return acc

    # -- text form ------------------------------------------------------

    def __str__(self) -> str:
        if not self.exps:
            return "0"
        return " + ".join(f"T^{e}" for e in self.exps)

    __repr__ = __str__


def parse_scalar(text: str, cutoff: RatLike) -> NovikovScalar:
    """Parse "T^{p/q} + T^{r/s} + ..." (or "0"); unsorted input is fine.

    An exponent at or above the cutoff is refused, not dropped.
    """
    text = text.strip()
    if text == "0":
        return NovikovScalar.zero(cutoff)
    cutoff = rat(cutoff)
    exps = []
    for term in text.split("+"):
        term = term.strip()
        if not term:
            continue
        if term == "1":
            exps.append(Fraction(0))
            continue
        if not term.startswith("T^"):
            raise NovikovError(f"bad Novikov term {term!r}")
        body = term[2:].strip()
        if body.startswith("{") and body.endswith("}"):
            body = body[1:-1]
        exps.append(rat(body))
        if exps[-1] >= cutoff:
            raise NovikovError(f"exponent {exps[-1]} is at or above the "
                               f"cutoff {cutoff}")
    return NovikovScalar(exps, cutoff)


@contextlib.contextmanager
def on_line(lineno: int, error=ValueError):
    """Re-raise what goes wrong while one input line is parsed as
    ``error("line N: ...")``."""
    try:
        yield
    except (ValueError, ArithmeticError, LookupError) as exc:
        raise error(f"line {lineno}: {exc}") from exc


def valuation(x: NovikovScalar) -> Fraction:
    return x.valuation()
