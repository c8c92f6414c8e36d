"""Exact arithmetic in the Novikov field over the two-element field.

A scalar is a finite sum of powers T^e with rational exponents e and
coefficient 1 (characteristic 2: a power is present or absent).  It is
held on one integer frame: its exponents are sorted integer numerators
over one positive denominator, reduced by their common gcd, so that equal
scalars have equal frames.  Sums, products and shifts bring their
operands to a common frame with integer multiplies and hand the
numerators to the constructor, which cancels them in pairs, the one
characteristic-2 cancellation; they keep every term.  ``exps`` gives the
exponents as ``Fraction``s, and ``lift`` gives them times a lattice
denominator as integers: the filtered-complex layer reads the frame
through it alone.  Chains add through ``filtcx.chain_sum`` and operation
tables through ``wfainf.table_sum``, both on this sum.  Every scalar
carries a rational cutoff.  It bounds the written exponents: one at or
above the cutoff is refused by ``parse_scalar``.  Scalars of different
cutoffs do not mix.  The one series left, ``invert`` (a geometric series
kept below the cutoff through ``below_cutoff``), has no caller in the
package; the benchmark tracer still counts its calls by name, so it
stays until that counter goes.  No inverse of a map is built: ``filtcx``
reads only its least action.  The module also holds the line reader
every input format shares: ``content_lines``, ``options``, ``points``
and ``name_tuple``.
"""

from __future__ import annotations

import contextlib
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Iterator, List, Tuple, Union

RatLike = Union[int, str, Fraction]

INF = Fraction(10**12)  # sentinel used by callers for +infinity levels
DEFAULT_CUTOFF = Fraction(64)  # the cutoff where none is given


def rat(x: RatLike) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    try:
        return Fraction(str(x))
    except ZeroDivisionError:
        raise ZeroDivisionError(f"zero denominator in {str(x)!r}") from None


class NovikovError(ValueError):
    pass


class NovikovScalar:
    """A finite Z/2-combination of powers T^e; ``cutoff`` bounds its
    written exponents and is the precision of ``invert``.

    ``exps`` are rationals, or, with ``den``, integer numerators over the
    denominator ``den``.  The frame is ``_nums`` over ``denominator``.
    """

    __slots__ = ("_nums", "denominator", "cutoff")

    def __init__(self, exps: Iterable[RatLike], cutoff: RatLike,
                 den: int = 0):
        if not den:
            exps = [rat(e) for e in exps]
            den = lcm(1, *(e.denominator for e in exps))
            exps = [e.numerator * (den // e.denominator) for e in exps]
        seen = set()
        for k in exps:
            if k in seen:
                seen.remove(k)  # characteristic 2 cancellation
            else:
                seen.add(k)
        if den > 1 and (g := gcd(den, *seen)) > 1:
            seen, den = [k // g for k in seen], den // g
        self._nums = tuple(sorted(seen))
        self.denominator = den
        self.cutoff = rat(cutoff)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(cutoff: RatLike) -> "NovikovScalar":
        return NovikovScalar((), cutoff, 1)

    @staticmethod
    def one(cutoff: RatLike) -> "NovikovScalar":
        return NovikovScalar((0,), cutoff, 1)

    @staticmethod
    def monomial(e: RatLike, cutoff: RatLike) -> "NovikovScalar":
        e = rat(e)
        return NovikovScalar((e.numerator,), cutoff, e.denominator)

    # -- the frame ------------------------------------------------------

    @property
    def exps(self) -> Tuple[Fraction, ...]:
        """The exponents, ascending."""
        return tuple(Fraction(k, self.denominator) for k in self._nums)

    def lift(self, q: int) -> List[int]:
        """The exponents times ``q``, ascending, as integers; raises
        NovikovError if ``q`` does not clear them."""
        m, r = divmod(q, self.denominator)
        if r:
            raise NovikovError(f"{q} does not clear the exponents of {self}")
        return [k * m for k in self._nums]

    def _framed(self, other: "NovikovScalar"):
        """(den, self's numerators, other's numerators) on one frame."""
        a, b = self.denominator, other.denominator
        if a == b:
            return a, self._nums, other._nums
        den = lcm(a, b)
        return den, self.lift(den), other.lift(den)

    # -- basic predicates ---------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NovikovScalar)
            and self._nums == other._nums
            and self.denominator == other.denominator
            and self.cutoff == other.cutoff
        )

    def __hash__(self):
        return hash((self._nums, self.denominator, self.cutoff))

    def _check(self, other: "NovikovScalar"):
        if self.cutoff is not other.cutoff and self.cutoff != other.cutoff:
            raise NovikovError(
                f"cutoff mismatch: {self.cutoff} vs {other.cutoff}"
            )

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "NovikovScalar") -> "NovikovScalar":
        self._check(other)
        den, xs, ys = self._framed(other)
        return NovikovScalar([*xs, *ys], self.cutoff, den)

    def __mul__(self, other: "NovikovScalar") -> "NovikovScalar":
        self._check(other)
        den, xs, ys = self._framed(other)
        return NovikovScalar([x + y for x in xs for y in ys], self.cutoff, den)

    def shift(self, s: RatLike) -> "NovikovScalar":
        """Multiply by the monomial T^s."""
        s = rat(s)
        den = lcm(self.denominator, s.denominator)
        k = s.numerator * (den // s.denominator)
        return NovikovScalar([x + k for x in self.lift(den)], self.cutoff, den)

    def valuation(self) -> Fraction:
        """Minimal exponent; +infinity (INF sentinel) for the zero scalar."""
        if not self._nums:
            return INF
        return Fraction(self._nums[0], self.denominator)

    def below_cutoff(self) -> "NovikovScalar":
        """The terms below the cutoff: where a series stops."""
        exps = self.exps
        return NovikovScalar(exps[:bisect_left(exps, self.cutoff)],
                             self.cutoff)

    def invert(self) -> "NovikovScalar":
        """Inverse of a valuation-zero unit, exact below the cutoff.

        Uses the geometric series: if x = 1 + k with v(k) > 0 then
        x^-1 = sum k^n, each power cut below the cutoff; the sum ends
        once a power is cut to zero.  Every exponent of the result is
        below the cutoff.
        """
        if not self._nums:
            raise NovikovError("cannot invert 0")
        if self._nums[0] != 0:
            raise NovikovError(
                f"inversion requires valuation 0, got {self.valuation()}; "
                "rescale by T^-v first"
            )
        k = NovikovScalar(self._nums[1:], self.cutoff, self.denominator)
        acc = power = NovikovScalar.one(self.cutoff).below_cutoff()
        while power:
            power = (power * k).below_cutoff()
            acc = acc + power
        return acc

    # -- text form ------------------------------------------------------

    def __str__(self) -> str:
        if not self._nums:
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
        raise error(f"line {lineno}: {error_text(exc)}") from exc


def error_text(exc: Exception) -> str:
    """What an input error says: a missing key is named as such."""
    return f"unknown or missing {exc}" if isinstance(exc, KeyError) \
        else str(exc)


def content_lines(source) -> Iterator[Tuple[int, str]]:
    """The numbered lines of ``source`` (text, or ``(n, line)`` pairs)
    that hold something once the ``#`` comment is cut, stripped."""
    if isinstance(source, str):
        source = enumerate(source.splitlines(), 1)
    for n, raw in source:
        line = raw.split("#", 1)[0].strip()
        if line:
            yield n, line


def options(words: Iterable[str], keys: Tuple[str, ...]) -> Dict[str, str]:
    """The ``key=value`` words, each key one of ``keys`` and given once."""
    kw: Dict[str, str] = {}
    for word in words:
        key, sep, val = word.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {word!r}")
        if key not in keys:
            raise ValueError(f"unknown option {key!r}; expected "
                             f"{', '.join(keys) or 'none'}")
        if key in kw:
            raise ValueError(f"option {key!r} given twice")
        kw[key] = val
    return kw


def points(text: str) -> List[Tuple[Fraction, Fraction]]:
    """The vertices of "(x,y) (x,y) ...", each read by ``name_tuple``."""
    pts = []
    for word in text.split():
        x, y = name_tuple(word)
        pts.append((rat(x), rat(y)))
    return pts


def name_tuple(text: str) -> Tuple[str, ...]:
    """The entries of "(g1,...,gd)"."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"expected (a,b,...), got {text!r}")
    return tuple(g.strip() for g in text[1:-1].split(","))
