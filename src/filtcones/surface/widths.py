"""Relative Gromov widths for axis-parallel configurations on the torus.

The flexible-disk capacity reduces to strip and quadrant formulas for
axis-parallel strands: a disk with real part on a strand fills two side
strips bounded by the nearest parallel obstruction lines, and a disk
centered at a double point fills four quadrant rectangles.  General
position input is refused rather than approximated.

Relative widths are read off one ``StrandTable`` per carrier, with one
column per obstruction curve; both formulas read lines from ``_lines``
and their gaps (``_gaps``) on integers at one common scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, FrozenSet, Sequence, Tuple

from ..novikov import INF, rat
from .curves import GeometryError, TorusCurve, wrap_point

Rat = Fraction


class Box:
    """Axis-parallel keep-in box: disks must stay inside it."""

    def __init__(self, x0, x1, y0, y1):
        self.x0, self.x1 = rat(x0), rat(x1)
        self.y0, self.y1 = rat(y0), rat(y1)
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise GeometryError("empty box")

    def contains(self, p) -> bool:
        return self.x0 <= p[0] <= self.x1 and self.y0 <= p[1] <= self.y1


def _lines(curves: Sequence[TorusCurve]) -> Dict[str, FrozenSet[Fraction]]:
    """The wrapped coordinates of the strand lines of ``curves``, by axis:
    the union of their ``strand_lines``, which refuse a curve that is not
    axis-parallel."""
    return {axis: frozenset().union(*(c.strand_lines()[axis]
                                      for c in curves)) for axis in "vh"}


def _gaps(ds: Sequence[int], q: int) -> Tuple[int, int]:
    """Wrap-aware distances to the nearest parallel obstruction line on
    either side, on integers at scale q (so the side is 2 q): ``ds`` are
    the lines' offsets ahead of the point modulo 2 q, and a line through
    the point (offset 0) does not obstruct.  Unobstructed sides share
    the complement evenly."""
    ds = [d for d in ds if d]
    if not ds:
        return q, q
    return min(ds), 2 * q - max(ds)


class StrandTable:
    """delta(L; Q) for one carrier L and any obstruction set Q.

    A strand's capacity is 2 * length * gap, the gap being the wrap-aware
    distance to the nearest parallel obstruction line (SIDE/2 if none).
    ``base`` holds it against the other carrier lines (a coincident one
    does not obstruct); each obstruction curve gets a column on first
    use: None where the strand rides on one of its lines, else the
    capacity against its lines alone.  width(Q) is the max, over rows
    with no None, of the min over ``base`` and Q's columns (0 if L lies
    in Q).  Entries are integers, capacities times scale^2; a column
    that needs a finer scale rescales the table first.
    """

    def __init__(self, carrier: Sequence[TorusCurve]):
        lines = _lines(carrier)
        self.strands = [s for c in carrier for s in c.strands()]
        self.scale = lcm(*(x.denominator for _, c, n in self.strands
                           for x in (c, n)))
        self.base = self._capacities(lines, ride=False)
        self._columns: Dict[TorusCurve, list] = {}

    def _capacities(self, lines: Dict[str, FrozenSet[Fraction]], ride: bool):
        q, out = self.scale, []
        for axis, coord, length in self.strands:
            at = coord.numerator * (q // coord.denominator)
            ds = [(c.numerator * (q // c.denominator) - at) % (2 * q)
                  for c in lines[axis]]
            if ride and 0 in ds:
                out.append(None)
            else:
                out.append(2 * length.numerator * (q // length.denominator)
                           * min(_gaps(ds, q)))
        return out

    def _column(self, curve: TorusCurve) -> list:
        if curve not in self._columns:
            lines = _lines([curve])
            q = lcm(self.scale, *(c.denominator for cs in lines.values()
                                  for c in cs))
            if q != self.scale:
                k = (q // self.scale) ** 2
                self.scale, self.base = q, [x * k for x in self.base]
                for col in self._columns.values():
                    col[:] = [x if x is None else x * k for x in col]
            self._columns[curve] = self._capacities(lines, ride=True)
        return self._columns[curve]

    def width(self, q: Sequence[TorusCurve]) -> Fraction:
        cols = [self._column(c) for c in set(q)]  # may rescale the table
        return Fraction(max((min(caps) for caps in zip(self.base, *cols)
                             if None not in caps), default=0),
                        self.scale ** 2)


def gromov_width_rel(carrier: Sequence[TorusCurve], q: Sequence[TorusCurve]
                     ) -> Fraction:
    """delta(L; Q) via the strip-capacity formula (``StrandTable``).

    ``carrier`` is the union of curves representing L (the disk's real
    part); obstructions are Q plus the other carrier strands.  Strands
    collinear with Q are skipped; if every strand is skipped, L lies in
    Q and the width is 0.
    """
    return StrandTable(carrier).width(q)


def gromov_width_double_points(curves: Sequence[TorusCurve],
                               sigma: Sequence, q: Sequence[TorusCurve] = (),
                               boxes: Sequence[Box] = ()) -> Fraction:
    """delta^Sigma: quadrant capacities at each double point.

    Obstructions per direction are the strand lines not through the
    point, the Q-curves, and the keep-in boxes; the capacity at a point
    is 4 * min over quadrants of the product of the bounding gaps.
    Conventions: empty Sigma gives +infinity; Sigma inside Q gives 0.
    The gaps are read on integers at the common scale s of the lines,
    the points and the boxes, and the least capacity is divided by s^2
    once.
    """
    if not sigma:
        return INF
    pts = [wrap_point((rat(p[0]), rat(p[1]))) for p in sigma]
    lines, q_lines = _lines([*curves, *q]), _lines(q)
    s = lcm(*(c.denominator for cs in lines.values() for c in cs),
            *(c.denominator for p in pts for c in p),
            *(c.denominator for b in boxes for c in (b.x0, b.x1, b.y0, b.y1)))

    def ints(cs):
        return [c.numerator * (s // c.denominator) for c in cs]

    (vs, hs), (qv, qh) = ((ints(ls["v"]), ints(ls["h"]))
                          for ls in (lines, q_lines))
    caps = []
    for p in pts:
        x, y = ints(p)
        if x in qv or y in qh:  # both wrapped: a Q line through p
            return Fraction(0)
        g_e, g_w = _gaps([(c - x) % (2 * s) for c in vs], s)
        g_n, g_s = _gaps([(c - y) % (2 * s) for c in hs], s)
        for b in boxes:
            if b.contains(p):
                x0, x1, y0, y1 = ints((b.x0, b.x1, b.y0, b.y1))
                g_e, g_w = min(g_e, x1 - x), min(g_w, x - x0)
                g_n, g_s = min(g_n, y1 - y), min(g_s, y - y0)
        caps.append(4 * min(g_e * g_n, g_e * g_s, g_w * g_n, g_w * g_s))
    return Fraction(min(caps), s * s)
