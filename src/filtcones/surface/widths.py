"""Relative Gromov widths for axis-parallel configurations on the torus.

The flexible-disk capacity reduces to strip and quadrant formulas for
axis-parallel strands: a disk with real part on a strand fills two side
strips bounded by the nearest parallel obstruction lines, and a disk
centered at a double point fills four quadrant rectangles.  General
position input is refused rather than approximated.

Relative widths are read off one ``StrandTable`` per carrier, with one
column per obstruction curve, on integers at one frame the caller fixes:
a scale that every curve's ``TorusCurve.scale`` divides.  Both formulas
read the strand lines off the curves' kept ``strands()``, which are
integers at each curve's own scale, brought to the frame with one
multiply (``_lines``), and their gaps (``_gaps``) on integers; a width
becomes a ``Fraction`` once, when it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Sequence, Set, Tuple

from ..novikov import INF, rat
from .curves import GeometryError, TorusCurve


def _factor(curve: TorusCurve, frame: int) -> int:
    """frame / curve.scale; a curve whose scale does not divide the frame
    is refused."""
    if frame % curve.scale:
        raise GeometryError(f"{curve!r} at scale {curve.scale} does not fit "
                            f"the frame {frame}")
    return frame // curve.scale


def _lines(curves: Sequence[TorusCurve], frame: int) -> Dict[str, Set[int]]:
    """The wrapped coordinates of the strand lines of ``curves``, by axis,
    as integers at ``frame``: every edge of a strand lies on its line, so
    they are the strands' coordinates, and ``strands`` refuses a curve
    that is not axis-parallel."""
    lines: Dict[str, Set[int]] = {"v": set(), "h": set()}
    for c in curves:
        m = _factor(c, frame)
        for axis, coord, _ in c.strands():
            lines[axis].add(coord * m)
    return lines


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
    """delta(L; Q) for one carrier L and any obstruction set Q, on integers
    at the frame ``scale`` the caller fixes.

    A strand's capacity is 2 * length * gap, the gap being the wrap-aware
    distance to the nearest parallel obstruction line (SIDE/2 if none).
    ``strands`` holds the carrier's strands at the frame, and ``base``
    their capacities against the other carrier lines (a coincident one
    does not obstruct); each obstruction curve gets a column on first
    use: None where the strand rides on one of its lines, else the
    capacity against its lines alone.  ``width(Q)`` is the max, over
    rows with no None, of the min over ``base`` and Q's columns (0 if L
    lies in Q), as an integer: the width times scale^2.  A curve whose
    ``TorusCurve.scale`` does not divide the frame is refused.
    """

    def __init__(self, carrier: Sequence[TorusCurve], scale: int):
        self.scale = scale
        self.strands = []
        for c in carrier:
            m = _factor(c, scale)
            self.strands += [(axis, coord * m, length * m)
                             for axis, coord, length in c.strands()]
        self.base = self._capacities(carrier, ride=False)
        self._columns: Dict[TorusCurve, list] = {}

    def _capacities(self, curves: Sequence[TorusCurve], ride: bool):
        q, out = self.scale, []
        lines = _lines(curves, q)
        for axis, at, length in self.strands:
            ds = [(c - at) % (2 * q) for c in lines[axis]]
            if ride and 0 in ds:
                out.append(None)
            else:
                out.append(2 * length * min(_gaps(ds, q)))
        return out

    def _column(self, curve: TorusCurve) -> list:
        if curve not in self._columns:
            self._columns[curve] = self._capacities([curve], ride=True)
        return self._columns[curve]

    def width(self, q: Sequence[TorusCurve]) -> int:
        cols = [self._column(c) for c in set(q)]
        return max((min(caps) for caps in zip(self.base, *cols)
                    if None not in caps), default=0)


def gromov_width_rel(carrier: Sequence[TorusCurve], q: Sequence[TorusCurve]
                     ) -> Fraction:
    """delta(L; Q) via the strip-capacity formula (``StrandTable``), in
    the frame of the lcm of the curves' scales, divided out once.

    ``carrier`` is the union of curves representing L (the disk's real
    part); obstructions are Q plus the other carrier strands.  Strands
    collinear with Q are skipped; if every strand is skipped, L lies in
    Q and the width is 0.
    """
    table = StrandTable(carrier, lcm(*(c.scale for c in (*carrier, *q))))
    return Fraction(table.width(q), table.scale ** 2)


def gromov_width_double_points(curves: Sequence[TorusCurve],
                               sigma: Sequence, q: Sequence[TorusCurve] = ()
                               ) -> Fraction:
    """delta^Sigma: quadrant capacities at each double point.

    Obstructions per direction are the strand lines not through the
    point and the Q-curves; the capacity at a point is 4 * min over
    quadrants of the product of the bounding gaps.  Conventions: empty
    Sigma gives +infinity; Sigma inside Q gives 0.  The gaps are read on
    integers at the common scale s of the curves and the points, and the
    least capacity is divided by s^2 once.
    """
    if not sigma:
        return INF
    pts = [(rat(p[0]), rat(p[1])) for p in sigma]
    s = lcm(*(c.scale for c in (*curves, *q)),
            *(c.denominator for p in pts for c in p))
    lines, q_lines = _lines([*curves, *q], s), _lines(q, s)
    caps = []
    for p in pts:
        # wrapped into [-s, s), as the strand lines are
        x, y = ((c.numerator * (s // c.denominator) + s) % (2 * s) - s
                for c in p)
        if x in q_lines["v"] or y in q_lines["h"]:  # a Q line through p
            return Fraction(0)
        g_e, g_w = _gaps([(c - x) % (2 * s) for c in lines["v"]], s)
        g_n, g_s = _gaps([(c - y) % (2 * s) for c in lines["h"]], s)
        caps.append(4 * min(g_e * g_n, g_e * g_s, g_w * g_n, g_w * g_s))
    return Fraction(min(caps), s * s)
