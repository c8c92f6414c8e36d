"""metric-search: single MetricSpace queries on seeded torus spaces.

Each round builds a few canned geometries (the four-surgery space and the
single-trace space at distinct (eps, delta)).  Every op gets a deep copy of
one of them, so no object is shared between ops, plus its own extra moves:
suspensions between the vertical lines S1..S4, whose length is the swept
area (twice the gap), and on the single-trace space a duplicate of the
trace move.  No space has more than 4 moves.  Pairs that no expression
connects are queried with ``d_k`` only.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction
from typing import List, Optional, Tuple

from filtcones import fragmetric, scenarios

from checks import (rect_union_area, suspension_rects, trace_rects,
                    witness_shadow_range)
from op import Op

BIG = Fraction(10**12)  # the program reports "no expression" as this value
HALF = Fraction(1, 2)
LINES = ("S1", "S2", "S3", "S4")

# Extra suspensions of an op, by slot; fixed so that the work of each slot
# does not depend on the seed.  Every pattern leaves two lines unjoined.
LEM_PATTERNS = [(("S1", "S2"),), (("S1", "S2"), ("S3", "S4")), (("S2", "S3"),),
                (("S1", "S3"), ("S2", "S4"))]
TRACE_PATTERNS = [(("S1", "S2"),), (("S2", "S3"),), ()]


def _plan(queries, patterns, fallback):
    """(kind, arg, suspension pairs) for each op of a round."""
    out = []
    for i, (kind, arg) in enumerate(queries):
        pairs = patterns[i % len(patterns)]
        if not pairs and kind in ("dk_susp", "dk_apart"):
            pairs = fallback
        out.append((kind, arg, pairs))
    return out


LEM_OPS = _plan(
    [("dk", k) for k in (0, 1, 2, 3, 4) * 3] + [("dk", 0)]
    + [("la", a) for a in (None, None, "2delta", "2delta", "4eps", "4eps")]
    + [("df", None)] * 2 + [("dhat", None)]
    + [("dk_susp", k) for k in (0, 1, 0, 1, 0, 1)]
    + [("dk_apart", k) for k in (1, 1, 2)], LEM_PATTERNS, None)
TRACE_OPS = _plan(
    [("dk", k) for k in (0, 1, 2, 3) * 2]
    + [("la", a) for a in (None, "delta", None, "delta")]
    + [("df", None)] * 3
    + [("dk_susp", k) for k in (1, 0, 1)] + [("dk_apart", 1)] * 2,
    TRACE_PATTERNS, (("S3", "S4"),))
LEM_GEOMETRIES = 1    # four-surgery spaces built per round
TRACE_GEOMETRIES = 3  # single-trace spaces built per round


def line_x(name: str, eps: Fraction) -> Fraction:
    return {"S1": -HALF - eps, "S2": -HALF + eps,
            "S3": HALF - eps, "S4": HALF + eps}[name]


def infinite(v) -> bool:
    return v >= BIG


class MetricSearch:
    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.used = set()

    # -- inputs ----------------------------------------------------------------

    def geometries(self, rng, count):
        out = []
        while len(out) < count:
            m = rng.randint(8, 16)
            n = rng.randint(2 * m * m + 1, 2 * m * m + 4000)
            if (m, n) not in self.used:
                self.used.add((m, n))
                out.append((Fraction(1, m), Fraction(1, n)))
        return out

    def round(self, r: int) -> List[Op]:
        rng = random.Random(f"metric-search:{self.seed}:{r}")
        ops = []
        for space_kind, builder, count, plan in (
                ("lem", scenarios.lem_ex1_space, LEM_GEOMETRIES, LEM_OPS),
                ("trace", scenarios.trace_surgery_space, TRACE_GEOMETRIES,
                 TRACE_OPS)):
            bases = [(builder(e, d), e, d) for e, d in self.geometries(rng, count)]
            first_df = [kind for kind, _, _ in plan].index("df")
            for i, (kind, arg, pairs) in enumerate(plan):
                base, eps, delta = bases[i % count]
                ops.append(self.op(space_kind, base, eps, delta, kind, arg,
                                   pairs, audit=i == first_df))
        return ops

    @staticmethod
    def extra_moves(space_kind, pairs, eps, delta):
        """The op's extra moves and their shadows from our own rectangles."""
        moves, shadows, links = [], {}, []
        if space_kind == "trace":
            moves.append(fragmetric.trace_move("T1b", "L''", ("L", "S1"),
                                               [delta], [0]))
            shadows["T1b"] = rect_union_area(trace_rects([delta], [0]))
        for a, b in pairs:
            length = 2 * abs(line_x(a, eps) - line_x(b, eps))
            name = f"s{a[1]}{b[1]}"
            moves.append(fragmetric.suspension_move(name, a, b, length))
            shadows[name] = rect_union_area(suspension_rects(length))
            links.append((a, b, length))
        return moves, shadows, links

    def op(self, space_kind, base, eps, delta, kind, arg, pairs, audit) -> Op:
        moves, shadows, links = self.extra_moves(space_kind, pairs, eps, delta)
        if space_kind == "lem":
            shadows["phi"] = rect_union_area(suspension_rects(4 * eps))
            shadows["T4"] = rect_union_area(trace_rects([delta] * 4, [0, 0, 1, 1]))
            lp = "L'"
        else:
            shadows["T1"] = rect_union_area(trace_rects([delta], [0]))
            lp = "L''"
        space = copy.deepcopy(base)
        space.moves.extend(moves)
        audit_space = copy.deepcopy(space) if audit else None
        pair = (lp, "L")
        if kind == "dk_susp":
            a, b, _ = links[0]
            pair = (a, b)
        elif kind == "dk_apart":
            pair = apart_pair(links)

        if kind in ("dk", "dk_susp", "dk_apart"):
            run = lambda: space.d_k(pair[0], pair[1], "F", arg)
        elif kind == "la":
            a = {None: None, "2delta": 2 * delta, "4eps": 4 * eps,
                 "delta": delta}[arg]
            run = lambda: space.cone_length(lp, "L", "F", a)
        elif kind == "df":
            run = lambda: space.d_f(lp, "L", "F")
        else:
            run = lambda: space.d_hat(lp, "L", "Fleft", "Fright")

        def check(res):
            return check_metric(res, space_kind, kind, arg, eps, delta,
                                shadows, links, pair, audit_space)

        return Op(f"{space_kind}:{kind}", run, check)


def apart_pair(links) -> Tuple[str, str]:
    """Two lines that no extra suspension joins, directly or in a chain."""
    comp = {s: s for s in LINES}

    def find(s):
        while comp[s] != s:
            s = comp[s]
        return s

    for a, b, _ in links:
        comp[find(a)] = find(b)
    for i, a in enumerate(LINES):
        for b in LINES[i + 1:]:
            if find(a) != find(b):
                return a, b
    raise ValueError("every line is joined")


def check_interval(lower, upper, witnesses, shadows) -> Optional[str]:
    """0 <= lower <= upper, and a finite upper bound lies between the
    largest and the sum of the shadows of some witness's moves."""
    if lower < 0 or lower > upper:
        return f"bad interval [{lower}, {upper}]"
    if infinite(upper):
        return None
    ranges = []
    for w in witnesses:
        rng = witness_shadow_range(w, shadows)
        if rng is None:
            return f"witness {w} names an undeclared move"
        ranges.append(rng)
    if not max(r[0] for r in ranges) <= upper <= max(r[1] for r in ranges):
        return f"upper {upper} outside witness shadow ranges {ranges}"
    return None


def check_metric(res, space_kind, kind, arg, eps, delta, shadows, links,
                 pair, audit_space) -> Optional[str]:
    lo, up = res.lower, res.upper
    if kind == "la":
        if lo < 0 or lo > up:
            return f"bad cone length [{lo}, {up}]"
        if space_kind == "lem" and arg == "2delta" and (lo, up) != (4, 4):
            return f"l_2delta(L',L) = [{lo}, {up}], want [4, 4]"
        if space_kind == "lem" and arg in (None, "4eps") and up != 0:
            return f"l_{arg}(L',L) upper {up}, want 0 (phi alone)"
        if space_kind == "trace" and arg == "delta" and up > 1:
            return f"l_delta(L'',L) upper {up}, want <= 1 (T1 alone)"
        return None
    # d_hat's witness is the pair of d_F witnesses; its upper is their max
    witnesses = res.witness if kind == "dhat" else (res.witness,)
    msg = check_interval(lo, up, witnesses, shadows)
    if msg:
        return msg
    if kind == "dk" and space_kind == "lem" and arg == 0 \
            and (lo, up) != (4 * eps, 4 * eps):
        return f"d_0(L',L) = [{lo}, {up}], want 4eps = {4 * eps}"
    if kind == "dk" and space_kind == "trace" and arg == 1 \
            and (lo, up) != (delta, delta):
        return f"d_1(L'',L) = [{lo}, {up}], want delta = {delta}"
    if kind == "dk_susp" and up > links[0][2]:
        return f"d_k{pair} upper {up} > suspension length {links[0][2]}"
    if kind == "df" and audit_space is not None:
        return audit_d_f(res, audit_space, "L'" if space_kind == "lem" else "L''")
    return None


def audit_d_f(res, space, lp) -> Optional[str]:
    """d_k bounds do not increase with k, and d_F's upper bound is the least
    d_k upper bound over k <= 6 (computed on an untouched copy)."""
    prev = None
    uppers = []
    for k in range(7):
        r = space.d_k(lp, "L", "F", k)
        if prev is not None and (r.lower > prev.lower or r.upper > prev.upper):
            return f"d_{k} = [{r.lower}, {r.upper}] above d_{k - 1}"
        uppers.append(r.upper)
        prev = r
    if res.upper != min(uppers):
        return f"d_F upper {res.upper} != min_k d_k upper {min(uppers)}"
    return None
