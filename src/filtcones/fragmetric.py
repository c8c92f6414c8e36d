"""Fragmentation pseudo-metrics: decomposition search with certified bounds.

Upper bounds come from one exhaustive best-first search over move
expressions per query.  An expression's shadow is the sum of its moves'
shadows, each measured exactly once from its footprint; shadows are
subadditive under gluing, so the sum bounds the glued cobordism's.
Lower bounds come only from the declared fission inequalities, evaluated
through the axis-parallel widths (and verified probe families for the
double-point variant).  Results are intervals, never point estimates.

A d_k query bounds every end multiset of at most k family members; the
width part of a bound depends only on the set of ends, so each query
computes it once per set.  d_F, d-hat and l_a range over every end count:
d_F reads its interval off the first goal of the search and the width
bound of the whole family set, and l_a reads its upper bound off the
goals and walks the lower bounds only while they can still change.  What
outlives a query is kept on the ``MetricSpace``.

Both walks run on integers: the search adds shadows at one frame per
query, and a width bound compares the strand tables' integer widths in
the space's frame.  Each becomes one ``Fraction`` per recorded goal or
per end set's bound.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .novikov import INF, rat
from .surface.curves import TorusCurve, count_transverse_crossings
from .surface.floer import hf_rank
from .surface.shadow import PlanarDiagram, planar_shadow
from .surface.widths import StrandTable, gromov_width_double_points


class FragError(ValueError):
    pass


# ---------------------------------------------------------------------------
# scenario objects and moves
# ---------------------------------------------------------------------------

class LagObject:
    """A Lagrangian in the metric space.

    ``carrier`` names the curves whose strands carry disks for width
    queries (the ideal strand system of the object); ``cover`` names
    curves whose union covers the object when it acts as an obstruction.
    """

    def __init__(self, name: str, carrier: Sequence[str],
                 cover: Optional[Sequence[str]] = None,
                 geometry: Optional[str] = None):
        self.name = name
        self.carrier = list(carrier)
        self.cover = list(cover) if cover is not None else list(carrier)
        self.geometry = geometry


class Move:
    """Cobordism generator: source object -> ordered tuple of end objects,
    with an exact planar footprint whose shadow is measured once, here;
    an expression's shadow is the sum of its moves' shadows."""

    def __init__(self, name: str, source: str, ends: Sequence[str],
                 footprint: PlanarDiagram, declared_shadow=None):
        self.name = name
        self.source = source
        self.ends = tuple(ends)
        self.footprint = footprint
        self.shadow = planar_shadow(footprint)
        if declared_shadow is not None and self.shadow != rat(declared_shadow):
            raise FragError(
                f"move {name}: declared shadow {declared_shadow} != "
                f"measured {self.shadow}")


def suspension_move(name: str, a: str, b: str, length) -> Move:
    """Hamiltonian suspension a -> b with shadow = declared Hofer length,
    realized as a unit-wide rectangle footprint of exactly that area."""
    length = rat(length)
    d = PlanarDiagram()
    if length > 0:
        d.add_rect(0, 0, 1, length)
    d.rays.append(((0, -1), -1))
    d.rays.append(((1, -1), 1))
    return Move(name, a, (b,), d, length)


def trace_move(name: str, source: str, ends: Sequence[str], handle_areas,
               groups: Sequence[int]) -> Move:
    """Surgery-trace move: one rectangle blob per handle, in columns 4
    apart; handles sharing a group index get identical footprints
    (overlapping projections)."""
    d = PlanarDiagram()
    for area, group in zip(handle_areas, groups):
        area = rat(area)
        x0 = Fraction(4 * group)
        d.add_rect(x0, 0, x0 + 1, area)
    for i in range(len(ends)):
        d.rays.append(((0, -2 - i), -1))
    d.rays.append(((1, -1), 1))
    return Move(name, source, tuple(ends), d)


class ProbeFamily:
    """Verified double-point width probes for a fixed end multiset.

    The probe curves N_t certify, through the declared fission
    inequality, that every cobordism with those ends has shadow at least
    A(t); the supremum over the verified family is ``claimed_sup``.
    Each sample is checked exactly: intersection count below the Floer
    rank sum, and quadrant capacity exactly 4*A(t) with A(t) following
    the declared profile.
    """

    def __init__(self, name: str, source: str, ends: Sequence[str],
                 claimed_sup, samples: Sequence, build, profile,
                 sigma_points: Sequence, system: Sequence[str]):
        self.name = name
        self.source = source
        self.ends = tuple(sorted(ends))
        self.claimed_sup = rat(claimed_sup)
        self.samples = [rat(t) for t in samples]
        self.build = build          # t -> TorusCurve
        self.profile = profile      # t -> expected A(t)
        self.sigma_points = list(sigma_points)
        self.system = list(system)  # curve names of the end union

    def verify(self, space: "MetricSpace") -> bool:
        src_curve = space.geometry(self.source)
        sys_curves = [space.curves[n] for n in self.system]
        for t in self.samples:
            n_t = self.build(t)
            a_t = self.profile(t)
            if not (0 < a_t < self.claimed_sup):
                return False
            crossings = count_transverse_crossings(n_t, src_curve)
            rank_sum = sum(hf_rank(n_t, c) for c in sys_curves)
            if not crossings < rank_sum:
                return False
            cap = gromov_width_double_points(sys_curves, self.sigma_points,
                                             q=[n_t])
            if cap != 4 * a_t:
                return False
        return True


# ---------------------------------------------------------------------------
# the metric space
# ---------------------------------------------------------------------------

class MetricResult:
    def __init__(self, lower, upper, witness=None, certificate: str = ""):
        self.lower = lower
        self.upper = upper
        self.witness = witness
        self.certificate = certificate
        if lower > upper:
            raise FragError(
                f"certified lower bound {lower} exceeds witnessed upper "
                f"{upper}: inconsistent declarations")

    def __repr__(self):
        w = f" via {self.witness}" if self.witness else ""
        return f"[{self.lower}, {self.upper}]{w}"


class MetricSpace:
    """Curves, objects, families, moves and probes, with the metric
    queries.  Widths are read on one integer frame, ``_scale``: the lcm
    of the curves' scales when the space is built.  Kept across queries:
    one ``StrandTable`` per object name, of its carrier (``_tables``), and
    each probe verification (``_probe_ok``); neither depends on the moves,
    so moves may be added after a query."""

    def __init__(self, curves: Dict[str, TorusCurve],
                 objects: Sequence[LagObject], families: Dict[str, Sequence[str]],
                 moves: Sequence[Move], probes: Sequence[ProbeFamily] = (),
                 monotone_min_area=None):
        self.curves = dict(curves)
        self.objects = {o.name: o for o in objects}
        self.families = {k: list(v) for k, v in families.items()}
        self.moves = list(moves)
        self.probes = list(probes)
        self.monotone_min_area = None if monotone_min_area is None \
            else rat(monotone_min_area)
        self._scale = lcm(*(c.scale for c in self.curves.values()))
        self._tables: Dict[str, StrandTable] = {}
        self._probe_ok: Dict[ProbeFamily, bool] = {}

    def geometry(self, name: str) -> TorusCurve:
        obj = self.objects[name]
        cname = obj.geometry or name
        return self.curves[cname]

    # -- lower bounds ------------------------------------------------------

    def _probe_verified(self, probe: ProbeFamily) -> bool:
        if probe not in self._probe_ok:
            self._probe_ok[probe] = probe.verify(self)
        return self._probe_ok[probe]

    def _set_bound(self, lp: str, l: str,
                   ends) -> Tuple[Fraction, Optional[Tuple[str, str]]]:
        """The larger of width(lp; l + ends)/2 and width(l; lp + ends)/2
        of an end set, each capped at ``monotone_min_area``, and its pair,
        (lp, l) or (l, lp), the first on a tie; (0, None) when both are 0.
        width(a; names) reads the table of a's carrier against the curves
        covering the named objects.  The two widths are compared as the
        tables' integers in the space's frame, with the cap brought to
        that frame when it is set, and the bound is one ``Fraction``."""
        widths = []
        for a, b in ((lp, l), (l, lp)):
            if a not in self._tables:
                self._tables[a] = StrandTable(
                    [self.curves[c] for c in self.objects[a].carrier],
                    self._scale)
            widths.append(self._tables[a].width(
                [self.curves[c] for n in (b, *ends)
                 for c in self.objects[n].cover]))
        # a bound is width / (2 den)
        den, cap = self._scale ** 2, self.monotone_min_area
        if cap is not None:
            top = 2 * cap.numerator * den
            widths = [min(w * cap.denominator, top) for w in widths]
            den *= cap.denominator
        best = max(widths)
        if best <= 0:
            return Fraction(0), None
        return Fraction(best, 2 * den), \
            (lp, l) if widths[0] == best else (l, lp)

    @staticmethod
    def _certify(ends: Sequence[str], why) -> str:
        """The certificate of a bound of the end multiset ``ends``: ``why``
        is the width pair of ``_set_bound``, None, or the probe that
        raised the bound."""
        if isinstance(why, ProbeFamily):
            return f"probe {why.name}"
        if why is None:
            return "none"
        return f"width({why[0]};{why[1]}+{'+'.join(ends) or 'none'})/2"

    # -- upper bounds (search) ----------------------------------------------

    def _search(self, lp: str, l: str, family: Sequence[str]
                ) -> Dict[int, Tuple[Fraction, str]]:
        """Best-first search over move expressions from ``lp`` to ``l``.

        A state is the tuple of ends plus the set of moves used, each at
        most once (declare copies to repeat a piece), forward or reversed
        on one end (bending the positive end is shadow neutral).  A goal
        holds ``l``, at any position (bending), plus ``c`` extra ends in
        ``family``.  States leave the heap by (shadow, #moves, sorted
        names), the shadow an integer at the lcm of the moves' shadow
        denominators; shadows are nonnegative and add up, so the first
        goal popped with ``c`` extra ends is least.  Goals are expanded too,
        and recorded as {c: (shadow, witness)} only if ``c`` is below
        every recorded count.  The search ends at ``c = 0`` or an empty
        heap: it is exhaustive, with no cap.
        """
        fam = set(family)
        swaps = []  # per move: (end consumed, ends emitted), forward first
        for mv in self.moves:
            swaps.append([(mv.source, mv.ends)])
            for e in set(mv.ends):
                rest = list(mv.ends)
                rest.remove(e)
                swaps[-1].append((e, (mv.source, *rest)))
        # shadows on integers at the lcm of their denominators
        frame = lcm(*(mv.shadow.denominator for mv in self.moves))
        steps = [(mv.shadow.numerator * (frame // mv.shadow.denominator),
                  mv.name) for mv in self.moves]
        heap = [(0, 0, (), (lp,), 0)]
        seen = {((lp,), 0)}
        goals: Dict[int, Tuple[Fraction, str]] = {}
        while heap:
            shadow, n, names, state, used = heapq.heappop(heap)
            if l in state:
                rest = list(state)
                rest.remove(l)
                c = len(rest)
                if all(r in fam for r in rest) and \
                        c < min(goals, default=c + 1):
                    goals[c] = (Fraction(shadow, frame),
                                "+".join(names) or "identity")
                    if c == 0:
                        break
            for i, (step, name) in enumerate(steps):
                if used >> i & 1:
                    continue
                for old, new in swaps[i]:
                    if old in state:
                        idx = state.index(old)
                        key = (state[:idx] + new + state[idx + 1:],
                               used | 1 << i)
                        if key not in seen:
                            seen.add(key)
                            heapq.heappush(heap, (
                                shadow + step, n + 1,
                                tuple(sorted(names + (name,))), *key))
        return goals

    def _lowers(self, lp: str, l: str, family: Sequence[str]):
        """Yield (lower_k, certificate) for k = 0, 1, ...: the least
        certified bound over the end multisets of at most k family members.

        The width part of a bound depends on the set of ends alone: its
        larger width bound and that bound's pair are found once per set.
        Per multiset, its sorted multiset with lp and l picks the probes
        of that exact multiset, whose sorted multisets are found once per
        walk.  A certificate is built only when a multiset lowers the bound
        strictly, so the first multiset to reach the least bound keeps it.
        """
        sets: Dict[frozenset, Tuple[Fraction, Optional[Tuple[str, str]]]] = {}
        probes: Dict[tuple, List[ProbeFamily]] = {}
        for p in self.probes:
            probes.setdefault(tuple(sorted((p.source, *p.ends))), []).append(p)
        members = sorted(set(family))
        lower, cert = INF, "no ends"
        for k in itertools.count():
            for ends in itertools.combinations_with_replacement(members, k):
                key = frozenset(ends)
                if key not in sets:
                    sets[key] = self._set_bound(lp, l, key)
                val, why = sets[key]
                # bending makes the choice of positive end irrelevant
                for p in probes.get(tuple(sorted((lp, l, *ends))), ()):
                    if p.claimed_sup > val and self._probe_verified(p):
                        val, why = p.claimed_sup, p
                if val < lower:
                    lower, cert = val, self._certify(ends, why)
            if lp == l:
                lower = Fraction(0)
            yield lower, cert

    # -- public metric queries -----------------------------------------------

    def d_k(self, lp: str, l: str, family_name: str, k: int) -> MetricResult:
        """d_k(lp, l) from one search: the least recorded goal with at
        most k extra ends (the one with the most, found first) above, and
        lower_k of ``_lowers`` below, read at min(k, K) for K = |F| +
        #probes, past which it is constant (see ``d_f``).  An inconsistent
        interval at any count up to k is refused; neither bound grows with
        k, so one between K and k is one at k too."""
        if k < 0:
            raise FragError(f"d_k needs an end count k >= 0, got {k}")
        family = self.families[family_name]
        goals = self._search(lp, l, family)
        last = len(set(family)) + len(self.probes)
        for j, (lower, cert) in zip([*range(min(k, last)), k],
                                    self._lowers(lp, l, family)):
            fits = [c for c in goals if c <= j]
            upper, witness = goals[max(fits)] if fits else (INF, None)
            result = MetricResult(lower, upper, witness, cert)
        return result

    def cone_length(self, lp: str, l: str, family_name: str,
                    a) -> MetricResult:
        """l_a: the fewest extra family ends of a cobordism with shadow
        <= a, over every end count (``a = None``: any shadow).

        The search records goals with falling end counts and rising
        shadows, so the upper bound is the least recorded count c whose
        shadow is <= a.  The lower bound is the first k with lower_k <= a,
        read for k < c only, as lower_k never grows.  With no such goal
        the walk runs to K = |F| + #probes, past which lower_k is constant
        (see ``d_f``); if lower_K is still above a, l_a is infinite with
        lower_K's certificate.  An inconsistency at one k is left for
        ``d_k`` to report.
        """
        family = self.families[family_name]
        goals = self._search(lp, l, family)
        if a is None:
            k = min(goals, default=None)
            return MetricResult(0, INF, None, "exhausted") if k is None \
                else MetricResult(0, k, goals[k][1], "upper only" if k
                                  else "pruned below")
        a = rat(a)
        c = min((c for c, (s, _) in goals.items() if s <= a), default=None)
        stop = len(set(family)) + len(self.probes) + 1 if c is None else c
        lower_k = 0
        for k, (lower, cert) in zip(range(stop), self._lowers(lp, l, family)):
            if lower <= a:
                break
            lower_k = k + 1
        if c is not None:
            return MetricResult(lower_k, c, goals[c][1], "pruned below"
                                if lower_k == c else "upper only")
        if lower_k == stop:
            return MetricResult(INF, INF, None,
                                f"pruned at every end count: {cert}")
        return MetricResult(lower_k, INF, None, "exhausted")

    def d_f(self, lp: str, l: str, family_name: str) -> MetricResult:
        """d^F: the infimum of d_k over every end count, with no loop
        over k.

        The upper bound is the first goal that ``_search`` records: goals
        leave its heap by shadow, so it has the least shadow of any end
        count.  The lower bound is the width bound of the whole family
        set.  Each of the two width bounds of an end set is a max over
        the carrier's strands of a min over the obstruction columns; an
        end adds columns, which never raise it.  A probe raises the bound
        of one exact end multiset only, and of the multisets of the whole
        set at sizes |F| .. |F| + #probes, one matches no probe and
        attains that bound.  So it is the least certified bound over every
        end count, read with no probe; it is 0 when lp = l.  An empty
        family has the empty multiset alone, so there d_F is d_0.

        ``FragError`` when that bound exceeds the least witnessed shadow;
        an inconsistency at one end count only is left for ``d_k``.
        """
        family = sorted(set(self.families[family_name]))
        if not family:
            return self.d_k(lp, l, family_name, 0)
        goals = self._search(lp, l, family)
        upper, witness = next(iter(goals.values()), (INF, None))
        lower, pair = (Fraction(0), None) if lp == l else \
            self._set_bound(lp, l, family)
        return MetricResult(lower, upper, witness,
                            self._certify(family, pair))

    def d_hat(self, lp: str, l: str, fam1: str, fam2: str) -> MetricResult:
        r1 = self.d_f(lp, l, fam1)
        r2 = self.d_f(lp, l, fam2)
        return MetricResult(max(r1.lower, r2.lower), max(r1.upper, r2.upper),
                            (r1.witness, r2.witness), "max of two families")

