"""Fragmentation pseudo-metrics: decomposition search with certified bounds.

Upper bounds come from a breadth-first search over move expressions
whose footprints are re-measured exactly; lower bounds come only from
the declared fission inequalities, evaluated through the axis-parallel
widths (and verified probe families for the double-point variant).
Results are intervals, never point estimates.

A ``MetricSpace`` computes each expression shadow, relative width and
probe verification at most once: the values live in dicts on the space,
keyed by the move, curve and probe objects themselves, so they stay
right when moves are added after a query.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .novikov import INF, rat
from .surface.curves import TorusCurve, count_transverse_crossings
from .surface.floer import hf_rank
from .surface.shadow import PlanarDiagram, planar_shadow
from .surface.widths import gromov_width_rel, gromov_width_double_points


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
                 geometry: Optional[str] = None, min_disk_area=None):
        self.name = name
        self.carrier = list(carrier)
        self.cover = list(cover) if cover is not None else list(carrier)
        self.geometry = geometry
        self.min_disk_area = None if min_disk_area is None else rat(min_disk_area)


class Move:
    """Cobordism generator: source object -> ordered tuple of end objects,
    with an exact planar footprint whose shadow is re-measured."""

    def __init__(self, name: str, source: str, ends: Sequence[str],
                 footprint: PlanarDiagram, declared_shadow=None,
                 kind: str = "trace"):
        self.name = name
        self.source = source
        self.ends = tuple(ends)
        self.footprint = footprint
        self.kind = kind
        self.shadow = planar_shadow(footprint)
        if declared_shadow is not None and self.shadow != rat(declared_shadow):
            raise FragError(
                f"move {name}: declared shadow {declared_shadow} != "
                f"measured {self.shadow}")


def suspension_move(name: str, a: str, b: str, length,
                    column: int = 0) -> Move:
    """Hamiltonian suspension a -> b with shadow = declared Hofer length,
    realized as a rectangle footprint of exactly that area."""
    length = rat(length)
    d = PlanarDiagram()
    x0 = Fraction(10 * column)
    if length > 0:
        d.add_rect(x0, 0, x0 + 1, length)
    d.rays.append(((x0, -1), -1))
    d.rays.append(((x0 + 1, -1), 1))
    return Move(name, a, (b,), d, length, kind="suspension")


def trace_move(name: str, source: str, ends: Sequence[str], handle_areas,
               groups: Sequence[int], column_width=4) -> Move:
    """Surgery-trace move: one rectangle blob per handle; handles sharing
    a group index get identical footprints (overlapping projections)."""
    d = PlanarDiagram()
    for area, group in zip(handle_areas, groups):
        area = rat(area)
        x0 = Fraction(column_width * group)
        d.add_rect(x0, 0, x0 + 1, area)
    for i in range(len(ends)):
        d.rays.append(((0, -2 - i), -1))
    d.rays.append(((1, -1), 1))
    return Move(name, source, tuple(ends), d, None, kind="trace")


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
            raise FragError(f"inconsistent bounds {lower} > {upper}: "
                            "the declared inequalities contradict the witness")

    def exact(self) -> bool:
        return self.lower == self.upper

    def __repr__(self):
        w = f" via {self.witness}" if self.witness else ""
        return f"[{self.lower}, {self.upper}]{w}"


class MetricSpace:
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
        self._shadows: Dict[tuple, Fraction] = {}
        self._widths: Dict[tuple, Fraction] = {}
        self._probe_ok: Dict[ProbeFamily, bool] = {}

    def geometry(self, name: str) -> TorusCurve:
        obj = self.objects[name]
        cname = obj.geometry or name
        return self.curves[cname]

    def carrier_curves(self, name: str) -> List[TorusCurve]:
        return [self.curves[c] for c in self.objects[name].carrier]

    def cover_curves(self, names: Sequence[str]) -> List[TorusCurve]:
        out = []
        for n in names:
            for c in self.objects[n].cover:
                out.append(self.curves[c])
        return out

    # -- lower bounds ------------------------------------------------------

    def prune_lower_bound(self, source: str, end_names: Sequence[str],
                          mode: str = "weakly-exact") -> Fraction:
        """(1/2) delta(source; union of ends), or its monotone variant."""
        carrier = self.carrier_curves(source)
        q = self.cover_curves(end_names)
        key = (tuple(carrier), frozenset(q))
        if key not in self._widths:
            self._widths[key] = gromov_width_rel(carrier, q)
        val = self._widths[key] / 2
        if mode == "monotone" and self.monotone_min_area is not None:
            val = min(val, self.monotone_min_area)
        return val

    def _probe_verified(self, probe: ProbeFamily) -> bool:
        if probe not in self._probe_ok:
            self._probe_ok[probe] = probe.verify(self)
        return self._probe_ok[probe]

    def _bound_for_ends(self, lp: str, l: str, ends: Tuple[str, ...],
                        mode: str) -> Tuple[Fraction, str]:
        best = Fraction(0)
        cert = "none"
        v1 = self.prune_lower_bound(lp, [l, *ends], mode)
        if v1 > best:
            best, cert = v1, f"width({lp};{l}+{'+'.join(ends) or 'none'})/2"
        v2 = self.prune_lower_bound(l, [lp, *ends], mode)
        if v2 > best:
            best, cert = v2, f"width({l};{lp}+{'+'.join(ends) or 'none'})/2"
        # probes certify the whole end multiset; bending makes the choice
        # of positive end irrelevant
        query_ms = tuple(sorted((lp, l, *ends)))
        for p in self.probes:
            if tuple(sorted((p.source, *p.ends))) == query_ms \
                    and p.claimed_sup > best and self._probe_verified(p):
                best, cert = p.claimed_sup, f"probe {p.name}"
        return best, cert

    def _end_multisets(self, family: Sequence[str], k: int):
        """All multisets of at most k family members."""
        fam = sorted(set(family))
        out = [()]
        for _ in range(k):
            nxt = set(out)
            for e in out:
                for f in fam:
                    nxt.add(tuple(sorted(e + (f,))))
            out = list(nxt)
        return sorted(set(out))

    # -- upper bounds (search) ----------------------------------------------

    def _search_upper(self, lp: str, l: str, family: Sequence[str], k: int,
                      depth: int = 6, top_end: bool = False):
        """Breadth-first search over move expressions with pruning.

        Each declared move is used at most once per expression (declare
        copies to model repeated cobordism pieces); expressions whose
        accumulated footprint already exceeds the incumbent are cut.
        """
        fam = set(family)
        start = (lp,)
        best = (INF, None)
        seen = {}
        frontier = [(start, frozenset(), Fraction(0))]
        if lp == l:
            return Fraction(0), "identity"

        def goal(state) -> bool:
            if l not in state:
                return False
            rest = list(state)
            rest.remove(l)
            if len(rest) > k or any(r not in fam for r in rest):
                return False
            if top_end and state[0] != l:
                return False
            return True

        for _ in range(depth):
            nxt = []
            for state, used, shadow in frontier:
                if goal(state):
                    total = self._expression_shadow(used)
                    if total < best[0]:
                        best = (total, "+".join(sorted(
                            self.moves[i].name for i in used)) or "identity")
                    continue
                for i, mv in enumerate(self.moves):
                    if i in used:
                        continue
                    applications = []
                    if mv.source in state:
                        idx = state.index(mv.source)
                        applications.append(
                            state[:idx] + mv.ends + state[idx + 1:])
                    # end reversal (bending the positive end is shadow
                    # neutral): consume one end, emit source + the rest
                    for e in set(mv.ends):
                        if e in state:
                            idx = state.index(e)
                            rest = list(mv.ends)
                            rest.remove(e)
                            applications.append(
                                state[:idx] + (mv.source, *rest)
                                + state[idx + 1:])
                    for new_state in applications:
                        new_used = used | {i}
                        total = self._expression_shadow(new_used)
                        if total >= best[0]:
                            continue
                        key = (new_state, new_used)
                        if key in seen:
                            continue
                        seen[key] = total
                        nxt.append((new_state, new_used, total))
            frontier = nxt
            if not frontier:
                break
        return best

    def _expression_shadow(self, used) -> Fraction:
        # keyed by the moves in index order, which fixes the suspension
        # offsets; indices alone go stale when the move list changes
        moves = tuple(self.moves[i] for i in sorted(used))
        if moves not in self._shadows:
            self._shadows[moves] = self._measure_expression(moves)
        return self._shadows[moves]

    @staticmethod
    def _measure_expression(moves: Sequence[Move]) -> Fraction:
        diag = PlanarDiagram()
        offset = 0
        for mv in moves:
            if mv.kind == "suspension":
                diag = diag.union(mv.footprint.translated(offset, 0))
                offset += 100
            else:
                diag = diag.union(mv.footprint)
        if not diag.segments and not diag.rays:
            return Fraction(0)
        return planar_shadow(diag)

    # -- public metric queries -----------------------------------------------

    def d_k(self, lp: str, l: str, family_name: str, k: int,
            mode: str = "weakly-exact", top_end: bool = False) -> MetricResult:
        family = self.families[family_name]
        upper, witness = self._search_upper(lp, l, family, k, top_end=top_end)
        best_lower = INF
        best_cert = "no ends"
        for ends in self._end_multisets(family, k):
            val, cert = self._bound_for_ends(lp, l, ends, mode)
            if val < best_lower:
                best_lower, best_cert = val, cert
        if lp == l:
            best_lower = Fraction(0)
        if best_lower > upper:
            raise FragError(
                f"certified lower bound {best_lower} exceeds witnessed upper "
                f"{upper}: inconsistent declarations")
        return MetricResult(best_lower, upper, witness, best_cert)

    def cone_length(self, lp: str, l: str, family_name: str, a,
                    kmax: int = 8) -> MetricResult:
        """l_a: minimal number of extra ends admitting shadow <= a."""
        a = rat(a) if a is not None else INF
        found = None
        lower_k = 0
        for k in range(kmax + 1):
            r = self.d_k(lp, l, family_name, k)
            if r.upper <= a:
                found = (k, r)
                break
            if r.lower > a:
                lower_k = k + 1
        if found is None:
            return MetricResult(lower_k, INF, None, "budget exhausted")
        k, r = found
        certified = lower_k == k
        return MetricResult(
            lower_k, k, r.witness,
            "pruned below" if certified else "upper only")

    def d_f(self, lp: str, l: str, family_name: str, kmax: int = 6,
            mode: str = "weakly-exact") -> MetricResult:
        best = None
        for k in range(kmax + 1):
            r = self.d_k(lp, l, family_name, k, mode)
            if best is None or (r.upper, r.lower) < (best.upper, best.lower):
                best = r
        return best

    def d_hat(self, lp: str, l: str, fam1: str, fam2: str,
              kmax: int = 6) -> MetricResult:
        r1 = self.d_f(lp, l, fam1, kmax)
        r2 = self.d_f(lp, l, fam2, kmax)
        return MetricResult(max(r1.lower, r2.lower), max(r1.upper, r2.upper),
                            (r1.witness, r2.witness), "max of two families")


def check_triangle(space: MetricSpace, family: str,
                   triples: Sequence[Tuple[str, str, str]],
                   ks: Sequence[Tuple[int, int]]) -> bool:
    """d_{k+k'}(L,L'') <= d_k(L,L') + d_{k'}(L',L'') on computed uppers."""
    for (a, b, c) in triples:
        for (k1, k2) in ks:
            r_ab = space.d_k(a, b, family, k1)
            r_bc = space.d_k(b, c, family, k2)
            r_ac = space.d_k(a, c, family, k1 + k2, )
            if r_ab.upper >= INF or r_bc.upper >= INF:
                continue
            if r_ac.upper > r_ab.upper + r_bc.upper:
                return False
    return True


def quasi_isometry_check(space: MetricSpace, fam1: str, fam2: str,
                         pairs: Sequence[Tuple[str, str, str, str]],
                         hofer_length) -> bool:
    """|d_hat(L,L') - d_hat(phi L, phi L')| <= 2 ||phi||_H on upper bounds."""
    h = rat(hofer_length)
    for (a, b, fa, fb) in pairs:
        r1 = space.d_hat(a, b, fam1, fam2)
        r2 = space.d_hat(fa, fb, fam1, fam2)
        if r1.upper >= INF or r2.upper >= INF:
            continue
        if abs(r1.upper - r2.upper) > 2 * h:
            return False
    return True
