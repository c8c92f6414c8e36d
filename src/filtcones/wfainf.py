"""Arity-capped weakly filtered A-infinity categories and modules.

Categories, modules and pre-module maps store their operations in one
kind of table (``_Table``): sparse maps from composable generator tuples
to chains with Novikov coefficients, with one tuple walk, one multilinear
evaluation and one measure of how far each entry overshoots the summed
input actions.  One insertion sum, ``_insert``, composes them: the
A-infinity and module relation checks, ``mu1_mod`` and ``mu2_mod`` are
each a call or two of it.  Values add through ``filtcx.chain_sum`` and
whole tables entrywise through ``table_sum`` (the sum of pre-module
maps, the parts of a cone).  The checks run over every composable tuple up
to the arity where the relations become vacuous.  Discrepancy sequences
track by how much each mu_d may overshoot the additive action bound; the
calculus on them (pointwise max, the star product, Assumption E) is
implemented verbatim.

Generator names are required to be globally unique across all hom
complexes of a category so that chains can be moved between modules and
cones without relabeling.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .novikov import DEFAULT_CUTOFF, INF, content_lines, name_tuple, \
    on_line, rat
from .filtcx import (
    Chain, FilteredComplex, FilteredMap, NEG_INF, action_level,
    boundary_level, chain_add, chain_sum, cycle_basis,
    homotopical_boundary_level, orthonormal_basis, parse_chain,
    parse_complex,
)

DEFAULT_ARITY_CAP = 6  # the arity cap where none is given


class CapError(ValueError):
    """An operation was requested beyond the arity cap."""


class WfError(ValueError):
    pass


class CycleError(WfError):
    """The attaching map of a cone is not a cycle (mu1_mod f != 0)."""


# ---------------------------------------------------------------------------
# discrepancy sequences
# ---------------------------------------------------------------------------

class Discrepancy:
    """Sequence eps_1..eps_cap of nonnegative rationals.

    ``kind`` picks the validation and is not kept: "category"/"module"
    (forces eps_1 = 0), "hom" (eps_1 free) or "raw" (entries of any sign).
    """

    def __init__(self, values: Sequence, kind: str = "hom"):
        self.values = tuple(rat(v) for v in values)
        if kind != "raw" and any(v < 0 for v in self.values):
            raise WfError("discrepancies must be nonnegative")
        if kind in ("category", "module") and self.values and self.values[0] != 0:
            raise WfError(f"{kind} discrepancy must have eps_1 = 0")

    @property
    def cap(self) -> int:
        return len(self.values)

    def __getitem__(self, d: int) -> Fraction:
        if not 1 <= d <= self.cap:
            raise CapError(f"discrepancy index {d} beyond cap {self.cap}")
        return self.values[d - 1]

    def __eq__(self, other):
        return isinstance(other, Discrepancy) and self.values == other.values

    def __le__(self, other: "Discrepancy") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def _check(self, other: "Discrepancy"):
        if self.cap != other.cap:
            raise CapError(f"cap mismatch {self.cap} vs {other.cap}")

    def minus_first(self) -> "Discrepancy":
        """eps - eps_1: first entry 0, later entries possibly negative;
        only meaningful inside a pointwise max with module discrepancies."""
        e1 = self.values[0] if self.values else Fraction(0)
        return Discrepancy([v - e1 for v in self.values], "raw")

    @staticmethod
    def zero(cap: int, kind: str = "module") -> "Discrepancy":
        return Discrepancy([0] * cap, kind)

    def __repr__(self):
        return f"Discrepancy({list(map(str, self.values))})"


def disc_max(seqs: Sequence[Discrepancy], kind: str = "hom") -> Discrepancy:
    if not seqs:
        raise WfError("disc_max of an empty family")
    cap = seqs[0].cap
    for s in seqs:
        seqs[0]._check(s)
    return Discrepancy(
        [max(s.values[i] for s in seqs) for i in range(cap)], kind)


def disc_star(ef: Discrepancy, eg: Discrepancy) -> Discrepancy:
    """(ef * eg)_d = max{ef_i + eg_j : i + j = d + 1}."""
    ef._check(eg)
    cap = ef.cap
    out = []
    for d in range(1, cap + 1):
        out.append(max(ef[i] + eg[d + 1 - i] for i in range(1, d + 1)))
    return Discrepancy(out, "hom")


def check_assumption_E(eps: Discrepancy, eps_m: Discrepancy,
                       eps_A: Discrepancy) -> bool:
    """eps_d >= max{eps^m_i + eps_j, eps^A_i + eps_j : i+j = d+1}."""
    cap = eps.cap
    eps._check(eps_m)
    eps._check(eps_A)
    for d in range(1, cap + 1):
        for i in range(1, d + 1):
            j = d + 1 - i
            if eps[d] < eps_m[i] + eps[j] or eps[d] < eps_A[i] + eps[j]:
                return False
    return True


def choose_eps(delta: Discrepancy, eps_m: Discrepancy,
               eps_A: Discrepancy):
    """Smallest inductive sequence >= delta satisfying Assumption E.

    Returns (eps, measured_ratios) where the ratios report eps_d against
    the sum of the inputs up to d (the universal bound is emitted as a
    measurement, never asserted).
    """
    cap = delta.cap
    delta._check(eps_m)
    delta._check(eps_A)
    vals: List[Fraction] = []
    for d in range(1, cap + 1):
        cand = delta[d]
        for i in range(2, d + 1):
            j = d + 1 - i
            cand = max(cand, eps_m[i] + vals[j - 1], eps_A[i] + vals[j - 1])
        vals.append(cand)
    eps = Discrepancy(vals, "hom")
    ratios = []
    for d in range(1, cap + 1):
        denom = sum(eps_A[j] + eps_m[j] + delta[j] for j in range(1, d + 1))
        ratios.append(None if denom == 0 else vals[d - 1] / denom)
    return eps, ratios


def check_mod_squared_condition(eps_h: Discrepancy) -> bool:
    """eps_d + eps_1 >= eps_i + eps_j for all i + j = d + 1."""
    cap = eps_h.cap
    for d in range(1, cap + 1):
        for i in range(1, d + 1):
            j = d + 1 - i
            if eps_h[d] + eps_h[1] < eps_h[i] + eps_h[j]:
                return False
    return True


# ---------------------------------------------------------------------------
# operation tables
# ---------------------------------------------------------------------------

MuTable = Dict[int, Dict[Tuple[str, ...], Chain]]


class _Table:
    """A sparse table ``mu_tables[d]``: composable generator d-tuples ->
    chains.  Categories, modules and pre-module maps each carry one.

    Every entry of a tuple but the last is a generator of the category
    ``base``; the last is a generator of ``_ins``, and values are chains
    of ``_outs``.  A category is its own base, ins and outs.  A module
    reads its own generators for the last entry (a right module is the
    category with one more object and nothing out of it); its generators
    may be named like hom generators, since a Yoneda module reuses them,
    so they keep a registry of their own.  A pre-module map reads its
    source module and writes its target.  Categories and modules take
    mu_1 from the differentials of their complexes; the arity-1 entries of
    a map are table entries.
    """

    _name = "mu"
    _mu1_is_diff = True

    def _register(self, complexes, source, reused: str) -> Dict[str, object]:
        """generator -> key of its complex; also fills ``_home`` (generator
        -> complex) and ``_starts`` (object -> generators leaving it)."""
        keys: Dict[str, object] = {}
        self._home: Dict[str, FilteredComplex] = {}
        self._starts: Dict[str, List[str]] = {}
        for key, cx in complexes.items():
            for g in cx.generators:
                if g in keys:
                    raise WfError(reused.format(g))
                keys[g] = key
                self._home[g] = cx
                self._starts.setdefault(source(key), []).append(g)
        return keys

    def tuples(self, n: int, base=None, obj_map=None):
        """Composable n-tuples: n - 1 generators of ``base`` (``self.base``
        unless given), then one of ours leaving the object where they end,
        read through ``obj_map`` when given."""
        if n == 1:
            yield from ((g,) for g in self._home)
            return
        base = self.base if base is None else base
        for head in base.tuples(n - 1):
            y = base.gen_hom[head[-1]][1]
            if obj_map is not None:
                y = obj_map.get(y)
            for g in self._starts.get(y, ()):
                yield head + (g,)

    def mu_gens(self, gens: Tuple[str, ...]) -> Chain:
        d = len(gens)
        if d > self.cap:
            raise CapError(f"{self._name}_{d} beyond arity cap {self.cap}")
        if d == 1 and self._mu1_is_diff:
            return self._home[gens[0]].diff[gens[0]]
        return self.mu_tables.get(d, {}).get(gens, {})

    def _mu(self, chains: Sequence[Chain]) -> Chain:
        """Multilinear extension of ``mu_gens`` to chains."""
        if len(chains) > self.cap:
            raise CapError(
                f"{self._name}_{len(chains)} beyond arity cap {self.cap}")
        return chain_sum((h, coeff * t) for combo, coeff in _tuples(chains)
                         for h, t in self.mu_gens(combo).items())

    def _top(self) -> int:
        return max((d for d, t in self.mu_tables.items() if t), default=0)

    def _overshoots(self):
        """(arity, tuple, overshoot) of each nonzero entry: the action of
        the value less the summed actions of the inputs."""
        base, ins, outs = self.base._home, self._ins._home, self._outs._home
        for d, table in self.mu_tables.items():
            for gens, img in table.items():
                if img:
                    total = sum(base[g].action[g] for g in gens[:-1])
                    total += ins[gens[-1]].action[gens[-1]]
                    yield d, gens, action_level(
                        img, outs[next(iter(img))]) - total

    def _measured(self, floor) -> List[Fraction]:
        """Per-arity worst overshoot, ``floor`` where no entry is nonzero."""
        out = [floor] * self.cap
        for d, _, over in self._overshoots():
            out[d - 1] = max(out[d - 1], over)
        return out

    def measured_discrepancy(self) -> List[Fraction]:
        """Per-arity worst action overshoot actually attained."""
        return self._measured(Fraction(0))

    def _check_relations(self, base, failed: str):
        """The A-infinity (or module) relations on tuples up to cap - 1.

        Relations at arity n are vacuous once n exceeds twice the top
        nonzero operation arity minus one, so the check stops there.
        """
        for n in range(1, min(self.cap - 1, 2 * self.max_op_arity() - 1) + 1):
            for gens in self.tuples(n):
                if _insert(gens, self, self, base):
                    raise WfError(failed.format(gens))


def _insert(gens: Tuple[str, ...], inner: _Table, outer: _Table,
            base: Optional[_Table] = None) -> Chain:
    """Sum over k of outer(gens[:k] + inner(gens[k:])), inner on each
    nonempty suffix; with ``base``, plus outer(gens[:j] + base(gens[j:e]) +
    gens[e:]) over the windows that end before the last entry.  Each
    generator of an inner value stands in for its window in turn."""
    n = len(gens)
    windows = [(k, n, inner) for k in range(n)]
    if base is not None:
        windows += [(j, e, base) for j in range(n - 1)
                    for e in range(j + 1, n)]
    return chain_sum((h, s * t) for j, e, op in windows
                     for g, s in op.mu_gens(gens[j:e]).items()
                     for h, t in outer.mu_gens(gens[:j] + (g,)
                                               + gens[e:]).items())


def _tabulate(walk, arities, value) -> MuTable:
    """{d: {t: value(t)}} over the tuples ``walk(d)``, nonzero values only."""
    out: MuTable = {}
    for d in arities:
        table = {t: v for t in walk(d) if (v := value(t))}
        if table:
            out[d] = table
    return out


def table_sum(tables: Iterable[MuTable]) -> MuTable:
    """The entrywise sum of operation tables, by ``chain_sum``; zero
    entries and empty arities are dropped."""
    terms: Dict[int, Dict[Tuple[str, ...], list]] = {}
    for table in tables:
        for d, entries in table.items():
            for gens, img in entries.items():
                terms.setdefault(d, {}).setdefault(gens, []).extend(
                    img.items())
    sums = {d: {gens: v for gens, items in entries.items()
                if (v := chain_sum(items))} for d, entries in terms.items()}
    return {d: t for d, t in sums.items() if t}


def _tuples(chains: Sequence[Chain]):
    """All generator tuples with accumulated Novikov coefficients."""
    combos = [((), None)]
    for ch in chains:
        nxt = []
        for gens, coeff in combos:
            for g, s in ch.items():
                c = s if coeff is None else coeff * s
                if not c.is_zero():
                    nxt.append((gens + (g,), c))
        combos = nxt
    for gens, coeff in combos:
        if coeff is None:
            continue
        yield gens, coeff


# ---------------------------------------------------------------------------
# weakly filtered categories
# ---------------------------------------------------------------------------

class WFCategory(_Table):
    """Objects, hom complexes and higher operations up to the arity cap."""

    def __init__(self, objects: Sequence[str],
                 homs: Dict[Tuple[str, str], FilteredComplex],
                 mu: MuTable, disc: Discrepancy, cap: int = DEFAULT_ARITY_CAP,
                 units: Optional[Dict[str, Chain]] = None,
                 unit_bound=0, check: bool = True):
        self.objects = tuple(objects)
        self.homs = dict(homs)
        self.cap = cap
        if disc.cap != cap:
            raise CapError("discrepancy cap must equal the arity cap")
        self.disc = disc
        self.mu_tables: MuTable = {d: dict(t) for d, t in mu.items() if d >= 2}
        self.units = dict(units) if units else None
        self.unit_bound = rat(unit_bound)
        self.base = self._ins = self._outs = self
        self.gen_hom = self._register(self.homs, lambda key: key[0],
                                      "generator name {} reused across homs")
        if check:
            self.check_ainf_relations()
            if self.units:
                self._check_units()

    def hom(self, x: str, y: str) -> FilteredComplex:
        try:
            return self.homs[(x, y)]
        except KeyError:
            raise WfError(f"no hom complex for ({x}, {y})")

    def cutoff(self):
        return next(iter(self.homs.values())).cutoff

    def mu(self, chains: Sequence[Chain]) -> Chain:
        """Multilinear extension of mu_d to chains."""
        return self._mu(chains)

    def max_op_arity(self) -> int:
        """Largest arity carrying a nonzero operation (mu_1 included)."""
        return max(1, self._top())

    def check_ainf_relations(self):
        """The A-infinity relations, then each entry against ``disc``."""
        self._check_relations(self, "A-infinity relation fails at {}")
        for d, gens, over in self._overshoots():
            if over > self.disc[d]:
                raise WfError(f"mu_{d}{gens} violates the declared discrepancy")

    def _check_units(self):
        for x, e in self.units.items():
            cx = self.hom(x, x)
            if not cx.is_cycle(e):
                raise WfError(f"unit of {x} is not a cycle")
            if action_level(e, cx) > self.unit_bound:
                raise WfError(f"unit of {x} exceeds the declared bound")


# ---------------------------------------------------------------------------
# weakly filtered modules
# ---------------------------------------------------------------------------

class WFModule(_Table):
    """Module over a weakly filtered category, stored as sparse mu-tables.

    ``mu_tables[d]`` maps (a_1, ..., a_{d-1}, m) generator tuples (the
    last entry a module generator) to chains in the value complex of the
    first object.
    """

    _name = "module mu"

    def __init__(self, cat: WFCategory, values: Dict[str, FilteredComplex],
                 mu: MuTable, disc: Discrepancy, check: bool = True):
        self.cat = self.base = cat
        self.values = dict(values)
        self.mu_tables = {d: dict(t) for d, t in mu.items() if d >= 2}
        self.disc = disc
        self._ins = self._outs = self
        self.gen_value = self._register(
            self.values, lambda x: x, "module generator {} reused across values")
        if check:
            self.check_module_relations()

    @property
    def cap(self) -> int:
        return self.cat.cap

    def value(self, x: str) -> FilteredComplex:
        return self.values[x]

    def mu(self, a_chains: Sequence[Chain], b: Chain) -> Chain:
        return self._mu([*a_chains, b])

    def max_op_arity(self) -> int:
        return max(self.cat.max_op_arity(), self._top())

    def check_module_relations(self):
        self._check_relations(self.cat, "module relation fails at {}")
        meas = self.measured_discrepancy()
        for d in range(2, self.cap + 1):
            if meas[d - 1] > self.disc[d]:
                raise WfError(
                    f"module mu_{d} exceeds the declared discrepancy")

    def action_table(self) -> Dict[str, Fraction]:
        """Generator -> action, the cone filtration in tabular form."""
        return {g: cx.action[g] for g, cx in self._home.items()}


def yoneda_module(cat: WFCategory, y: str) -> WFModule:
    """The module X -> hom(X, Y) with the category operations."""
    values = {x: cat.hom(x, y) for x in cat.objects if (x, y) in cat.homs}
    mu: MuTable = {}
    for d, table in cat.mu_tables.items():
        sub = {}
        for gens, img in table.items():
            _, tgt = cat.gen_hom[gens[-1]]
            if tgt == y:
                sub[gens] = img
        if sub:
            mu[d] = sub
    return WFModule(cat, values, mu, Discrepancy(cat.disc.values, "module"),
                    check=False)


# ---------------------------------------------------------------------------
# pre-module homomorphisms
# ---------------------------------------------------------------------------

class PreModHom(_Table):
    """Weakly filtered pre-module homomorphism f = (f_1, f_2, ...).

    ``components[d]`` (also its ``mu_tables``) maps (a_1..a_{d-1}, m)
    tuples to chains in M1(first object).
    """

    _name = "component f"
    _mu1_is_diff = False

    def __init__(self, source: WFModule, target: WFModule,
                 components: MuTable, shift=0,
                 disc: Optional[Discrepancy] = None):
        self.source = self._ins = source
        self.target = self._outs = target
        self.base = source.cat
        self.components = self.mu_tables = table_sum([components])
        self.shift = rat(shift)
        self.disc = disc if disc is not None else Discrepancy.zero(
            source.cap, "hom")

    @property
    def cap(self) -> int:
        return self.source.cap

    def apply(self, a_chains: Sequence[Chain], b: Chain) -> Chain:
        return self._mu([*a_chains, b])

    def first_order_map(self, x: str) -> FilteredMap:
        mat = {}
        for (g,), img in self.components.get(1, {}).items():
            if self.source.gen_value[g] == x:
                mat[g] = img
        return FilteredMap(self.source.value(x), self.target.value(x), mat,
                           self.shift)

    def measured_shifts(self) -> List[Fraction]:
        """Per-arity maximal action overshoot (before the rho/eps split)."""
        return self._measured(NEG_INF)

    def max_shift(self) -> Fraction:
        """The largest measured shift over the arities; 0 for the zero map."""
        return max((s for s in self.measured_shifts() if s > NEG_INF),
                   default=Fraction(0))

    def in_hom(self, rho, eps: Discrepancy) -> bool:
        """Membership in hom^{<= rho; eps}."""
        rho = rat(rho)
        meas = self.measured_shifts()
        return all(meas[d - 1] <= rho + eps[d] for d in range(1, self.cap + 1))

    def add(self, other: "PreModHom") -> "PreModHom":
        return PreModHom(self.source, self.target,
                         table_sum([self.components, other.components]),
                         max(self.shift, other.shift),
                         disc_max([self.disc, other.disc]))

    def is_zero(self) -> bool:
        return not self.components

    @staticmethod
    def identity(m: WFModule) -> "PreModHom":
        comps = {1: {(g,): cx.basis_chain(g) for g, cx in m._home.items()}}
        return PreModHom(m, m, comps, 0)

    @staticmethod
    def zero(m0: WFModule, m1: WFModule) -> "PreModHom":
        return PreModHom(m0, m1, {}, 0)


def mu1_mod(f: PreModHom) -> PreModHom:
    """Differential of the dg-category of modules (characteristic 2):
    M1 after f, plus f after M0 and after the category operations."""
    m0, m1 = f.source, f.target
    maxf = f._top()
    maxmu = max(m0.max_op_arity(), m1.max_op_arity())
    top = min(f.cap, maxf + maxmu - 1) if maxf else 0
    comps = _tabulate(m0.tuples, range(1, top + 1), lambda t: chain_add(
        _insert(t, f, m1), _insert(t, m0, f, m0.cat)))
    return PreModHom(m0, m1, comps, f.shift, f.disc)


def mu2_mod(f: PreModHom, g: PreModHom) -> PreModHom:
    """Composition g o f; lands in hom^{<= rho_f + rho_g; eps_f * eps_g}."""
    if f.target is not g.source:
        if f.target.gen_value.keys() != g.source.gen_value.keys():
            raise WfError("mu2_mod: modules do not compose")
    maxf, maxg = f._top(), g._top()
    top = min(f.cap, maxf + maxg - 1) if maxf and maxg else 0
    comps = _tabulate(f.source.tuples, range(1, top + 1),
                      lambda t: _insert(t, f, g))
    return PreModHom(f.source, g.target, comps, f.shift + g.shift,
                     disc_star(f.disc, g.disc))


def verify_hom_filtration(m0: WFModule, m1: WFModule, eps_h: Discrepancy,
                          homs: Sequence[PreModHom]) -> bool:
    """mu1_mod preserves hom^{<= rho; eps_h} on the given sample maps, rho
    the least level holding each map."""
    for f in homs:
        meas = f.measured_shifts()
        r = max((meas[d - 1] - eps_h[d] for d in range(1, f.cap + 1)
                 if meas[d - 1] > NEG_INF), default=Fraction(0))
        if not f.in_hom(r, eps_h):
            raise WfError("sample map not in the stated hom filtration")
        if not mu1_mod(f).in_hom(r, eps_h):
            return False
    return True


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def cone(f: PreModHom, rho=None, epsf: Optional[Discrepancy] = None) -> WFModule:
    """Weakly filtered Cone(f; rho, eps^f).

    The value at X is M0(X) + M1(X) with the M0 part shifted up by
    rho + eps^f_1; discrepancy max{eps^M0, eps^M1, eps^f - eps^f_1}.
    """
    if not mu1_mod(f).is_zero():
        raise CycleError("cone requires a module homomorphism (mu1_mod f = 0)")
    m0, m1 = f.source, f.target
    rho = f.shift if rho is None else rat(rho)
    epsf = f.disc if epsf is None else epsf
    if not f.in_hom(rho, epsf):
        raise WfError("attaching map not in hom^{<= rho; eps^f}")
    shift0 = rho + epsf[1]
    values: Dict[str, FilteredComplex] = {}
    for x in m1.values:
        if x not in m0.values:
            continue
        c0, c1 = m0.value(x), m1.value(x)
        gens = list(c0.generators) + list(c1.generators)
        if set(c0.generators) & set(c1.generators):
            raise WfError("cone requires disjoint generator names; "
                          "rename one side first")
        action = {g: c0.action[g] + shift0 for g in c0.generators}
        action.update({g: c1.action[g] for g in c1.generators})
        diff: Dict[str, Chain] = {}
        for g in c0.generators:
            diff[g] = chain_add(c0.diff[g], f.mu_gens((g,)))
        for g in c1.generators:
            diff[g] = dict(c1.diff[g])
        values[x] = FilteredComplex(gens, action, diff, c1.cutoff, check=False)
    kept = {g for cx in values.values() for g in cx.generators}
    mu: MuTable = {}
    for d, t in table_sum(part.mu_tables for part in (m0, f, m1)).items():
        t = {k: v for k, v in t.items()
             if k[-1] in kept and all(g in kept for g in v)}
        if d >= 2 and t:
            mu[d] = t
    disc = disc_max([m0.disc, m1.disc, epsf.minus_first()], kind="module")
    return WFModule(m0.cat, values, mu, disc, check=False)


def rename_module(m: WFModule, prefix: str) -> WFModule:
    """Clone with prefixed value-generator names (for self-cones)."""
    def rn(g: str) -> str:
        return f"{prefix}{g}"

    values = {}
    for x, cx in m.values.items():
        gens = [rn(g) for g in cx.generators]
        action = {rn(g): cx.action[g] for g in cx.generators}
        diff = {rn(g): {rn(h): s for h, s in cx.diff[g].items()}
                for g in cx.generators}
        values[x] = FilteredComplex(gens, action, diff, cx.cutoff,
                                    check=False)
    mu: MuTable = {}
    for d, table in m.mu_tables.items():
        mu[d] = {gens[:-1] + (rn(gens[-1]),):
                 {rn(h): s for h, s in img.items()}
                 for gens, img in table.items()}
    return WFModule(m.cat, values, mu, m.disc, check=False)


def shift_module(m: WFModule, nu) -> WFModule:
    """Action-shift S^nu M: (S^nu M)^{<= a} = M^{<= a + nu}, so every
    element's action drops by nu."""
    nu = rat(nu)
    values = {x: cx.shift_actions(-nu) for x, cx in m.values.items()}
    return WFModule(m.cat, values, m.mu_tables, m.disc, check=False)


def cone_compose(f: PreModHom, xi: PreModHom) -> PreModHom:
    """psi: Cone(f) -> Cone(xi o f) with psi_1(b0,b1) = (b0, xi_1(b1)).

    Shift <= shift(xi), discrepancy <= eps^xi; the square with the
    inclusions and projections commutes exactly.
    """
    fprime = mu2_mod(f, xi)
    c_src = cone(f)
    c_tgt = cone(fprime, f.shift + xi.shift, disc_star(f.disc, xi.disc))
    comps: MuTable = {1: {}}
    for g, x in c_src.gen_value.items():
        if g in f.source.gen_value:
            comps[1][(g,)] = c_tgt.value(x).basis_chain(g)
        else:
            img = xi.apply([], f.target.value(x).basis_chain(g))
            if img:
                comps[1][(g,)] = img
    comps.update((d, t) for d, t in xi.components.items() if d >= 2)
    return PreModHom(c_src, c_tgt, comps, xi.shift, xi.disc)


def cone_boundary_correction(f: PreModHom, theta: PreModHom) -> PreModHom:
    """vartheta: Cone(f) -> Cone(f + mu1_mod theta), both cones at f's
    own (rho, eps); action shift <= 0, discrepancy <= eps - eps_1 (signs
    vanish in characteristic 2)."""
    rho, eps = f.shift, f.disc
    fprime = f.add(mu1_mod(theta))
    c_src = cone(f, rho, eps)
    c_tgt = cone(fprime, rho, eps)
    ident = {(g,): c_tgt.value(x).basis_chain(g)
             for g, x in c_src.gen_value.items()}
    theta1 = {(g,): theta.apply([], f.source.value(x).basis_chain(g))
              for g, x in c_src.gen_value.items() if g in f.source.gen_value}
    higher = {d: t for d, t in theta.components.items() if d >= 2}
    return PreModHom(c_src, c_tgt,
                     table_sum([{1: ident}, {1: theta1}, higher]), 0,
                     eps.minus_first())


# ---------------------------------------------------------------------------
# pullbacks along weakly filtered functors
# ---------------------------------------------------------------------------

class WFFunctor:
    """Functor data: object map, component tables F_s, discrepancy."""

    def __init__(self, source: WFCategory, obj_map: Dict[str, str],
                 components: MuTable, disc: Discrepancy):
        self.source = source
        self.obj_map = dict(obj_map)
        self.components = {d: dict(t) for d, t in components.items()}
        self.disc = disc

    def higher_vanish(self) -> bool:
        return all(d == 1 or not t for d, t in self.components.items())


def pullback_disc(f_disc: Discrepancy, inner_disc: Discrepancy,
                  first_free: bool = False,
                  higher_vanish: bool = True) -> Discrepancy:
    """max{eps^F_{s_1}+...+eps^F_{s_k} + inner_{k+1} : s_1+...+s_k = d-1}.

    When the higher functor terms vanish only the all-singleton partition
    contributes, giving (d-1) eps^F_1 + inner_d exactly.
    """
    cap = inner_disc.cap
    out = [inner_disc[1] if first_free else Fraction(0)]
    for d in range(2, cap + 1):
        if higher_vanish:
            best = (d - 1) * f_disc[1] + inner_disc[d]
        else:
            best = Fraction(0)
            for k in range(1, d):
                for split in _compositions(d - 1, k):
                    tot = sum(f_disc[s] for s in split) + inner_disc[k + 1]
                    best = max(best, tot)
        out.append(best)
    kind = "hom" if first_free else "module"
    if not first_free:
        out[0] = Fraction(0)
    return Discrepancy(out, kind)


def _compositions(n: int, k: int):
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def pullback_module(F: WFFunctor, m: WFModule) -> WFModule:
    values = {x: m.value(F.obj_map[x]) for x in F.source.objects
              if F.obj_map.get(x) in m.values}
    mu = _tabulate(lambda d: m.tuples(d, F.source, F.obj_map),
                   range(2, m.cap + 1), lambda t: _pullback_value(F, m, t))
    disc = pullback_disc(F.disc, m.disc, higher_vanish=F.higher_vanish())
    return WFModule(F.source, values, mu, disc, check=False)


def _pullback_value(F: WFFunctor, table: _Table,
                    gens: Tuple[str, ...]) -> Chain:
    """The pulled-back entry at (a_1..a_{d-1}, b): the table at
    (F(block_1), ..., F(block_k), b) summed over the splittings of the a's
    into consecutive blocks."""
    d = len(gens)
    b = gens[-1]
    if d == 1:
        return table.mu_gens((b,))
    b_chain = table._ins._home[b].basis_chain(b)
    terms = []
    for k in range(1, d):
        for split in _compositions(d - 1, k):
            ends = list(accumulate(split, initial=0))
            terms += table._mu([F.components.get(e - s, {}).get(gens[s:e], {})
                                for s, e in zip(ends, ends[1:])]
                               + [b_chain]).items()
    return chain_sum(terms)


def pullback_hom(F: WFFunctor, f: PreModHom, pm0: WFModule,
                 pm1: WFModule) -> PreModHom:
    comps = _tabulate(lambda d: f.source.tuples(d, F.source, F.obj_map),
                      range(1, f.cap + 1), lambda t: _pullback_value(F, f, t))
    disc = pullback_disc(F.disc, f.disc, first_free=True,
                         higher_vanish=F.higher_vanish())
    return PreModHom(pm0, pm1, comps, f.shift, disc)


def pullback_cone(F: WFFunctor, f: PreModHom, pm0: WFModule, pm1: WFModule):
    """F*(Cone(f; rho, eps)) and Cone(F*f; rho, eps^{F*f}), (rho, eps)
    f's own.

    The two agree as filtration tables (the first pull-back discrepancy
    entry equals eps^f_1, so the bottom shift matches); returns the pair
    for table comparison.
    """
    rho, epsf = f.shift, f.disc
    c = cone(f, rho, epsf)
    pulled_cone = pullback_module(F, c)
    pf = pullback_hom(F, f, pm0, pm1)
    pf_eps = pullback_disc(F.disc, epsf, first_free=True,
                           higher_vanish=F.higher_vanish())
    cone_of_pulled = cone(PreModHom(pm0, pm1, pf.components, rho, pf_eps),
                          rho, pf_eps)
    return pulled_cone, cone_of_pulled


# ---------------------------------------------------------------------------
# the lambda map
# ---------------------------------------------------------------------------

def lambda_map(m: WFModule, y: str, c: Chain,
               eps_h: Optional[Discrepancy] = None) -> PreModHom:
    """lambda(c)_d(a_1..a_{d-1}, b) = mu^M_{d+1}(a_1..a_{d-1}, b, c).

    Requires eps^h_d >= eps^M_{d+1} when a target filtration eps_h is
    supplied; lands in hom^{<= A(c); eps_h}.
    """
    cat = m.cat
    yon = yoneda_module(cat, y)
    if eps_h is not None:
        for d in range(1, m.cap):
            if eps_h[d] < m.disc[d + 1]:
                raise WfError("eps^h_d >= eps^M_{d+1} violated")

    comps = _tabulate(yon.tuples, range(1, m.cap), lambda gens: chain_sum(
        (h, s * t) for g_c, s in c.items()
        for h, t in m.mu_gens(gens + (g_c,)).items()))
    if c:
        shift = action_level(c, m.value(y))
    else:
        shift = Fraction(0)
    return PreModHom(yon, m, comps, shift,
                     eps_h if eps_h is not None else
                     Discrepancy([m.disc[min(d + 1, m.cap)]
                                  for d in range(1, m.cap + 1)], "hom"))


# ---------------------------------------------------------------------------
# unit assumptions
# ---------------------------------------------------------------------------

def check_Ue(cat: WFCategory, zeta=None):
    """mu_2(e_X, e_X) = e_X + mu_1(c) with A(c) <= zeta.

    Returns (ok, minimal-zeta); minimal over the exact linear solve.
    """
    if not cat.units:
        raise WfError("category carries no units")
    floor = 2 * cat.unit_bound + cat.disc[2]
    worst = floor
    for x, e in cat.units.items():
        cx = cat.hom(x, x)
        b = boundary_level(chain_add(cat.mu([e, e]), e), cx)
        if b >= INF:
            return False, INF
        worst = max(worst, b)
    return zeta is None or rat(zeta) >= worst, worst


def _endomorphism(cx: FilteredComplex, image) -> FilteredMap:
    """The map on cx with generator g -> image(g as a chain)."""
    return FilteredMap(cx, cx, {g: image(cx.basis_chain(g))
                                for g in cx.generators})


def _unit_action_map(m: WFModule, x: str) -> FilteredMap:
    """b -> mu_2^M(e_X, b) as a filtered map on M(X)."""
    return _endomorphism(m.value(x), lambda b: m.mu([m.cat.units[x]], b))


def _homotopic_to_identity(maps, floor):
    """(True, worst): worst is the largest B_h(r + id) over the maps r, and
    at least ``floor``; (False, INF) if some r + id is not null-homotopic."""
    worst = floor
    for r in maps:
        worst = max(worst, homotopical_boundary_level(
            r.add(FilteredMap.identity(r.domain))))
        if worst >= INF:
            return False, INF
    return True, worst


def check_Uw(m: WFModule, kappa=None):
    """Homology version: [mu_2(e, .)] equals the inclusion-induced map.

    Minimal kappa computed over an action-orthogonal cycle basis via
    boundary levels of v(z) - z.
    """
    if not m.cat.units:
        raise WfError("category carries no units")
    floor = m.cat.unit_bound + m.disc[2]
    worst = floor
    for x in m.values:
        cx = m.value(x)
        v = _unit_action_map(m, x)
        for _, z in orthonormal_basis(cycle_basis(cx), cx):
            w = chain_add(v.apply(z), z)
            if not w:
                continue
            b = boundary_level(w, cx)
            if b >= INF:
                return False, INF
            worst = max(worst, b - action_level(z, cx))
    ok = True if kappa is None else rat(kappa) >= worst
    return ok, worst


def check_Us(m: WFModule):
    """Homotopy version: mu_2(e, .) chain homotopic to the identity."""
    if not m.cat.units:
        raise WfError("category carries no units")
    return _homotopic_to_identity((_unit_action_map(m, x) for x in m.values),
                                  m.cat.unit_bound + m.disc[2])


def check_URe(cat: WFCategory, y: str):
    """b -> mu_2(b, e_Y) on C(X, Y) chain homotopic to the identity."""
    if not cat.units:
        raise WfError("category carries no units")
    e = cat.units[y]
    return _homotopic_to_identity(
        (_endomorphism(cat.hom(x, y), lambda b: cat.mu([b, e]))
         for x in cat.objects if (x, y) in cat.homs),
        cat.disc[2] + cat.unit_bound)


def unit_square_homotopy(m: WFModule, x: str, c_witness: Chain) -> FilteredMap:
    """h(b) = mu_3(e, e, b) + mu_2(c, b): chain homotopy between v and
    v o v, shifting action by <= max{2u + eps_3, zeta + eps_2}."""
    e = m.cat.units[x]
    return _endomorphism(m.value(x), lambda b: chain_add(
        m.mu([e, e], b), m.mu([c_witness], b)))


def assh_cone_kappa(kappa0, kappa1, u, zeta, eps2_c, eps3_c) -> Fraction:
    """kappa = max{2k0, 2k1, 2u + eps_3^C, 2u + 2eps_2^C, zeta + eps_2^C}."""
    kappa0, kappa1, u, zeta = rat(kappa0), rat(kappa1), rat(u), rat(zeta)
    eps2_c, eps3_c = rat(eps2_c), rat(eps3_c)
    return max(2 * kappa0, 2 * kappa1, 2 * u + eps3_c,
               2 * u + 2 * eps2_c, zeta + eps2_c)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def parse_category(text, cutoff=DEFAULT_CUTOFF,
                   cap: int = DEFAULT_ARITY_CAP) -> WFCategory:
    """Toy-category format, text or ``(n, line)`` pairs read by
    ``novikov.content_lines``::

        object X
        hom X X: gen e action 0 ; gen a action 1/2
        d a = T^1*b
        mu 2 (e,e) -> T^0*e
        disc 0 1/2 1/2 ...
        unit X = T^0*e bound 0
    """
    objects: List[str] = []
    hom_lines: Dict[Tuple[str, str], List[Tuple[int, str]]] = {}
    mu: MuTable = {}
    disc = None
    units: Dict[str, Chain] = {}
    unit_bound = Fraction(0)
    gen_home: Dict[str, Tuple[str, str]] = {}
    for n, line in content_lines(text):
        word, _, rest = line.partition(" ")
        with on_line(n, WfError):
            if word == "object":
                name, = rest.split()
                if name in objects:
                    raise WfError(f"object {name} given twice")
                objects.append(name)
            elif word == "hom":
                head, rest = rest.split(":", 1)
                x, y = head.split()
                body = hom_lines.setdefault((x, y), [])
                for piece in rest.split(";"):
                    body.append((n, piece))
                    if piece.strip().startswith("gen "):
                        gen_home[piece.split()[1]] = (x, y)
            elif word == "d":
                src = rest.split("=", 1)[0].strip()
                if src not in gen_home:
                    raise WfError(f"differential for unknown generator {src}")
                hom_lines[gen_home[src]].append((n, line))
            elif word == "mu":
                head, rhs = rest.split("->", 1)
                d, gens = head.split(None, 1)
                table, gens = mu.setdefault(int(d), {}), name_tuple(gens)
                if gens in table:
                    raise WfError(f"mu {d} ({','.join(gens)}) given twice")
                table[gens] = parse_chain(rhs, cutoff)
            elif word == "disc":
                if disc is not None:
                    raise WfError("disc given twice")
                vals = [rat(v) for v in rest.split()]
                if not vals:
                    raise WfError("a disc line needs at least one value")
                disc = Discrepancy((vals + vals[-1:] * cap)[:cap], "category")
            elif word == "unit":
                head, rest = rest.split("=", 1)
                if head.strip() in units:
                    raise WfError(f"unit {head.strip()} given twice")
                rest, _, bound = rest.partition(" bound ")
                units[head.strip()] = parse_chain(rest, cutoff)
                unit_bound = max(unit_bound, rat(bound or 0))
            else:
                raise WfError(f"unrecognized category line {line!r}")
    homs = {key: parse_complex(body, cutoff)
            for key, body in hom_lines.items()}
    return WFCategory(objects, homs, mu,
                      disc or Discrepancy.zero(cap, "category"), cap=cap,
                      units=units or None, unit_bound=unit_bound)
