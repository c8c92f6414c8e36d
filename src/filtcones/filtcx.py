"""Finite filtered chain complexes over the Novikov field.

A complex carries finitely many generators, a rational action value per
generator and a square differential matrix over Novikov scalars.  The
filtration is the mixed one: A(sum l_j e_j) = max(-v(l_j) + A(e_j)).
A chain maps generators to nonzero scalars, and every sum of chains is
one ``chain_sum`` of (generator, scalar) terms (``chain_add`` sums two).

The quantitative invariants (boundary level/depth, homotopical variants,
min beta and delta-robust subspaces) are the exponents of one Smith
normal form of d over the valuation ring F2[[t]], t = T^(1/q), q the lcm
of every action and exponent denominator, the queries' included (Usher
and Zhang, *Persistent homology and Floer-Novikov theory*, 2016).  In
the basis f_j = T^(A_j) e_j of action 0, d'_ij = d_ij T^(A_j - A_i);
each entry is an int bitmask (bit k for t^k) after one common shift by
the least exponent.  The elimination runs exactly over F2[t] (see
``_Smith``).  It reads the stored polynomials and no cutoff.  The
brute-force oracles of the test suite check it.

The elimination layer is one loop, and none of it solves on a window of
exponents.  ``_echelon`` is an exact least-valuation echelon on int
bitmask polynomials over F2[t]; ``_vectors`` puts every Novikov matrix
on its lattice.  The field layer reads one run, the inputs' bookkeeping
riding along as extra coordinates: ``field_rank`` (the retired vectors),
``field_kernel`` (the bookkeeping of the dropped ones), ``field_basis``
and ``field_preimage``, and so ``cycle_basis``, ``image_basis`` and
``homology_rank``.  ``chain_left_inverse_action`` reads the least
action of a chain-map left inverse, for ``twisted.retract_energy`` and
the inverse shifts of the rigidity lemmas, off exact runs over hom(D,
C), one per block of rows linked by their unknowns, with the read of
``_Smith.boundary_level`` (``_preimage_level``); no inverse's entries
are built.
``orthonormal_basis`` reads an action-orthogonal basis of a span off one
run in the f basis: each retired column divided by t^k, cut to an input
combination with no exponent above the inputs', with its pivot
generator.  ``boundary_depth_map`` and ``check_Uw`` take their maxima
over its members, and ``find_robust_subspace`` projects along the
generators off its pivots.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .novikov import (
    DEFAULT_CUTOFF, INF, NovikovScalar, content_lines, on_line, parse_scalar,
    rat,
)

NEG_INF = -INF

Chain = Dict[str, NovikovScalar]


class FiltError(ValueError):
    pass


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def chain_sum(terms: Iterable[Tuple[str, NovikovScalar]]) -> Chain:
    """The sum of (generator, scalar) terms: terms on one generator add,
    a generator whose sum is zero leaves, and a later term on it puts it
    back at the end."""
    out: Chain = {}
    for g, s in terms:
        t = out.get(g)
        if t is not None:
            s = t + s
        if s:
            out[g] = s
        else:
            out.pop(g, None)
    return out


def chain_add(x: Chain, y: Chain) -> Chain:
    return chain_sum([*x.items(), *y.items()])


def chain_eq(x: Chain, y: Chain) -> bool:
    return not chain_add(x, y)


class FilteredComplex:
    """Generators with rational actions plus a differential over Novikov scalars.

    ``diff[j]`` is the chain d(e_j).  Standing assumptions verified at
    construction, exactly: d*d = 0 and A(d e_j) <= A(e_j).  ``cutoff`` is
    the bound on the written exponents of the complex's scalars.
    """

    def __init__(self, generators: Sequence[str], action: Dict[str, object],
                 diff: Dict[str, Chain], cutoff=DEFAULT_CUTOFF,
                 check: bool = True):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise FiltError("duplicate generator names")
        self.cutoff = rat(cutoff)
        self.action = {g: rat(action[g]) for g in self.generators}
        self.diff: Dict[str, Chain] = {}
        for g in self.generators:
            col = diff.get(g, {})
            self.diff[g] = {h: s for h, s in col.items() if not s.is_zero()}
            for h in self.diff[g]:
                if h not in self.action:
                    raise FiltError(f"differential of {g} hits unknown generator {h}")
        self._grid = None
        if check:
            self._validate()

    def _validate(self):
        for g in self.generators:
            dg = self.diff[g]
            if action_level(dg, self) > self.action[g]:
                raise FiltError(f"action increases along d({g})")
            if not chain_eq(self.d(dg), {}):
                raise FiltError(f"d^2 != 0 at generator {g}")

    @property
    def dim(self) -> int:
        return len(self.generators)

    def basis_chain(self, g: str) -> Chain:
        return {g: NovikovScalar.monomial(0, self.cutoff)}

    def d(self, x: Chain) -> Chain:
        return chain_sum((h, s * t) for g, s in x.items()
                         for h, t in self.diff.get(g, {}).items())

    def is_cycle(self, x: Chain) -> bool:
        return not self.d(x)

    def grid(self, chains: Sequence[Chain] = ()) -> "_Smith":
        """The Smith-form reduction of d on a lattice holding the chains."""
        q = lcm(_denominators(self),
                *(s.denominator for ch in chains for s in ch.values()))
        if self._grid is None or self._grid.q % q:
            self._grid = _Smith(self, q)
        return self._grid

    def shift_actions(self, nu) -> "FilteredComplex":
        nu = rat(nu)
        return FilteredComplex(
            self.generators,
            {g: a + nu for g, a in self.action.items()},
            self.diff, self.cutoff, check=False)

    def __repr__(self):
        return f"FilteredComplex({len(self.generators)} generators)"


def action_level(x: Chain, cx: FilteredComplex) -> Fraction:
    """A(sum l_j e_j) = max(-v(l_j) + A(e_j)); -infinity for the zero chain."""
    if not x:
        return NEG_INF
    return max(cx.action[g] - s.valuation() for g, s in x.items())


# ---------------------------------------------------------------------------
# filtered maps
# ---------------------------------------------------------------------------

class FilteredMap:
    """Linear map between filtered complexes with a declared action shift."""

    def __init__(self, domain: FilteredComplex, codomain: FilteredComplex,
                 matrix: Dict[str, Chain], declared_shift=0):
        self.domain = domain
        self.codomain = codomain
        self.matrix = {g: {h: s for h, s in matrix.get(g, {}).items()
                           if not s.is_zero()}
                       for g in domain.generators}
        self.declared_shift = rat(declared_shift)

    def apply(self, x: Chain) -> Chain:
        return chain_sum((h, s * t) for g, s in x.items()
                         for h, t in self.matrix.get(g, {}).items())

    def measured_shift(self) -> Fraction:
        """Exact maximal action shift over the generators."""
        best = NEG_INF
        for g in self.domain.generators:
            img = self.matrix.get(g, {})
            if img:
                best = max(best, action_level(img, self.codomain)
                           - self.domain.action[g])
        return best

    def is_chain_map(self) -> bool:
        for g in self.domain.generators:
            lhs = self.apply(self.domain.diff[g])
            rhs = self.codomain.d(self.matrix.get(g, {}))
            if not chain_eq(lhs, rhs):
                return False
        return True

    def compose(self, other: "FilteredMap") -> "FilteredMap":
        """self after other (other first)."""
        if other.codomain is not self.domain:
            if other.codomain.generators != self.domain.generators:
                raise FiltError("composition domain mismatch")
        mat = {g: self.apply(other.matrix.get(g, {}))
               for g in other.domain.generators}
        return FilteredMap(other.domain, self.codomain, mat,
                           self.declared_shift + other.declared_shift)

    def add(self, other: "FilteredMap") -> "FilteredMap":
        mat = {g: chain_add(self.matrix.get(g, {}), other.matrix.get(g, {}))
               for g in self.domain.generators}
        return FilteredMap(self.domain, self.codomain, mat,
                           max(self.declared_shift, other.declared_shift))

    @staticmethod
    def identity(cx: FilteredComplex) -> "FilteredMap":
        return FilteredMap(cx, cx, {g: cx.basis_chain(g) for g in cx.generators}, 0)


def action_drop(f: FilteredMap) -> Fraction:
    """sup{r >= 0 : f(C^<=a) subset D^<=a-r}; +infinity for the zero map."""
    shift = f.measured_shift()
    if shift == NEG_INF:
        return INF
    if shift > 0:
        raise FiltError("action_drop requires a strictly filtered map")
    return -shift


def delta_d(cx: FilteredComplex) -> Fraction:
    return action_drop(FilteredMap(cx, cx, dict(cx.diff), 0))


# ---------------------------------------------------------------------------
# bitmask elimination over F2[t] and the Smith-form kernel
# ---------------------------------------------------------------------------

def _denominators(cx: FilteredComplex) -> int:
    q = 1
    for g in cx.generators:
        q = lcm(q, cx.action[g].denominator)
        q = lcm(q, *(s.denominator for s in cx.diff[g].values()))
    return q


def _bits(x: int):
    """The exponents k of the terms t^k of a polynomial bitmask, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _mul(a: int, b: int) -> int:
    """Carry-less product: multiplication in F2[t] on bitmasks."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    for k in _bits(a):
        out ^= b << k
    return out


def _vectors(chains: Sequence[Chain], coords: Sequence[str], q: int = 0,
             action: Optional[Sequence[Fraction]] = None,
             coord_action: Optional[Dict[str, Fraction]] = None
             ) -> Tuple[int, int, List[List[int]]]:
    """A Novikov matrix as F2[t] bitmask vectors on t = T^(1/q).

    Vector j is chains[j] over the generators ``coords``: its term T^e at
    g is t^(q*(e + action[j] - coord_action[g]) - m), actions 0 where not
    given and m the least such exponent, so the matrix is t^m times the
    vectors (``_Smith`` takes d'_ij = d_ij T^(A_j - A_i) so).  With q = 0
    the lattice is the lcm of the denominators; a given q must clear the
    actions' and raises if it does not clear the chains'.  Returns (q, m,
    vectors).
    """
    index = {g: i for i, g in enumerate(coords)}
    action = action or [0] * len(chains)
    coord_action = coord_action or dict.fromkeys(coords, 0)
    q = q or lcm(1, *(a.denominator for a in action),
                 *(a.denominator for a in coord_action.values()),
                 *(s.denominator for ch in chains for s in ch.values()))
    lift = [a.numerator * (q // a.denominator) for a in action]
    coord_lift = {g: a.numerator * (q // a.denominator)
                  for g, a in coord_action.items()}
    terms = [(j, index[g], k + lift[j] - coord_lift[g])
             for j, ch in enumerate(chains) for g, s in ch.items()
             for k in s.lift(q)]
    m = min((k for *_, k in terms), default=0)
    vecs = [[0] * len(coords) for _ in chains]
    for j, i, k in terms:
        vecs[j][i] ^= 1 << k - m
    return q, m, vecs


def _echelon(cols: List[List[int]], width: int):
    """Column echelon exactly over F2[t], pivoting on the entry of least
    valuation among the first ``width`` coordinates of the live columns.

    With pivot t^k*u (u a unit) each other live column c with entry y
    there becomes u*c + (y/t^k)*pivot, and the pivot column retires.
    Coordinates past ``width`` ride along: given the identity there, a
    column records the combination of the inputs it is.  Returns the
    retired columns as (k, column), k nondecreasing (the Smith exponents),
    and the columns whose first ``width`` coordinates vanished.
    """
    live, dropped, retired = [], [], []
    for c in cols:
        (live if any(c[:width]) else dropped).append(c)
    while live:
        k, i, j = min(((x & -x).bit_length() - 1, i, j)
                      for j, c in enumerate(live)
                      for i, x in enumerate(c[:width]) if x)
        piv = live.pop(j)
        u, rest = piv[i] >> k, []
        for c in live:
            if c[i]:
                w = c[i] >> k
                c[:] = [_mul(u, x) ^ _mul(w, y) for x, y in zip(c, piv)]
            (rest if any(c[:width]) else dropped).append(c)
        live = rest
        retired.append((k, piv))
    return retired, dropped


def _preimage_level(pivots, rest, shift: int, q: int) -> Fraction:
    """The least action of a preimage, read off an ``_echelon`` of rows
    ending in the target's entry (see ``_Smith``): +infinity when the
    reduced target nu survives off the pivot rows, else (shift + max_i
    (k_i - v(nu_i)))/q over them; -infinity for the zero target."""
    if any(row[-1] for row in rest):
        return INF
    top = max((k - next(_bits(row[-1])) for k, row in pivots if row[-1]),
              default=None)
    return NEG_INF if top is None else Fraction(shift + top, q)


class _Smith:
    """Smith normal form of d over R = F2[[t]], t = T^(1/q).

    In the basis f_j = T^(A_j) e_j, d is t^m D0 with D0 over F2[t], and
    a query chain is t^s mu0 with v(mu0) = 0, so A(c) = -s/q (both from
    ``_vectors``).  Row operations P and column operations Q, invertible
    over R, make D0 diagonal: ``_echelon`` on the rows of D0 (clearing a
    pivot's row only zeroes entries) with the query columns appended
    retires pivot rows with exponents k_i and leaves nu = P mu0.  P and Q
    keep valuations, so B(c) = (m - s + max_i (k_i - v(nu_i))) / q over
    the pivot rows, and c is no boundary iff nu is nonzero off them.

    The read is exact: each step multiplies a column by u = pivot/t^k, a
    unit of F2[[t]], so the untruncated run over F2[t] is an elimination
    over F2[[t]].  No cutoff is read.
    """

    def __init__(self, cx: FilteredComplex, q: int):
        # no reference to cx itself: cx caches its reduction
        self.q = q
        self.generators, self.action = cx.generators, cx.action
        _, self.shift, cols = _vectors(
            [cx.diff[g] for g in cx.generators], cx.generators, q,
            [cx.action[g] for g in cx.generators], cx.action)
        self.rows = [list(row) for row in zip(*cols)]

    @property
    def monomials(self) -> List[int]:
        """The exponents of the nonzero terms t^k of D0."""
        return [k for row in self.rows for x in row for k in _bits(x)]

    def _column(self, x: Chain) -> Tuple[int, List[int]]:
        """(s, mu0): x = t^s mu0 in the f basis, v(mu0) = 0."""
        _, s, (col,) = _vectors([x], self.generators, self.q, None,
                                self.action)
        return s, col

    def _reduce(self, cols: List[List[int]]):
        """Eliminate D0 with the query columns appended: (pivots, rest)."""
        return _echelon([row + [c[i] for c in cols]
                         for i, row in enumerate(self.rows)], len(self.rows))

    def boundary_level(self, x: Chain) -> Fraction:
        if not x:
            return NEG_INF
        s, col = self._column(x)
        pivots, rest = self._reduce([col])
        return _preimage_level(pivots, rest, self.shift - s, self.q)

    def min_beta_over_span(self, vectors: List[Chain]) -> Fraction:
        """min over nonzero u in the Lambda-span of ``vectors`` of B(u)-A(u).

        All vectors must be boundaries; +infinity for the zero span.  On
        the r pivot rows u is nu, with A(u) = -v(nu) and B(u) = -v(K^-1
        nu) up to the shifts, K = diag(t^k_i).  A first ``_echelon`` of
        the nu columns retires them with exponents k'_b (their Smith
        exponents); divided by t^k'_b they form Z, an R-basis of the span
        with v(Z l) = v(l).  So beta(Z l) = v(l) - v(K^-1 Z l), least at
        -max sigma_j over the Smith exponents of K^-1 Z, which a second
        ``_echelon`` reads off H = t^kmax K^-1 Z (exponents kmax + sigma_j
        in [0, kmax], as beta >= m/q).
        """
        vecs = [v for v in vectors if v]
        if not vecs:
            return INF
        pivots, rest = self._reduce([self._column(v)[1] for v in vecs])
        n, r = len(self.rows), len(pivots)
        if any(any(row[n:]) for row in rest):
            raise FiltError("min_beta_over_span: vector is not a boundary")
        ortho = _echelon([[row[n + l] for _, row in pivots]
                          for l in range(len(vecs))], r)[0]
        kmax = pivots[-1][0]
        sigma = _echelon([[(z[i] >> kb) << kmax - pivots[i][0]
                           for i in range(r)]
                          for kb, z in ortho], r)[0][-1][0]
        return Fraction(self.shift + kmax - sigma, self.q)


# ---------------------------------------------------------------------------
# exact linear algebra over the Novikov field
# ---------------------------------------------------------------------------

def _field_run(chains: Sequence[Chain], tracked: int = 0):
    """One exact ``_echelon`` of the chains as vectors over the generators
    they use; the first ``tracked`` carry bookkeeping.  Returns (q,
    width, retired, dropped); coordinates past ``width`` are bookkeeping."""
    coords = list(dict.fromkeys(g for ch in chains for g in ch))
    q, _, vecs = _vectors(chains, coords)
    n = len(coords)
    retired, dropped = _echelon([v + [int(i == j) for i in range(tracked)]
                                 for j, v in enumerate(vecs)], n)
    return q, n, retired, dropped


def field_rank(chains: Sequence[Chain]) -> int:
    """Rank of the chains over the Novikov field."""
    return len(_field_run(chains)[2])


def field_kernel(chains: Sequence[Chain]) -> Tuple[int, List[List[int]]]:
    """A basis of the relations among the chains: (q, relations), each
    relation the F2[t] bitmask coefficients l_j, t = T^(1/q), of a
    vanishing sum_j l_j chains_j (the bookkeeping of a dropped vector)."""
    q, n, _, dropped = _field_run(chains, len(chains))
    return q, [v[n:] for v in dropped]


def field_basis(chains: Sequence[Chain]) -> List[Chain]:
    """The chains whose vectors the echelon retires, a basis of their span.

    A retired vector's bookkeeping holds its own input and inputs retired
    before it, so its own input is the one not yet claimed."""
    _, n, retired, _ = _field_run(chains, len(chains))
    owners: List[int] = []
    for _, v in retired:
        owners.append(next(j for j, b in enumerate(v[n:])
                           if b and j not in owners))
    return [chains[j] for j in sorted(owners)]


def field_preimage(chains: Sequence[Chain], images: Sequence[Chain],
                   span: Sequence[Chain], cutoff) -> List[Chain]:
    """A basis of the combinations sum_j l_j chains_j whose image sum_j
    l_j images_j lies in the span of ``span``.

    The echelon runs on the images, with bookkeeping, and a basis of the
    span; the inputs are independent, so the dropped vectors are, and
    their bookkeeping is that basis."""
    q, n, _, dropped = _field_run(list(images) + field_basis(span),
                                  len(images))
    return _combinations(q, [v[n:] for v in dropped], chains, cutoff)


def _combination(q: int, coeffs: Sequence[int], chains: Sequence[Chain],
                 cutoff, low: int) -> Chain:
    """sum_j l_j T^(-low/q) chains_j for F2[t] bitmask coefficients l_j,
    t = T^(1/q)."""
    scaled = [(NovikovScalar([k - low for k in _bits(lam)], cutoff, q), z)
              for lam, z in zip(coeffs, chains) if lam]
    return chain_sum((h, s * t) for s, z in scaled for h, t in z.items())


def _combinations(q: int, relations: List[List[int]], chains: Sequence[Chain],
                  cutoff) -> List[Chain]:
    """The nonzero chains sum_j l_j chains_j, one per list of F2[t]
    bitmask coefficients l_j (t = T^(1/q)), each divided by the largest
    power of t that divides all of its coefficients."""
    out = []
    for rel in relations:
        low = min((x & -x).bit_length() - 1 for x in rel if x)
        ch = _combination(q, rel, chains, cutoff, low)
        if ch:
            out.append(ch)
    return out


def orthonormal_basis(chains: Sequence[Chain], cx: FilteredComplex
                      ) -> List[Tuple[str, Chain]]:
    """An action-orthogonal basis of the span of the chains in cx, as
    (pivot generator, member) pairs: the action of a combination of the
    members is the max of its terms' actions.

    One exact ``_echelon`` runs on the chains in the f basis with
    bookkeeping.  A retired column sum_j l_j vec_j is t^k w, w a unit at
    its pivot and 0 at the pivots retired before it, so the w and the
    off-pivot generators form a basis invertible over F2[[t]]: the
    projection along those generators onto the span does not raise
    action.  The member sum_j (l_j mod t^(k+1)) T^(-k/q) chains_j is w
    modulo t, which keeps all of this, and has no exponent above the
    chains'.  The exact l_j can reach far higher degrees than k, and the
    full quotient would have terms past the cutoff.
    """
    n = cx.dim
    q, _, vecs = _vectors(chains, cx.generators, 0, None, cx.action)
    retired, _ = _echelon([v + [int(i == j) for i in range(len(vecs))]
                           for j, v in enumerate(vecs)], n)
    out = []
    for k, col in retired:
        i = next(i for i, x in enumerate(col[:n]) if x >> k & 1)
        cut = [lam & (1 << k + 1) - 1 for lam in col[n:]]
        out.append((cx.generators[i],
                    _combination(q, cut, chains, cx.cutoff, k)))
    return out


# ---------------------------------------------------------------------------
# boundary level / depth operations
# ---------------------------------------------------------------------------

def boundary_level(c: Chain, cx: FilteredComplex) -> Fraction:
    """inf{alpha : c = d b for some b in C^<=alpha}; +inf if not a boundary."""
    if not c:
        return NEG_INF
    if not cx.is_cycle(c):
        raise FiltError("boundary_level requires a cycle")
    return cx.grid([c]).boundary_level(c)


def boundary_depth_elem(c: Chain, cx: FilteredComplex) -> Fraction:
    """beta(c;C) = B(c;C) - A(c;C) for a boundary c."""
    b = boundary_level(c, cx)
    if b >= INF:
        raise FiltError("boundary_depth_elem requires a boundary")
    if b == NEG_INF:
        return Fraction(0)
    return b - action_level(c, cx)


def cycle_basis(cx: FilteredComplex) -> List[Chain]:
    q, rels = field_kernel([cx.diff[g] for g in cx.generators])
    return _combinations(q, rels, [cx.basis_chain(g) for g in cx.generators],
                         cx.cutoff)


def image_basis(cx: FilteredComplex) -> List[Chain]:
    """Columns of d that form a basis of its image."""
    return field_basis([cx.diff[g] for g in cx.generators])


def homology_rank(cx: FilteredComplex) -> int:
    return cx.dim - 2 * field_rank([cx.diff[g] for g in cx.generators])


def boundary_depth_map(phi: FilteredMap) -> Fraction:
    """Minimal r such that every cycle x with phi(x) a boundary bounds
    within codomain level A(x)+r."""
    if not phi.is_chain_map():
        raise FiltError("boundary_depth_map requires a chain map")
    if phi.measured_shift() > 0:
        raise FiltError("boundary_depth_map requires a strictly filtered map")
    C, D = phi.domain, phi.codomain
    zs = cycle_basis(C)
    # the cycles landing in the boundaries of D
    sub = field_preimage(zs, [phi.apply(z) for z in zs],
                         [D.diff[g] for g in D.generators], C.cutoff)
    best = Fraction(0)
    # the largest drop over the subspace is the largest over an
    # action-orthogonal basis of it
    for _, z in orthonormal_basis(sub, C):
        b = boundary_level(phi.apply(z), D)
        if b == NEG_INF:
            continue
        best = max(best, b - action_level(z, C))
    return best


# ---------------------------------------------------------------------------
# hom complexes and homotopical boundary level
# ---------------------------------------------------------------------------

def hom_complex(C: FilteredComplex, D: FilteredComplex) -> FilteredComplex:
    """hom(C, D) with generators E[i<-j], action A_D(i) - A_C(j) and
    differential f -> d_D f + f d_C (characteristic 2)."""
    action: Dict[str, Fraction] = {}
    diff: Dict[str, Chain] = {}
    for i in D.generators:
        for j in C.generators:
            g = f"E[{i}<-{j}]"
            action[g] = D.action[i] - C.action[j]
            diff[g] = chain_sum(
                [*((f"E[{k}<-{j}]", s) for k, s in D.diff[i].items()),
                 *((f"E[{i}<-{k}]", C.diff[k][j]) for k in C.generators
                   if j in C.diff[k])])
    return FilteredComplex(list(action), action, diff, C.cutoff, check=False)


def map_to_chain(f: FilteredMap) -> Chain:
    out: Chain = {}
    for j, col in f.matrix.items():
        for i, s in col.items():
            out[f"E[{i}<-{j}]"] = s
    return out


def homotopical_boundary_level(psi: FilteredMap) -> Fraction:
    """B_h(psi): infimal action shift of a null-homotopy; +inf if none."""
    ch = map_to_chain(psi)
    if not ch:
        return NEG_INF
    H = hom_complex(psi.domain, psi.codomain)
    if not H.is_cycle(ch):
        raise FiltError("homotopical boundary level requires a chain map")
    return boundary_level(ch, H)


# ---------------------------------------------------------------------------
# delta-robust subspaces
# ---------------------------------------------------------------------------

def is_delta_robust(V: List[Chain], delta, cx: FilteredComplex) -> bool:
    """True iff every boundary in span(V) has beta >= delta."""
    delta = rat(delta)
    for v in V:
        if not cx.is_cycle(v):
            raise FiltError("delta-robustness requires cycles")
    # restrict to span(V) intersect im(d)
    inside = field_preimage(V, V, [cx.diff[g] for g in cx.generators],
                            cx.cutoff)
    return not inside or cx.grid(inside).min_beta_over_span(inside) >= delta


def find_robust_subspace(cx: FilteredComplex, d0: Dict[str, Chain],
                         d1: Dict[str, Chain]):
    """Split d = d0 + d1 and produce a proper delta_{d1}-robust subspace.

    Returns (V, k) with k = (dim H(C,d0) - dim H(C,d))/2 and V the kernel
    of an action-nonincreasing projection onto im(d0), restricted to
    im(d).  V is verified delta_{d1}-robust before returning.
    """
    C0 = FilteredComplex(cx.generators, cx.action, d0, cx.cutoff)
    for g in cx.generators:
        total = chain_add(d0.get(g, {}), d1.get(g, {}))
        if not chain_eq(total, cx.diff[g]):
            raise FiltError("d0 + d1 does not match the differential")
    d1map = FilteredMap(cx, cx, d1, 0)
    if d1map.measured_shift() > 0:
        raise FiltError("d1 must not raise action")
    h0 = homology_rank(C0)
    h = homology_rank(cx)
    if h0 < h:
        raise FiltError("dim H(C,d0) < dim H(C,d)")
    if (h0 - h) % 2 != 0:
        raise FiltError("homology dimension defect must be even")
    k = (h0 - h) // 2
    # the projection onto im(d0) along the generators off the pivots of an
    # orthonormal basis of im(d0) does not raise action; its kernel is
    # spanned by those generators, so V is the part of im(d) vanishing on
    # the pivots
    pivots = {g for g, _ in orthonormal_basis(image_basis(C0), cx)}
    imd = image_basis(cx)
    q, rels = field_kernel([{g: s for g, s in ch.items() if g in pivots}
                            for ch in imd])
    V = _combinations(q, rels, imd, cx.cutoff)
    if len(V) < k:
        raise FiltError("projection kernel smaller than predicted")
    dd1 = action_drop(d1map)  # INF for d1 = 0
    if dd1 < INF and not is_delta_robust(V, dd1, cx):
        raise FiltError("constructed subspace fails robustness check")
    return V, k


# ---------------------------------------------------------------------------
# rigidity lemmas
# ---------------------------------------------------------------------------

def verify_rig_cplx2(cx: FilteredComplex, d0: Dict[str, Chain],
                     d1: Dict[str, Chain], f: FilteredMap) -> dict:
    """Check the rank inequality dim(im f) >= dim H(C, d0) under the
    splitting hypotheses; failures are reported, not raised."""
    report = {"hypotheses_ok": False, "checked": False}
    try:
        C0 = FilteredComplex(cx.generators, cx.action, d0, cx.cutoff)
    except FiltError as exc:
        report["error"] = f"d0: {exc}"
        return report
    for g in cx.generators:
        if not chain_eq(chain_add(d0.get(g, {}), d1.get(g, {})), cx.diff[g]):
            report["error"] = "d0 + d1 != d"
            return report
    h0 = homology_rank(C0)
    h = homology_rank(cx)
    report["dim_H_d0"] = h0
    report["dim_H_d"] = h
    dd1 = action_drop(FilteredMap(cx, cx, d1, 0))  # INF for d1 = 0
    report["delta_d1"] = dd1
    # f - id in characteristic 2
    bh = homotopical_boundary_level(f.add(FilteredMap.identity(cx)))
    report["Bh_f_minus_id"] = bh
    rank_f = field_rank([f.matrix.get(g, {}) for g in cx.generators])
    report["rank_f"] = rank_f
    hyp = h0 >= h and bh < dd1
    report["hypotheses_ok"] = hyp
    report["checked"] = True
    report["inequality_holds"] = rank_f >= h0
    return report


def check_injectivity_lemma(f: FilteredMap, g: FilteredMap) -> bool:
    """Lemma: if g is a strictly filtered iso with strictly filtered inverse
    and B_h(f-g) < min(delta_dC, delta_dD), then f is strictly filtered and
    injective.  Verifies hypotheses exactly and then asserts the conclusion.
    """
    C, D = f.domain, f.codomain
    if not (f.is_chain_map() and g.is_chain_map()):
        raise FiltError("inputs must be chain maps")
    if field_rank([g.matrix.get(x, {}) for x in C.generators]) != C.dim \
            or C.dim != D.dim:
        return False
    if g.measured_shift() > 0:
        return False
    if chain_left_inverse_action(g) > 0:
        return False
    if not homotopical_boundary_level(f.add(g)) < min(delta_d(C), delta_d(D)):
        return False
    # conclusion, verified exactly
    if f.measured_shift() > 0:
        raise FiltError("lemma conclusion failed: f not strictly filtered")
    rank_f = field_rank([f.matrix.get(x, {}) for x in C.generators])
    if rank_f != C.dim:
        raise FiltError("lemma conclusion failed: f not injective")
    return True


def chain_left_inverse_action(f: FilteredMap) -> Fraction:
    """The least hom-action of a chain map g: D -> C with g f = id, for f:
    C -> D; +infinity if there is none.

    The conditions are linear in g: g is a preimage of (id_C, 0) under g
    -> (g f, d_C g + g d_D).  The unknowns are the coefficients of g on
    the generators E[c<-d] of hom(D, C), at their actions; the images
    live in hom(C, C) + hom(D, C), on the coordinates (c, x) and E[c<-d]
    at their actions (any row scaling reads the same level; these keep
    the degrees low).  One ``_vectors`` call puts images and target on
    one lattice, and ``_echelon`` runs of the rows read the level as
    ``_Smith.boundary_level`` does.  Rows linked through the unknowns
    they touch form a block, one run each: no elimination step crosses
    blocks, so each run makes the pivots one run of all rows would, and
    the level is the max over the blocks (+infinity if one is
    inconsistent).  Under zero differentials the rows split by the
    generator of C they belong to; a coupled map is one block.

    For a chain isomorphism f the inverse is the only left inverse, and
    it is a chain map, so this is also the least action of any left
    inverse, the inverse's own.
    """
    C, D = f.domain, f.codomain
    H = hom_complex(D, C)
    cols = [{(c, x): col[d] for x, col in f.matrix.items() if d in col}
            | H.diff[f"E[{c}<-{d}]"]
            for c in C.generators for d in D.generators]
    act = {(c, x): C.action[c] - C.action[x]
           for c in C.generators for x in C.generators} | H.action
    target = {(c, c): NovikovScalar.one(C.cutoff) for c in C.generators}
    q, _, vecs = _vectors(cols + [target], list(act), 0,
                          [*H.action.values(), 0], act)
    rows, n = [list(row) for row in zip(*vecs)], len(cols)
    root = list(range(n))  # union-find over the unknowns

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for row in rows:
        touched = [i for i in range(n) if row[i]]
        for i in touched[1:]:
            root[find(i)] = find(touched[0])
    unknowns: Dict[int, List[int]] = {}
    for i in range(n):
        unknowns.setdefault(find(i), []).append(i)
    blocks: Dict[Optional[int], List[List[int]]] = {}
    for row in rows:
        i = next((i for i in range(n) if row[i]), None)
        blocks.setdefault(None if i is None else find(i), []).append(row)
    level = NEG_INF
    for key, block in blocks.items():
        coords = unknowns.get(key, [])
        pivots, rest = _echelon([[row[i] for i in coords] + row[-1:]
                                 for row in block], len(coords))
        level = max(level, _preimage_level(pivots, rest, 0, q))
    return level


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def parse_chain(text: str, cutoff) -> Chain:
    """Parse "T^e*gen + T^f*gen2 + ..." (or "0"); terms on one generator add."""
    if text.strip() == "0":
        return {}
    terms = []
    for term in text.split("+"):
        scal, star, gen = term.rpartition("*")
        if not (star and scal.strip() and gen.strip()):
            raise FiltError(f"bad chain term {term.strip()!r}")
        terms.append((gen.strip(), parse_scalar(scal, cutoff)))
    return chain_sum(terms)


def parse_complex(text, cutoff=DEFAULT_CUTOFF) -> FilteredComplex:
    """A complex from ``cutoff``, ``gen`` and ``d`` lines, text or
    ``(n, line)`` pairs read by ``novikov.content_lines``; a malformed
    line raises FiltError naming its number."""
    gens: List[str] = []
    action: Dict[str, Fraction] = {}
    rhs_of: Dict[str, Tuple[int, str]] = {}
    cutoff = rat(cutoff)
    for n, line in content_lines(text):
        with on_line(n, FiltError):
            parts = line.split()
            if parts[0] == "cutoff" and len(parts) == 2:
                cutoff = rat(parts[1])
            elif parts[0] == "gen":
                if len(parts) != 4 or parts[2] != "action":
                    raise FiltError(f"bad generator line: {line!r}")
                if parts[1] in action:
                    raise FiltError(f"generator {parts[1]} given twice")
                gens.append(parts[1])
                action[parts[1]] = rat(parts[3])
            elif parts[0] == "d":
                head, rhs = line[2:].split("=", 1)
                if head.strip() in rhs_of:
                    raise FiltError(f"d {head.strip()} given twice")
                rhs_of[head.strip()] = (n, rhs)
            else:
                raise FiltError(f"unrecognized line: {line!r}")
    diff: Dict[str, Chain] = {}
    for src, (n, rhs) in rhs_of.items():
        with on_line(n, FiltError):
            diff[src] = parse_chain(rhs, cutoff)
    return FilteredComplex(gens, action, diff, cutoff)
