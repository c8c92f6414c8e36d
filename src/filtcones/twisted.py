"""Iterated weakly filtered cones and the twisted differential assembly.

``build_iterated_cone`` cones off one attaching map per stage, each
built from the cone before it.  The structure theorem for iterated cones
is consumed as an output contract: ``assemble_twisted_mu1`` returns the
symbolic upper-triangular matrix, which depends on the number of objects
alone and whose off-diagonal entries insert connecting cycles into the
higher category operations; ``twisted_value_complex`` evaluates its
entries on the cycles of a ``TwistedData`` with the category's ``mu``,
summed by ``filtcx.chain_sum``; ``cone_replace`` adds its maps' parts by
``wfainf.table_sum``.
``audit_structure_theorem`` verifies a supplied model against the
contract, and the retract energy
rho(f), the least A(g) + A(f) over g with g f ~ id, gives the weight of
``weight_wp``.
Its upper bound is one computation for every map: the least action of
a chain map g with g f = id, read off one exact elimination over
hom(D, C) (``filtcx.chain_left_inverse_action``).  It is exact when
the domain's differential vanishes; otherwise the lower bound is 0.
The fragmentation metrics do not read it yet.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .novikov import INF, rat
from .filtcx import (
    Chain, FilteredComplex, FilteredMap, action_level, chain_sum,
    chain_left_inverse_action, field_rank,
)
from .wfainf import (
    CycleError, Discrepancy, PreModHom, WFCategory, WFModule, cone, disc_max,
    mu1_mod, mu2_mod, shift_module, table_sum, yoneda_module,
)


class TwistedError(ValueError):
    pass


# ---------------------------------------------------------------------------
# iterated cones
# ---------------------------------------------------------------------------

def build_iterated_cone(cat: WFCategory, objects: Sequence[str],
                        phis: Sequence[Callable[[WFModule], PreModHom]],
                        rhos: Sequence, deltas: Sequence[Discrepancy]
                        ) -> Tuple[WFModule, List[Discrepancy]]:
    """K_r = Cone(L_r -> Cone(... Cone(L_1 -> L_0)...)) with the inductive
    discrepancy ledger eps^{K_{i+1}} = max{eps^{K_i}, delta_{i+1} - (delta_{i+1})_1}.

    ``phis[i]`` maps K_i to the attaching module homomorphism from the
    Yoneda module of L_{i+1} to K_i (the target only exists once the
    previous stage is built); it is coned off at (rhos[i], deltas[i]).

    Returns (K_r, [eps^{K_0}, ..., eps^{K_r}]).
    """
    if len(objects) != len(phis) + 1:
        raise TwistedError("need one attaching map per object past L_0")
    k = yoneda_module(cat, objects[0])
    ledger = [Discrepancy(cat.disc.values, "module")]
    for i, attach in enumerate(phis):
        phi = attach(k)
        if phi.target is not k:
            raise TwistedError(f"attaching map {i + 1} does not target K_{i}")
        try:
            k = cone(phi, rat(rhos[i]), deltas[i])
        except CycleError:
            raise TwistedError(
                f"attaching map {i + 1} is not a cycle") from None
        ledger.append(disc_max([ledger[-1], deltas[i].minus_first()],
                               "module"))
    return k, ledger


# ---------------------------------------------------------------------------
# twisted differential assembly
# ---------------------------------------------------------------------------

class TwistedData:
    """Connecting cycles c_{q,p} in hom(L_q, L_p), 0 <= p < q <= r."""

    def __init__(self, cat: WFCategory, objects: Sequence[str],
                 cycles: Dict[Tuple[int, int], Chain]):
        # individual entries need not be cycles: the square-zero condition
        # couples mu_1 c_{q,p} to the Maurer-Cartan products
        self.cat = cat
        self.objects = tuple(objects)
        self.cycles = dict(cycles)
        for q, p in self.cycles:
            if not 0 <= p < q < len(objects):
                raise TwistedError(f"bad cycle index ({q},{p})")
            cat.hom(objects[q], objects[p])  # refuses a pair with no complex

    def cycle(self, q: int, p: int) -> Chain:
        return self.cycles.get((q, p), {})


class TwistedEntry:
    """Symbolic operator a_{i,j}: a sum of mu_d insertions of c-paths."""

    def __init__(self, terms: List[Tuple[int, Tuple[Tuple[int, int], ...]]]):
        self.terms = sorted(terms)

    def __eq__(self, other):
        return isinstance(other, TwistedEntry) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for d, path in self.terms:
            cs = ", ".join(f"c[{q},{p}]" for q, p in path)
            bits.append(f"mu_{d}(-, {cs})")
        return " + ".join(bits)


def assemble_twisted_mu1(cat: WFCategory, objects: Sequence[str]):
    """The upper-triangular matrix of the twisted differential.

    Entry (i, j), i < j, is the sum over strictly increasing paths
    i = k_1 < ... < k_d = j of mu_d(-, c_{k_d, k_{d-1}}, ..., c_{k_2, k_1});
    the diagonal is mu_1.  The paths are the subsets of range(i + 1, j).
    Returns the symbolic matrix alone; ``twisted_value_complex``
    evaluates it on C(X, L_j) for a test object X.
    """
    r = len(objects) - 1
    if cat.cap < r + 1:
        raise TwistedError(f"arity cap {cat.cap} too small for r = {r}")
    symbolic: Dict[Tuple[int, int], TwistedEntry] = {}
    for i in range(r + 1):
        symbolic[(i, i)] = TwistedEntry([(1, ())])
        for j in range(i + 1, r + 1):
            # each path read from j down to i: (k_d, ..., k_1)
            paths = [(j, *mid[::-1], i) for n in range(j - i)
                     for mid in combinations(range(i + 1, j), n)]
            symbolic[(i, j)] = TwistedEntry(
                [(len(p), tuple(zip(p, p[1:]))) for p in paths])
    return symbolic


def twisted_value_complex(cat: WFCategory, objects: Sequence[str],
                          data: TwistedData, x: str) -> FilteredComplex:
    """The chain complex (+C(X, L_j), twisted mu_1) as a FilteredComplex.

    Generator names are suffixed with @j to keep the summands apart; each
    keeps its action in C(X, L_j).
    """
    r = len(objects) - 1
    sym = assemble_twisted_mu1(cat, objects)
    action, diff = {}, {}
    name = lambda g, j: f"{g}@{j}"
    for j in range(r + 1):
        hom = cat.hom(x, objects[j])
        for g in hom.generators:
            action[name(g, j)] = hom.action[g]
            b = hom.basis_chain(g)
            diff[name(g, j)] = chain_sum(
                (name(h, i), s) for i in range(j + 1)
                for _, cpairs in sym[(i, j)].terms
                for h, s in cat.mu([b] + [data.cycle(q, p)
                                          for q, p in cpairs]).items())
    return FilteredComplex(list(action), action, diff, cat.cutoff(),
                           check=False)


def check_twisted_square_zero(cat: WFCategory, objects: Sequence[str],
                              data: TwistedData, x: str) -> bool:
    """(mu_1^M)^2 = 0 on every generator of +C(X, L_j)."""
    cx = twisted_value_complex(cat, objects, data, x)
    for g in cx.generators:
        if cx.d(cx.diff[g]):
            return False
    return True


def alpha_ledger(data: TwistedData, rhos: Sequence) -> Dict[Tuple[int, int], dict]:
    """Measured action of each connecting cycle against rho_q - rho_p.

    The universal-constant term in the theorem's bound is unknown, so
    the ledger reports the measured excess and never asserts it.
    """
    rhos = [rat(r) for r in rhos]
    out = {}
    for (q, p), c in data.cycles.items():
        hom = data.cat.hom(data.objects[q], data.objects[p])
        measured = action_level(c, hom)
        base = rhos[q] - rhos[p]
        out[(q, p)] = {"measured": measured, "rho_difference": base,
                       "excess": measured - base}
    return out


def bounds_chi_xi(m: int, d: int, q: int, kappa, eps_a: Discrepancy,
                  delta_lists: Sequence[Discrepancy]):
    """The two bookkeeping sums (chi_{m,d}, xi_q).

    chi_{m,d} = sum_{j<=m} sum_{i<=d+m} delta_i^{phi_j} + sum_{i<=d+m} eps_i^A
    xi_q      = kappa + sum_{i<=q+3} eps_i^A + sum_{j<=q} sum_{i<=q+2} delta_i^{phi_j}
    """
    kappa = rat(kappa)

    def dsum(seq: Discrepancy, upto: int) -> Fraction:
        return sum((seq[i] for i in range(1, min(upto, seq.cap) + 1)),
                   Fraction(0))

    chi = sum((dsum(delta_lists[j], d + m) for j in range(m)), Fraction(0))
    chi += dsum(eps_a, d + m)
    xi = kappa + dsum(eps_a, q + 3)
    xi += sum((dsum(delta_lists[j], q + 2) for j in range(q)), Fraction(0))
    return chi, xi


# ---------------------------------------------------------------------------
# structure-theorem audit
# ---------------------------------------------------------------------------

def audit_structure_theorem(cat: WFCategory, objects: Sequence[str],
                            k_complex: FilteredComplex,
                            m_complex: FilteredComplex,
                            sigma1: FilteredMap) -> dict:
    """Verify a candidate (M, sigma_1) against the output contract.

    Checks: sigma_1 is a chain isomorphism, upper triangular with id
    diagonal blocks with respect to the @j-grading, its inverse shifts
    action by <= 0, and the bottom summand filtration is preserved.  The
    measured action shift of sigma_1 is reported, never asserted.
    """
    report = {"ok": False}

    def block(g: str) -> int:
        return int(g.rsplit("@", 1)[1])

    if not sigma1.is_chain_map():
        report["error"] = "sigma_1 is not a chain map"
        return report
    # upper triangular with identity diagonal
    for g in k_complex.generators:
        img = sigma1.matrix.get(g, {})
        j = block(g)
        for h, s in img.items():
            if block(h) > j:
                report["error"] = f"sigma_1 not triangular at {g} -> {h}"
                return report
        diag = img.get(g)
        off_diag_same_block = [h for h in img if block(h) == j and h != g]
        if diag is None or diag.exps != (Fraction(0),) or off_diag_same_block:
            report["error"] = f"diagonal block of sigma_1 not id at {g}"
            return report
    cols = [sigma1.matrix.get(g, {}) for g in k_complex.generators]
    if field_rank(cols) != k_complex.dim or k_complex.dim != m_complex.dim:
        report["error"] = "sigma_1 not invertible"
        return report
    report["sigma1_inverse_shift"] = chain_left_inverse_action(sigma1)
    if report["sigma1_inverse_shift"] > 0:
        report["error"] = "sigma_1^{-1} raises action"
        return report
    # bottom summand: pure block-0 chains carry the same filtration
    for g in k_complex.generators:
        if block(g) == 0:
            if k_complex.action[g] != m_complex.action[g]:
                report["error"] = "bottom filtrations disagree"
                return report
            img = sigma1.matrix.get(g, {})
            if list(img) != [g]:
                report["error"] = "Delta_0 is not the identity"
                return report
    report["sigma1_shift"] = sigma1.measured_shift()
    report["ok"] = True
    return report


# ---------------------------------------------------------------------------
# retract energy
# ---------------------------------------------------------------------------

def retract_energy(f):
    """rho(f) as a certified interval (lower, upper).

    The upper bound is max(0, A(g) + A(f)) for the least hom-action A(g)
    of a chain map g with g f = id (``filtcx.chain_left_inverse_action``),
    +infinity when there is none.  When the differential of the domain C
    vanishes, every h: C -> C has d h + h d = 0, so g f ~ id only if
    g f = id and the lower bound equals the upper one, whatever the
    codomain's differential; otherwise it is 0.  Module homomorphisms
    are measured through their
    first-order parts objectwise (valid when the modules carry no higher
    operations).
    """
    if isinstance(f, PreModHom):
        for d, t in f.source.mu_tables.items():
            if t:
                raise TwistedError("retract_energy supports modules without "
                                   "higher operations; measure objectwise")
        maps = [f.first_order_map(x) for x in f.source.values
                if x in f.target.values]
        results = [retract_energy(m) for m in maps]
        lo = max((r[0] for r in results), default=Fraction(0))
        up = max((r[1] for r in results), default=Fraction(0))
        return lo, up
    level = chain_left_inverse_action(f)
    upper = INF if level >= INF else \
        max(Fraction(0), level + f.measured_shift())
    if any(f.domain.diff.values()):
        return Fraction(0), upper
    return upper, upper


def rho_upper_from_witness(f: PreModHom, g: PreModHom,
                           eta: PreModHom) -> Fraction:
    """Certified upper bound for rho(f) from an explicit homotopy witness.

    Verifies g f - id = mu1_mod(eta) exactly and returns
    max{shift(eta), A(g) + A(f), 0}.
    """
    comp = mu2_mod(f, g)
    delta = comp.add(PreModHom.identity(f.source))
    if not delta.add(mu1_mod(eta)).is_zero():
        raise TwistedError("witness homotopy does not certify g f ~ id")
    k = eta.max_shift()
    a_g = g.max_shift()
    a_f = f.max_shift()
    return max(k, a_g + a_f, Fraction(0))


# ---------------------------------------------------------------------------
# cone replacement (bounds for rho under changing a factor)
# ---------------------------------------------------------------------------

def cone_replace(phi: PreModHom, u: PreModHom, v: PreModHom, xi: PreModHom):
    """Replace N by N' inside M_1 = Cone(N -phi-> K_1).

    Given u: N -> N', v: N' -> N and a homotopy xi: v u ~ id_N, build
    M_1' = Cone(phi o vbar) on S^{-r} N' together with
    u' = (ubar, phi xi + id), v' = (vbar, id) and xi' = (xi, 0).
    Returns (M1, M1p, uprime, vprime, xiprime, bound) where bound =
    max{A(u) + A(v), A(xi), 0} is asserted against rho(u').
    """
    N, K1 = phi.source, phi.target
    Np = u.target
    r = v.max_shift()
    s_shift = u.max_shift()
    k_shift = xi.max_shift()
    Np_sh = shift_module(Np, -r)
    vbar = PreModHom(Np_sh, N, v.components, 0, v.disc)
    phi_prime = mu2_mod(vbar, phi)
    m1 = cone(phi, max(phi.shift, Fraction(0)), phi.disc)
    m1p = cone(phi_prime, Fraction(0), phi_prime.disc)
    # u' = (ubar, phi xi + id_{K1}) and v' = (vbar, id_{K1})
    def id_k1(cone_mod):
        return {1: {(g,): K1.value(x).basis_chain(g)
                    for g, x in K1.gen_value.items() if x in cone_mod.values}}

    uprime = PreModHom(m1, m1p, table_sum([u.components,
                                           mu2_mod(xi, phi).components,
                                           id_k1(m1p)]),
                       max(r + s_shift, k_shift, 0))
    vprime = PreModHom(m1p, m1, table_sum([vbar.components, id_k1(m1)]), 0)
    xiprime = PreModHom(m1, m1, xi.components, k_shift)
    bound = max(s_shift + r, k_shift, Fraction(0))
    return m1, m1p, uprime, vprime, xiprime, bound


# ---------------------------------------------------------------------------
# weights from filtered models
# ---------------------------------------------------------------------------

def weight_wp(models: Sequence, target_family: Optional[Sequence[str]] = None
              ) -> Fraction:
    """min over the supplied filtered models of the rho upper bound.

    A model is either a map alpha or a pair (alpha, linearization); when
    a target family is given, models with a linearization must match it
    (the limsup over perturbation data is out of scope, so the weight is
    the minimum over the models actually supplied).
    """
    best = INF
    for model in models:
        if isinstance(model, tuple):
            alpha, linearization = model
            if target_family is not None and \
                    tuple(linearization) != tuple(target_family):
                raise TwistedError("model linearization does not match the "
                                   "target family")
        else:
            alpha = model
        up = retract_energy(alpha)[1]
        best = min(best, up)
    return best
