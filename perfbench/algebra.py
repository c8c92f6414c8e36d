"""Seeded filtered complexes and dg towers, with their own exact oracles.

Scalars of the Novikov field over F2 are kept as frozensets of Fraction
exponents (a power is present or absent), chains as dicts generator ->
scalar.  None of this imports filtcones: the generated inputs reach the
program only as text, and the expected answers come from the structure
the generator chose or from a plain F2 window solve.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Dict, FrozenSet, List, Sequence, Tuple

Scalar = FrozenSet[Fraction]
Chain = Dict[str, Scalar]

ONE: Scalar = frozenset({Fraction(0)})


def mono(e) -> Scalar:
    return frozenset({Fraction(e)})


def s_mul(a: Scalar, b: Scalar) -> Scalar:
    acc = set()
    for x in a:
        for y in b:
            acc ^= {x + y}
    return frozenset(acc)


def c_add(x: Chain, y: Chain) -> Chain:
    out = dict(x)
    for g, s in y.items():
        t = out.get(g, frozenset()) ^ s
        if t:
            out[g] = t
        else:
            out.pop(g, None)
    return out


def c_scale(s: Scalar, x: Chain) -> Chain:
    out = {}
    for g, t in x.items():
        u = s_mul(s, t)
        if u:
            out[g] = u
    return out


def c_apply(matrix: Dict[str, Chain], x: Chain) -> Chain:
    """Apply a linear map given by its columns (generator -> image chain)."""
    out: Chain = {}
    for g, s in x.items():
        out = c_add(out, c_scale(s, matrix.get(g, {})))
    return out


def action_of(x: Chain, action: Dict[str, Fraction]):
    """A(sum l_j e_j) = max(A(e_j) - v(l_j)); None for the zero chain."""
    if not x:
        return None
    return max(action[g] - min(s) for g, s in x.items())


def chain_text(x: Chain) -> str:
    terms = [f"T^{e}*{g}" for g in sorted(x) for e in sorted(x[g])]
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# random filtered complexes with known boundary levels
# ---------------------------------------------------------------------------

class GeneratedComplex:
    """A direct sum of bars b -> T^e x, conjugated by P = id + N.

    N is strictly triangular and action-nonincreasing, so P is a filtered
    isometry and the conjugated differential d' = P d P^-1 keeps every
    invariant of the bar complex.  N sends bar targets only to bar targets
    and unpaired generators only to targets or unpaired generators, so the
    generators of both kinds stay d'-cycles; the targets are boundaries
    and the unpaired ones are not.
    """

    def __init__(self, gens, action, diff, bars, unpaired, p_cols, pinv_cols):
        self.gens: List[str] = gens
        self.action: Dict[str, Fraction] = action
        self.diff: Dict[str, Chain] = diff          # d' by columns
        self.bars: Dict[str, Tuple[str, Fraction]] = bars  # target -> (source, e)
        self.unpaired: List[str] = unpaired
        self.p_cols = p_cols
        self.pinv_cols = pinv_cols

    @property
    def targets(self) -> List[str]:
        return sorted(self.bars)

    def text(self) -> str:
        lines = [f"gen {g} action {self.action[g]}" for g in self.gens]
        for g in self.gens:
            if self.diff[g]:
                lines.append(f"d {g} = {chain_text(self.diff[g])}")
        return "\n".join(lines) + "\n"

    def exponents(self):
        return [e for g in self.gens for s in self.diff[g].values() for e in s]

    def primitive(self, x: str) -> Chain:
        """A chain b with d' b = e_x, of least action (x a bar target)."""
        coeffs = self.pinv_cols[x]          # P^-1 e_x, supported on targets
        bar_prim: Chain = {}
        for t, lam in coeffs.items():
            src, e = self.bars[t]
            bar_prim = c_add(bar_prim, {src: s_mul(lam, mono(-e))})
        return c_apply(self.p_cols, bar_prim)

    def boundary_level(self, x: str):
        """B(e_x): the action of the least primitive, or 'inf'."""
        if x in self.unpaired:
            return "inf"
        return action_of(self.primitive(x), self.action)

    def delta_d(self):
        """Least action drop over the bars, 'inf' without bars."""
        drops = [self.action[src] - (self.action[t] - e)
                 for t, (src, e) in self.bars.items()]
        return min(drops) if drops else "inf"

    def verify(self):
        """d'^2 = 0 and d' never raises action, in our own arithmetic."""
        for g in self.gens:
            dg = self.diff[g]
            if c_apply(self.diff, dg):
                raise AssertionError(f"d^2 != 0 at {g}")
            a = action_of(dg, self.action)
            if a is not None and a > self.action[g]:
                raise AssertionError(f"action rises along d({g})")


def _nilpotent_inverse(nilp: Dict[str, Chain], gens: Sequence[str]):
    """Columns of P = id + N and of P^-1 = id + N + N^2 + ... (char 2)."""
    p_cols, pinv_cols = {}, {}
    for g in gens:
        p_cols[g] = c_add({g: ONE}, nilp.get(g, {}))
        col: Chain = {g: ONE}
        term: Chain = {g: ONE}
        while True:
            term = c_apply(nilp, term)
            if not term:
                break
            col = c_add(col, term)
        pinv_cols[g] = col
    return p_cols, pinv_cols


def random_complex(rng: random.Random, n: int, q: int) -> GeneratedComplex:
    gens = [f"g{i}" for i in range(n)]
    action = {g: Fraction(rng.randint(0, 2 * q), q) for g in gens}
    perm = gens[:]
    rng.shuffle(perm)
    bars: Dict[str, Tuple[str, Fraction]] = {}
    unpaired: List[str] = []
    i = 0
    while i < n:
        if i + 1 < n and rng.random() < 0.7:
            b, x = perm[i], perm[i + 1]
            drop = Fraction(rng.randint(0, 2 * q), q)
            e = action[x] - action[b] + drop
            if e < 0:
                action[x] = action[b]
                e = drop
            bars[x] = (b, e)
            i += 2
        else:
            unpaired.append(perm[i])
            i += 1
    targets = set(bars)
    cycles = targets | set(unpaired)
    order = gens[:]
    rng.shuffle(order)
    nilp: Dict[str, Chain] = {}
    for k, g in enumerate(order):
        for h in order[k + 1:]:
            if g in targets and h not in targets:
                continue
            if g in unpaired and h not in cycles:
                continue
            if rng.random() < 0.4:
                e = action[h] - action[g] + Fraction(rng.randint(0, q), q)
                if e > 0:
                    nilp.setdefault(g, {})[h] = mono(e)
    p_cols, pinv_cols = _nilpotent_inverse(nilp, gens)
    bar_d = {g: {} for g in gens}
    for x, (b, e) in bars.items():
        bar_d[b] = {x: mono(e)}
    diff = {}
    for g in gens:
        diff[g] = c_apply(p_cols, c_apply(bar_d, pinv_cols[g]))
    cx = GeneratedComplex(gens, action, diff, bars, unpaired, p_cols, pinv_cols)
    cx.verify()
    return cx


# ---------------------------------------------------------------------------
# F2 window-solve oracle for boundary levels
# ---------------------------------------------------------------------------

def _solvable(rows: Dict[Tuple[str, Fraction], int], rhs_keys) -> bool:
    """Is the F2 system {sum of the row's variables = [key in rhs]}
    consistent?  Rows are bitmasks over the variables; the right-hand side
    rides along as one extra high bit."""
    if any(key not in rows for key in rhs_keys):
        return False
    nvars = max((row.bit_length() for row in rows.values()), default=0)
    flag = 1 << nvars
    mask = flag - 1
    pivots: Dict[int, int] = {}
    for key, row in rows.items():
        v = row | (flag if key in rhs_keys else 0)
        while v & mask:
            top = (v & mask).bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = v
                v = 0
                break
            v ^= p
        if v:
            return False
    return True


def boundary_decision(cx: GeneratedComplex, x: str, alpha: Fraction,
                      top: Fraction) -> bool:
    """Is e_x = d' b solvable with A(b) <= alpha, using only monomials
    T^s e_g with s <= top?  A plain F2 solve on that window."""
    q = 1
    for g in cx.gens:
        q = lcm(q, cx.action[g].denominator)
    for e in cx.exponents():
        q = lcm(q, e.denominator)
    q = lcm(q, alpha.denominator, top.denominator)
    step = Fraction(1, q)
    rows: Dict[Tuple[str, Fraction], int] = {}
    var = 0
    for g in cx.gens:
        s = cx.action[g] - alpha
        while s <= top:
            bit = 1 << var
            for h, scal in cx.diff[g].items():
                for e in scal:
                    key = (h, s + e)
                    rows[key] = rows.get(key, 0) ^ bit
            var += 1
            s += step
    return _solvable(rows, {(x, Fraction(0))})


def oracle_boundary_level_check(cx: GeneratedComplex, x: str, claimed) -> bool:
    """True iff the window solve confirms ``claimed`` = B(e_x).

    For a finite claim: solvable at the claim, not solvable one grid step
    below it.  For 'inf': not solvable at a level above every action the
    window can reach.
    """
    prim = cx.primitive(x) if x not in cx.unpaired else {}
    exps = [e for s in prim.values() for e in s] + cx.exponents() + [Fraction(0)]
    top = max(exps) + 1
    if claimed == "inf":
        alpha = max(cx.action.values()) + top + 1
        return not boundary_decision(cx, x, alpha, top)
    if not isinstance(claimed, Fraction):
        return False
    q = 1
    for g in cx.gens:
        q = lcm(q, cx.action[g].denominator)
    for e in cx.exponents():
        q = lcm(q, e.denominator)
    below = claimed - Fraction(1, lcm(q, claimed.denominator))
    return (boundary_decision(cx, x, claimed, top)
            and not boundary_decision(cx, x, below, top))


# ---------------------------------------------------------------------------
# dg towers with Maurer-Cartan data, as twisted-check spec text
# ---------------------------------------------------------------------------

def tower_spec(rng: random.Random, r: int) -> Tuple[str, int]:
    """A strictly unital dg category on X, L0..Lr and connecting cycles
    c_{q,p} solving the Maurer-Cartan equation, plus attaching maps.

    hom(A, B) for A != B has generators u_AB and e_AB with
    d e_AB = T^sigma u_AB; u*u = u, u*e = e*u = e, e*e = 0.  With action
    potentials w_0 <= w_1 <= ..., c_{q,p} = T^(w_q - w_p) u_qp plus, when
    q - p - 1 is odd, T^(w_q - w_p - sigma) e_qp; this solves
    d c_qp = sum_k c_qk * c_kp exactly (checked below in our own
    arithmetic).  The attaching map of stage j is right multiplication by
    sum_i c_{j,i}.  Returns (spec text, r).
    """
    sigma = Fraction(rng.randint(1, 4), 2)
    w = [Fraction(0)]
    for _ in range(r):
        w.append(w[-1] + sigma + Fraction(rng.randint(0, 4), 2))
    objs = ["X"] + [f"L{i}" for i in range(r + 1)]
    arrows = [("X", f"L{i}") for i in range(r + 1)]
    arrows += [(f"L{j}", f"L{i}") for j in range(r + 1) for i in range(j)]

    def nm(a, b):
        return a.replace("L", "") if a != "X" else "X", b.replace("L", "")

    u_name, e_name = {}, {}
    for a, b in arrows:
        x, y = nm(a, b)
        u_name[(a, b)] = f"u{x}_{y}"
        e_name[(a, b)] = f"e{x}_{y}"
    lines = ["objects " + " ".join(f"L{i}" for i in range(r + 1))]
    lines += [f"object {o}" for o in objs]
    for a, b in arrows:
        u, e = u_name[(a, b)], e_name[(a, b)]
        lines.append(f"hom {a} {b}: gen {u} action 0 ; gen {e} action 0")
        lines.append(f"d {e} = T^{sigma}*{u}")
    # composition a -> b -> c for arrows (a, b), (b, c)
    prod: Dict[Tuple[str, str], Chain] = {}
    for a, b in arrows:
        for b2, c in arrows:
            if b2 != b or (a, c) not in u_name:
                continue
            uab, eab = u_name[(a, b)], e_name[(a, b)]
            ubc, ebc = u_name[(b, c)], e_name[(b, c)]
            uac, eac = u_name[(a, c)], e_name[(a, c)]
            prod[(uab, ubc)] = {uac: ONE}
            prod[(eab, ubc)] = {eac: ONE}
            prod[(uab, ebc)] = {eac: ONE}
    for (g1, g2), img in sorted(prod.items()):
        lines.append(f"mu 2 ({g1},{g2}) -> {chain_text(img)}")

    def c(qq, pp) -> Chain:
        a, b = f"L{qq}", f"L{pp}"
        out = {u_name[(a, b)]: mono(w[qq] - w[pp])}
        if (qq - pp - 1) % 2 == 1:
            out[e_name[(a, b)]] = mono(w[qq] - w[pp] - sigma)
        return out

    dmap = {e_name[k]: {u_name[k]: mono(sigma)} for k in arrows}

    def mu2(x: Chain, y: Chain) -> Chain:
        out: Chain = {}
        for g1, s1 in x.items():
            for g2, s2 in y.items():
                img = prod.get((g1, g2))
                if img:
                    out = c_add(out, c_scale(s_mul(s1, s2), img))
        return out

    for qq in range(1, r + 1):
        for pp in range(qq):
            lhs = c_apply(dmap, c(qq, pp))
            rhs: Chain = {}
            for k in range(pp + 1, qq):
                rhs = c_add(rhs, mu2(c(qq, k), c(k, pp)))
            if c_add(lhs, rhs):
                raise AssertionError(f"Maurer-Cartan fails at ({qq},{pp})")
            lines.append(f"c {qq} {pp} -> {chain_text(c(qq, pp))}")
    for j in range(1, r + 1):
        src = f"L{j}"
        for a, b in arrows:
            if b != src:
                continue
            for g in (u_name[(a, b)], e_name[(a, b)]):
                img: Chain = {}
                for i in range(j):
                    img = c_add(img, mu2({g: ONE}, c(j, i)))
                if img:
                    lines.append(f"phi {j} ({g}) -> {chain_text(img)}")
    return "\n".join(lines) + "\n", r
