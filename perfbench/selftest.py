"""Self-tests of the output checkers on hand-computed cases.

    python3 perfbench/selftest.py

``run.py`` runs these before every benchmark run; they take milliseconds
and import nothing from filtcones.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction as F

from algebra import (GeneratedComplex, ONE, mono, oracle_boundary_level_check,
                     random_complex, tower_spec)
from checks import (check_torus_report, parse_value, rect_union_area, refused,
                    suspension_rects, torus_expected, trace_rects,
                    witness_shadow_range)
from quantile import beta_cdf, hd_quantile


def two_generator_complex() -> GeneratedComplex:
    """gen a action 1, gen b action 0, d a = T^1*b: B(b) = A(T^-1 a) = 2."""
    gens = ["a", "b"]
    ident = {g: {g: ONE} for g in gens}
    return GeneratedComplex(
        gens, {"a": F(1), "b": F(0)}, {"a": {"b": mono(1)}, "b": {}},
        bars={"b": ("a", F(1))}, unpaired=[], p_cols=ident, pinv_cols=ident)


def fake_torus_report(eps, delta, override=None):
    vals = dict(torus_expected(eps, delta))
    vals["d_4(L',L) upper"] = 2 * delta
    vals.update(override or {})
    return "\n".join(f"{q} | {v} (~{float(v):.6g}) | - | pass"
                     for q, v in vals.items())


def run_all():
    cx = two_generator_complex()
    cx.verify()
    assert cx.boundary_level("b") == 2
    assert oracle_boundary_level_check(cx, "b", F(2))
    assert not oracle_boundary_level_check(cx, "b", F(3, 2))
    assert not oracle_boundary_level_check(cx, "b", "inf")

    delta = F(1, 256)
    assert rect_union_area(trace_rects([delta] * 4, [0, 0, 1, 1])) == 2 * delta
    assert rect_union_area([(0, 0, F(7, 3), F(3, 7))]) == 1
    assert rect_union_area([(0, 0, 2, 2), (1, 1, 3, 3)]) == 7
    assert rect_union_area(suspension_rects(F(1, 2))) == F(1, 2)
    shadows = {"phi": F(1, 2), "T4": F(1, 128)}
    assert witness_shadow_range("phi+T4", shadows) == (F(1, 2), F(65, 128))
    assert witness_shadow_range("identity", shadows) == (0, 0)
    assert witness_shadow_range("s12", shadows) is None

    assert parse_value("129/256 (~0.503906)") == F(129, 256)
    assert parse_value("inf") == "inf" and parse_value("-") is None
    assert refused("", "error: --cutoff 1/2 drops T^1*b\n")
    assert refused("error: --cutoff 1/2 drops T^1*b\n", "")
    assert refused("B b | - | - | error: term dropped\n", "")
    assert not refused("B b | inf | - | ok\n", "")
    assert not refused("", "warning: error: in a later word\n")
    eps = F(1, 8)
    assert check_torus_report(fake_torus_report(eps, delta), eps, delta) is None
    wrong = fake_torus_report(eps, delta, {"d_1(L'',L) upper": 2 * delta})
    assert check_torus_report(wrong, eps, delta) is not None
    wrong = fake_torus_report(eps, delta, {"d_4(L',L) upper": 3 * delta})
    assert check_torus_report(wrong, eps, delta) is not None

    # I_0.3(2, 5) = 1 - 0.7^6 - 6 * 0.3 * 0.7^5 = 0.579825
    assert abs(beta_cdf(0.3, 2, 5) - 0.579825) < 1e-9
    assert abs(hd_quantile(range(1, 11), 0.5) - 5.5) < 1e-9
    assert hd_quantile([3.0], 0.9) == 3.0

    # generated inputs satisfy their own invariants (both raise otherwise)
    rng = random.Random(7)
    for n, q in ((4, 2), (6, 6), (5, 30)):
        gen = random_complex(rng, n, q)
        for x in gen.targets:
            assert oracle_boundary_level_check(gen, x, gen.boundary_level(x))
    for r in (1, 2, 3, 4):
        tower_spec(rng, r)


if __name__ == "__main__":
    run_all()
    print("selftest: all checker cases pass")
    sys.exit(0)
