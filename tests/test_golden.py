"""Golden outputs of the torus geometry, the metric search, the depth
queries and the twisted layer: ``repro-lemma-ex1`` reports, a Floer table
(bigons, ranks, differentials and refusals) over fixed curve pools, a
metric table (lower, upper, witness and certificate of fixed metric
queries), ``metric`` reports and ``depth`` reports on fixed complexes (odd
denominators, negative actions), ``twisted-check`` reports on fixed dg
towers, a cone table (each stage K_i of fixed iterated cones) and a
retract table (``retract_energy`` of seeded maps), compared byte for byte
with the files in ``tests/golden/``.

Regenerate the files (only when a reported value is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import os
import random
from fractions import Fraction as F

from filtcones.cli import main
from filtcones.filtcx import FilteredComplex, FilteredMap
from filtcones.fragmetric import suspension_move, trace_move
from filtcones.novikov import INF, NovikovScalar
from filtcones.scenarios import (
    disjoint_union_space, lem_ex1_space, trace_surgery_space,
)
from filtcones.surface.curves import GeometryError, TorusCurve
from filtcones.surface.floer import enumerate_bigons, floer_complex, \
    hf_rank, mu2_triangles
from filtcones.twisted import build_iterated_cone, retract_energy
from filtcones.wfainf import Discrepancy, cone, lambda_map, yoneda_module

from support import (
    chain_category, random_chain_map, random_cycle_in, serialize_complex,
    strict_dg_category, strict_right_mult_hom,
)
from golden_runs import GOLDEN, runs
from test_fragmetric import LEM_QUERIES, LINE_X, TRACE_QUERIES
from test_segment_pairs import _floer_sanity_pool

TABLE = "floer-table.txt"
METRIC_TABLE = "metric-table.txt"
CONE_TABLE = "cone-table.txt"
RETRACT_TABLE = "retract-table.txt"
EPS, DELTA = F(1, 8), F(1, 256)


def cli_stdout(argv, code):
    """The report of one golden CLI run (``golden_runs.runs``), in
    process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = main(argv)
    assert got == code, out.getvalue()
    return out.getvalue()


def _pools():
    """The acceptance Floer-sanity curves and the curves of
    ``lem_ex1_space(1/8, 1/256)``, each with a pool-qualified label."""
    space = lem_ex1_space(F(1, 8), F(1, 256))
    return [[(f"sanity:{c.name}", c) for c in _floer_sanity_pool()],
            [(f"lem:{name}", c) for name, c in space.curves.items()]]


def _mu2_triple():
    """The transverse triple of ``test_mu2_triangle_count``."""
    y, x0, x1, depth = F(3, 4), F(-3, 4), F(-1, 4), F(5, 4)
    return (TorusCurve([(-1, 0), (1, 0)], name="A"),
            TorusCurve([(F(-1, 2), -1), (F(-1, 2), 1)], name="B"),
            TorusCurve([(-1, y), (x0, y), (x0, y - depth), (x1, y - depth),
                        (x1, y), (1, y)], name="C"))


def _pt(p):
    return f"({p[0]},{p[1]})"


def floer_table():
    lines = []
    pairs = [(x, y) for pool in _pools() for x in pool for y in pool
             if x is not y]
    for (la, a), (lb, b) in pairs:
        head = f"pair {la} {lb}"
        try:
            bigons = sorted((p, q, area)
                            for p, q, area, _ in enumerate_bigons(a, b))
            cx = floer_complex(a, b)
            rank = hf_rank(a, b)
        except GeometryError as exc:
            lines.append(f"{head}: GeometryError: {exc}")
            continue
        lines.append(f"{head}: rank {rank}, {len(bigons)} bigons")
        lines += [f"  bigon {_pt(p)} -> {_pt(q)} area {area}"
                  for p, q, area in bigons]
        lines += [f"  {row}" for row in serialize_complex(cx).splitlines()]
    tri = mu2_triangles(*_mu2_triple())
    lines.append(f"mu2 A B C: {len(tri)} products")
    for (y, x) in sorted(tri):
        for z, s in sorted(tri[(y, x)].items()):
            lines.append(f"  mu2({_pt(y)}, {_pt(x)}) -> {_pt(z)}: {s}")
    return "\n".join(lines) + "\n"


# Extra suspensions between the vertical lines S1..S4, one set per space,
# as the metric-search benchmark adds them; each leaves two lines unjoined.
LEM_PATTERNS = [(("S1", "S2"),), (("S1", "S2"), ("S3", "S4")),
                (("S2", "S3"),), (("S1", "S3"), ("S2", "S4"))]
TRACE_PATTERNS = [(("S1", "S2"),), (("S2", "S3"),), (("S3", "S4"),)]
LINES = sorted(LINE_X)


def _val(x):
    return "inf" if x >= INF else str(x)


def _apart(pattern):
    """The first two lines that no suspension of ``pattern`` joins."""
    comp = {s: {s} for s in LINES}
    for a, b in pattern:
        joined = comp[a] | comp[b]
        for s in joined:
            comp[s] = joined
    return next((a, b) for i, a in enumerate(LINES) for b in LINES[i + 1:]
                if b not in comp[a])


def _pattern_queries(kind, pattern):
    lp = "L'" if kind == "lem" else "L''"
    a, b = pattern[0]
    apart = _apart(pattern)
    out = [("d_k", (lp, "L", "F", k)) for k in range(5)]
    out += [("d_k", (a, b, "F", k)) for k in (0, 1)]
    out += [("d_k", (*apart, "F", 1))]
    out += [("cone_length", (lp, "L", "F", x))
            for x in (None, 2 * DELTA, DELTA, 4 * EPS)]
    out += [("d_f", (lp, "L", "F"))]
    if kind == "lem":
        out += [("d_hat", (lp, "L", "Fleft", "Fright"))]
    return out


def _pattern_space(kind, pattern):
    if kind == "lem":
        space = lem_ex1_space(EPS, DELTA)
    else:
        space = trace_surgery_space(EPS, DELTA)
        space.moves.append(trace_move("T1b", "L''", ("L", "S1"),
                                      [DELTA], [0]))
    for a, b in pattern:
        length = 2 * abs(LINE_X[a] - LINE_X[b])
        space.moves.append(suspension_move(f"s{a[1]}{b[1]}", a, b, length))
    return space


def metric_table():
    """(lower, upper, witness, certificate) of fixed metric queries."""
    groups = [("lem", lem_ex1_space(EPS, DELTA), LEM_QUERIES),
              ("trace", trace_surgery_space(EPS, DELTA), TRACE_QUERIES)]
    for kind, build, lp in (("lem", lem_ex1_space, "L'"),
                            ("trace", trace_surgery_space, "L''")):
        groups.append((f"{kind} top_end", build(EPS, DELTA),
                       [("d_k", (lp, "L", "F", k, True)) for k in range(7)]
                       + [("d_k", ("L", lp, "F", k, True))
                          for k in range(7)]))
    for kind, patterns in (("lem", LEM_PATTERNS), ("trace", TRACE_PATTERNS)):
        for pattern in patterns:
            label = f"{kind}+" + ",".join(a + b for a, b in pattern)
            groups.append((label, _pattern_space(kind, pattern),
                           _pattern_queries(kind, pattern)))
    groups.append(("disjoint", disjoint_union_space(EPS),
                   [("d_k", ("S1", "S2", "F", k)) for k in range(4)]
                   + [("d_k", ("S2", "S1", "F", k)) for k in range(4)]
                   + [("cone_length", ("S1", "S2", "F", None)),
                      ("d_f", ("S1", "S2", "F"))]))
    lines = []
    for label, space, queries in groups:
        for method, args in queries:
            r = getattr(space, method)(*args)
            shown = ", ".join("None" if x is None else str(x) for x in args)
            lines.append(f"{label} {method}({shown}): "
                         f"[{_val(r.lower)}, {_val(r.upper)}] "
                         f"via {r.witness} | {r.certificate}")
    return "\n".join(lines) + "\n"


def _chain_text(ch):
    return " + ".join(f"T^{e}*{h}" for h, s in sorted(ch.items())
                      for e in s.exps)


def _strict_tower(seed, nobj):
    """Stages K_0..K_r of a tower over ``strict_dg_category`` whose stage
    j attaches L_j by right multiplication with a random cycle of K_{j-1}."""
    rng = random.Random(seed)
    cat = strict_dg_category(nobj=nobj)
    stages = []

    def attach(j):
        def build(k):
            stages.append(k)
            return strict_right_mult_hom(cat, yoneda_module(cat, f"L{j}"), k,
                                         random_cycle_in(rng, k.value(f"L{j}")))
        return build

    objs = [f"L{j}" for j in range(nobj)]
    zero = Discrepancy.zero(cat.cap, "hom")
    stages.append(build_iterated_cone(
        cat, objs, [attach(j) for j in range(1, nobj)],
        [0] * (nobj - 1), [zero] * (nobj - 1))[0])
    return stages


def _chain_cones(weights=None):
    """Cone(yon L_j -> yon L_i) of ``chain_category`` along m_ji."""
    cat = chain_category(weights)
    out = []
    for j, i in ((1, 0), (2, 1), (2, 0)):
        m0 = yoneda_module(cat, f"L{j}")
        m1 = yoneda_module(cat, f"L{i}")
        g = f"m{j}{i}"
        out.append(cone(lambda_map(m1, f"L{j}",
                                   cat.hom(f"L{j}", f"L{i}").basis_chain(g))))
    return out


def cone_table():
    """Value complexes, sorted mu tables and measured discrepancy of each
    stage K_i of fixed iterated cones, and of single cones in
    ``chain_category``."""
    towers = [(f"strict seed {seed} nobj {nobj}", _strict_tower(seed, nobj))
              for seed, nobj in ((1, 2), (2, 3), (3, 3), (4, 4))]
    towers.append(("chain cones", _chain_cones()))
    # decreasing weights: mu_2 overshoots the summed input actions
    towers.append(("chain cones, weights -i^2/2",
                   _chain_cones({i: F(-i * i, 2) for i in range(4)})))
    lines = []
    for label, stages in towers:
        for i, k in enumerate(stages):
            lines.append(f"{label} K_{i}: objects {sorted(k.values)}")
            lines.append("  disc " + " ".join(map(str, k.disc.values)))
            lines.append("  measured " + " ".join(
                map(str, k.measured_discrepancy())))
            for x in sorted(k.values):
                lines.append(f"  value {x}")
                lines += [f"    {row}" for row in
                          serialize_complex(k.value(x)).splitlines()]
            for d in sorted(k.mu_tables):
                for gens, img in sorted(k.mu_tables[d].items()):
                    lines.append(f"  mu {d} ({','.join(gens)}) -> "
                                 f"{_chain_text(img)}")
    return "\n".join(lines) + "\n"


# (n, m) of the retract maps of one filtered-algebra benchmark round
RETRACT_SHAPES = [(2, 2), (3, 3), (4, 4), (2, 4), (3, 4), (4, 4)]


def _zero_diff_map(rng, n, m):
    """A full monomial matrix T^e, e in {0, 1/2, 1, 3/2}, between
    zero-differential complexes at actions in [-1, 1], as the benchmark
    draws them but without its rank filter, so singular maps occur."""
    def cx(p, k):
        gens = [f"{p}{i}" for i in range(k)]
        return FilteredComplex(gens, {g: F(rng.randint(-2, 2), 2)
                                      for g in gens}, {}, 64)
    C, D = cx("x", n), cx("y", m)
    mat = {g: {h: NovikovScalar([F(rng.randint(0, 3), 2)], 64)
               for h in D.generators} for g in C.generators}
    return FilteredMap(C, D, mat)


def _map_text(f):
    acts = lambda cx: " ".join(f"{g}@{cx.action[g]}" for g in cx.generators)
    lines = [f"  C {acts(f.domain)}", f"  D {acts(f.codomain)}"]
    lines += [f"  {p} d {g} = {_chain_text(cx.diff[g])}"
              for cx, p in ((f.domain, "C"), (f.codomain, "D"))
              for g in cx.generators if cx.diff[g]]
    lines += [f"  f {g} = {_chain_text(f.matrix[g]) or '0'}"
              for g in f.domain.generators]
    return lines


def _retract_cases():
    """The FOUND example of a least-action field left inverse that is no
    chain map, the series inverse scaled by T^-1, and x -> b into a -> b."""
    one = lambda e=0: NovikovScalar([F(e)], 64)
    C = FilteredComplex(["x"], {"x": 0}, {}, 64)
    D = FilteredComplex(["a", "b", "y"], {"a": 2, "b": 1, "y": 0},
                        {"a": {"b": one(1)}}, 64)
    found = FilteredMap(C, D, {"x": {"y": one(), "b": one()}})
    acts = {"x1": 0, "x2": 0, "y": 0}
    E = FilteredComplex(list(acts), acts, {"y": {"x1": one(1), "x2": one()}},
                        64)
    series = FilteredMap(E, E, {"x1": {"x1": one(-1), "x2": one(-1)},
                                "x2": {"x1": one(1), "x2": one(-1)},
                                "y": {"y": NovikovScalar([-1, 0], 64)}})
    B = FilteredComplex(["a", "b"], {"a": 1, "b": 0}, {"a": {"b": one()}}, 64)
    dead = FilteredMap(C, B, {"x": {"b": one()}})
    return [("found", found), ("series T^-1", series), ("x -> b", dead)]


def retract_table():
    """[lower, upper] of ``retract_energy`` on 40 seeded zero-differential
    maps of the benchmark's shapes, 40 seeded ``random_chain_map`` maps and
    three fixed cases, each after its map."""
    rng = random.Random(5)
    maps = []
    for i in range(40):
        n, m = RETRACT_SHAPES[i % len(RETRACT_SHAPES)]
        maps.append((f"zero-diff {i} {n}x{m}", _zero_diff_map(rng, n, m)))
    rng = random.Random(11)
    for i in range(40):
        f, ident = random_chain_map(rng, n=rng.randint(2, 4), qden=2)
        maps.append((f"chain map {i} {'id' if ident else 'zero'} base", f))
    maps += _retract_cases()
    lines = []
    for label, f in maps:
        lo, up = retract_energy(f)[:2]
        lines.append(f"{label}: [{_val(lo)}, {_val(up)}]")
        lines += _map_text(f)
    return "\n".join(lines) + "\n"


def _read(name):
    with open(os.path.join(GOLDEN, name)) as f:
        return f.read()


def _check_runs(command):
    for argv, report, code in runs():
        if argv[0] == command:
            assert cli_stdout(argv, code) == _read(report), report


def test_geometry_outputs_match_golden_files():
    _check_runs("repro-lemma-ex1")
    assert floer_table() == _read(TABLE)


def test_metric_outputs_match_golden_files():
    assert metric_table() == _read(METRIC_TABLE)
    _check_runs("metric")


def test_depth_outputs_match_golden_files():
    _check_runs("depth")


def test_twisted_outputs_match_golden_files():
    _check_runs("twisted-check")
    assert cone_table() == _read(CONE_TABLE)


def test_retract_energy_matches_golden_table():
    assert retract_table() == _read(RETRACT_TABLE)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    files = {report: cli_stdout(argv, code) for argv, report, code in runs()}
    files[TABLE] = floer_table()
    files[METRIC_TABLE] = metric_table()
    files[CONE_TABLE] = cone_table()
    files[RETRACT_TABLE] = retract_table()
    for name, text in files.items():
        with open(os.path.join(GOLDEN, name), "w") as f:
            f.write(text)
        print(f"wrote {os.path.join(GOLDEN, name)}")
