import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from filtcones.cli import parse_scenario
from filtcones.novikov import INF
from filtcones.fragmetric import (
    FragError, LagObject, MetricSpace, suspension_move, trace_move,
)
from filtcones.scenarios import (
    base_curves, disjoint_union_space, four_surgery_curve, lem_ex1_space,
    trace_surgery_space,
)
from filtcones.surface.curves import TorusCurve
from filtcones.surface.shadow import PlanarDiagram, planar_shadow

from support import (
    ref_least_lower_bound, ref_lower_bounds, ref_metric_uppers,
    ref_probe_verify,
)

EPS, DELTA = F(1, 8), F(1, 256)


@pytest.fixture(scope="module")
def space():
    return lem_ex1_space(EPS, DELTA)


@pytest.fixture(scope="module")
def tspace():
    return trace_surgery_space(EPS, DELTA)


# -- metric queries ------------------------------------------------------------

def test_d0_exact(space):
    r = space.d_k("L'", "L", "F", 0)
    assert r.lower == r.upper == 4 * EPS


def test_d4_upper(space):
    r = space.d_k("L'", "L", "F", 4)
    assert r.upper == 2 * DELTA
    assert r.lower == 0


def test_dk_nonincreasing_in_k(space):
    uppers = [space.d_k("L'", "L", "F", k).upper for k in range(5)]
    lowers = [space.d_k("L'", "L", "F", k).lower for k in range(5)]
    assert all(a >= b for a, b in zip(uppers, uppers[1:]))
    assert all(a >= b for a, b in zip(lowers, lowers[1:]))


@pytest.mark.parametrize("build, lp", [(lem_ex1_space, "L'"),
                                       (trace_surgery_space, "L''")])
def test_d_k_past_the_last_end_count_reads_that_count(monkeypatch, build, lp):
    """lower_k is constant from K = |F| + #probes on, so d_k at k = 10**6
    is d_k at K, byte for byte, after as many certified bounds; a negative
    k is refused by name."""
    sp = build(EPS, DELTA)
    certify, calls = sp._certify, []
    monkeypatch.setattr(sp, "_certify",
                        lambda *a: calls.append(a) or certify(*a))
    last = len(set(sp.families["F"])) + len(sp.probes)
    got = []
    for k in (last, 10 ** 6):
        r = sp.d_k(lp, "L", "F", k)
        got.append((repr(r), r.certificate, len(calls)))
        calls.clear()
    assert got[0] == got[1]
    with pytest.raises(FragError, match=r"d_k needs an end count k >= 0, "
                       r"got -1"):
        sp.d_k(lp, "L", "F", -1)


def test_cone_lengths(space):
    assert space.cone_length("L'", "L", "F", None).upper == 0
    r = space.cone_length("L'", "L", "F", 2 * DELTA)
    assert r.lower == r.upper == 4
    # a below every generator shadow with distinct objects: infinite
    r2 = space.cone_length("S1", "S2", "F", F(1, 10 ** 9))
    assert r2.upper >= INF


def test_la_nonincreasing_in_a(space):
    l1 = space.cone_length("L'", "L", "F", 2 * DELTA).upper
    l2 = space.cone_length("L'", "L", "F", 4 * EPS).upper
    l3 = space.cone_length("L'", "L", "F", None).upper
    assert l1 >= l2 >= l3


def test_duality_inequalities(space):
    # d_{l_a} <= a and l_{d_k} <= k on the torus data
    a = 2 * DELTA
    la = space.cone_length("L'", "L", "F", a).upper
    assert space.d_k("L'", "L", "F", la).upper <= a
    for k in (0, 4):
        dk = space.d_k("L'", "L", "F", k).upper
        assert space.cone_length("L'", "L", "F", dk).upper <= k


def test_symmetry_of_dk(space):
    for k in (0, 4):
        r1 = space.d_k("L'", "L", "F", k)
        r2 = space.d_k("L", "L'", "F", k)
        assert r1.upper == r2.upper
        assert r1.lower == r2.lower


def test_witness_shadow_recomputed(space):
    # the declared shadow of every move matches its measured footprint
    for mv in space.moves:
        from filtcones.surface.shadow import planar_shadow
        assert planar_shadow(mv.footprint) == mv.shadow


def test_d1_trace_surgery(tspace):
    r = tspace.d_k("L''", "L", "F", 1)
    assert r.lower == r.upper == DELTA
    assert "probe" in r.certificate
    # the probe certificate survives bending: same value both ways
    r2 = tspace.d_k("L", "L''", "F", 1)
    assert r2.lower == r2.upper == DELTA


def test_probe_verification_is_exact(tspace):
    probe = tspace.probes[0]
    assert probe.verify(tspace)
    # a probe claiming more than the handle area must fail verification
    import copy
    bad = copy.copy(probe)
    bad.claimed_sup = DELTA / 2  # samples exceed the claimed sup
    assert not bad.verify(tspace)


def _mirrored(build):
    """N_t reflected in the x axis: its notch runs round the quadrant
    opposite the surgery corner, so it meets the source curve L'' three
    times, as often as its Floer ranks against L and S1 add up to."""
    def mirrored(t):
        n_t = build(t)
        return TorusCurve([(x, -y) for x, y in n_t.vertices + [n_t.closure]])
    return mirrored


# eps = 1/m, delta = 1/n across the ranges of the metric-search benchmark
# (m in 8..16, 2m^2 < n <= 2m^2 + 4000)
@pytest.mark.parametrize("m, n", [(8, 129), (9, 1000), (11, 4242), (12, 2900),
                                  (13, 400), (16, 4512)])
def test_probe_verification_matches_the_all_pairs_oracle(m, n):
    import copy
    sp = trace_surgery_space(F(1, m), F(1, n))
    corner = sp.probes[0]
    assert corner.verify(sp) is ref_probe_verify(corner, sp) is True
    mutants = {"claimed_sup": corner.profile(corner.samples[-1]),
               "profile": lambda t: corner.profile(t) / 2,
               "build": _mirrored(corner.build)}
    for attr, val in mutants.items():
        bad = copy.copy(corner)
        setattr(bad, attr, val)
        assert bad.verify(sp) is ref_probe_verify(bad, sp) is False, attr


def test_disjoint_union_vanishing():
    sp = disjoint_union_space(EPS)
    r = sp.d_k("S1", "S2", "F", 3)
    assert r.lower == r.upper == 0
    # with two-element families the pseudo-metric degenerates, but the
    # same pair at k = 0 keeps a positive lower bound
    r0 = sp.d_k("S1", "S2", "F", 0)
    assert r0.lower > 0


def test_contradiction_detector():
    curves = base_curves(EPS)
    lp, _ = four_surgery_curve(curves, EPS, DELTA)
    curves["L'"] = lp
    objects = [
        LagObject("L", ["L"]),
        LagObject("S1", ["S1"]), LagObject("S2", ["S2"]),
        LagObject("S3", ["S3"]), LagObject("S4", ["S4"]),
        LagObject("L'", carrier=["S1", "S2", "S3", "S4"],
                  cover=["L", "S1", "S2", "S3", "S4"], geometry="L'"),
    ]
    # a suspension cheaper than the certified lower bound must trip the
    # consistency check
    moves = [suspension_move("bogus", "L", "L'", EPS)]
    sp = MetricSpace(curves, objects, {"F": ["S1", "S2", "S3", "S4"]}, moves)
    with pytest.raises(FragError):
        sp.d_k("L'", "L", "F", 0)


def test_monotone_mode_caps_bound(space):
    val = space.d_k("L'", "L", "F", 0).lower
    assert val == 4 * EPS
    capped = MetricSpace(space.curves, space.objects.values(), space.families,
                         space.moves, space.probes, monotone_min_area=F(1, 100))
    assert capped.d_k("L'", "L", "F", 0).lower == F(1, 100)


def check_triangle(space, family, triples, ks) -> bool:
    """d_{k+k'}(L,L'') <= d_k(L,L') + d_{k'}(L',L'') on computed uppers."""
    for (a, b, c) in triples:
        for (k1, k2) in ks:
            r_ab = space.d_k(a, b, family, k1)
            r_bc = space.d_k(b, c, family, k2)
            r_ac = space.d_k(a, c, family, k1 + k2)
            if r_ab.upper >= INF or r_bc.upper >= INF:
                continue
            if r_ac.upper > r_ab.upper + r_bc.upper:
                return False
    return True


def triangles_f(space, family, objects):
    """(checked, crossed): the ordered triples (a, b, c) of distinct
    objects with finite d_F(a, b) and d_F(b, c) uppers, and those of them
    whose d_F(a, c) upper exceeds the sum."""
    upper = {(a, b): space.d_f(a, b, family).upper
             for a, b in itertools.permutations(objects, 2)}
    checked = [(a, b, c) for a, b, c in itertools.permutations(objects, 3)
               if upper[a, b] < INF and upper[b, c] < INF]
    crossed = [(a, b, c) for a, b, c in checked
               if upper[a, c] > upper[a, b] + upper[b, c]]
    return checked, crossed


def quasi_isometry_check(space, fam1, fam2, pairs, hofer_length) -> bool:
    """|d_hat(L,L') - d_hat(phi L, phi L')| <= 2 ||phi||_H on upper bounds."""
    for (a, b, fa, fb) in pairs:
        r1 = space.d_hat(a, b, fam1, fam2)
        r2 = space.d_hat(fa, fb, fam1, fam2)
        if r1.upper >= INF or r2.upper >= INF:
            continue
        if abs(r1.upper - r2.upper) > 2 * F(hofer_length):
            return False
    return True


def test_triangle_inequality(space):
    assert check_triangle(space, "F",
                          [("L'", "L", "L"), ("L'", "L'", "L")],
                          [(0, 0), (4, 0), (0, 4)])
    # d_F on triples of distinct objects, with S1 joined to S2 and S3 to S4
    from test_golden import _pattern_space  # it imports this module
    joined = _pattern_space("lem", (("S1", "S2"), ("S3", "S4")))
    joined.families["G"] = ["S2", "S3", "S4", "L"]
    checked, crossed = triangles_f(joined, "G", list(joined.objects))
    assert len(checked) == 120
    assert crossed == []


@pytest.mark.xfail(strict=True, reason="the search uses each declared move "
                   "at most once, so it cannot glue two expressions that "
                   "share a move")
def test_d_f_uppers_glue_expressions_that_share_a_move():
    # d_F(L, S1) and d_F(S1, S2) are 65/128, both via T4+phi, but the
    # glued expression from L to S2 would use T4 and phi twice
    sp = lem_ex1_space(EPS, DELTA)
    sp.families["G"] = ["S2", "S3", "S4", "L"]
    checked, crossed = triangles_f(sp, "G", list(sp.objects))
    assert checked and crossed == []


def test_quasi_isometry_check(space):
    # phi = identity transport: h = 0 forces equality, h > 0 is slack
    pairs = [("L'", "L", "L'", "L")]
    assert quasi_isometry_check(space, "F", "F", pairs, 0)
    assert quasi_isometry_check(space, "F", "F", pairs, F(1, 2))


def test_dhat_basics(space):
    r = space.d_hat("L'", "L", "F", "F")
    r_single = space.d_f("L'", "L", "F")
    assert r.upper == r_single.upper
    same = space.d_hat("L", "L", "F", "F")
    assert same.lower == same.upper == 0


# -- d_F, d-hat and l_a over every end count --------------------------------------

def _eight_line_space():
    """A carried by eight vertical lines V_i at x_i = -1 + i/4, B at
    x = -7/8 and the family W_i at x_i + 1/64.  The width bound of an end
    set reaches its least value, 7/32, only with every W_i in it, and one
    trace move A -> (B, W0, .., W7) of shadow 15/64 witnesses d_8."""
    xs = [-1 + F(i, 4) for i in range(8)]
    at = {f"V{i}": x for i, x in enumerate(xs)}
    at.update({f"W{i}": x + F(1, 64) for i, x in enumerate(xs)}, B=F(-7, 8))
    curves = {n: TorusCurve([(x, -1), (x, 1)], name=n) for n, x in at.items()}
    family = [f"W{i}" for i in range(8)]
    objects = [LagObject("A", [f"V{i}" for i in range(8)]),
               LagObject("B", ["B"])] + [LagObject(w, [w]) for w in family]
    move = trace_move("T", "A", ("B", *family), [F(15, 64)], [0])
    return MetricSpace(curves, objects, {"F": family}, [move])


def test_d_f_bounds_every_end_count_from_below():
    sp = _eight_line_space()
    assert sp.d_k("A", "B", "F", 6).lower == sp.d_k("A", "B", "F", 7).lower \
        == F(1, 4)
    d8 = sp.d_k("A", "B", "F", 8)
    assert (d8.lower, d8.upper) == (F(7, 32), F(15, 64))
    r = sp.d_f("A", "B", "F")
    assert (r.lower, r.upper, r.witness) == (F(7, 32), F(15, 64), "T")
    assert r.certificate == "width(B;A+W0+W1+W2+W3+W4+W5+W6+W7)/2"
    r = sp.d_hat("A", "B", "F", "F")
    assert (r.lower, r.upper, r.witness) == (F(7, 32), F(15, 64), ("T", "T"))


def test_cone_length_bounds_every_end_count():
    sp = _eight_line_space()
    assert _outcome(sp.cone_length("A", "B", "F", F(15, 64))) == \
        (8, 8, "T", "pruned below")
    # no witness below 15/64; the width bound of all eight ends is 7/32
    assert _outcome(sp.cone_length("A", "B", "F", F(7, 32))) == \
        (8, INF, None, "exhausted")
    # below 7/32 every end count is pruned: l_a is infinite
    assert _outcome(sp.cone_length("A", "B", "F", F(1, 5))) == (
        INF, INF, None,
        "pruned at every end count: width(B;A+W0+W1+W2+W3+W4+W5+W6+W7)/2")


def _seven_handle_space(area):
    """phi: N -> L of length 1, and a trace move N -> (L, S1 x 7) with
    seven handles of ``area`` in separate columns."""
    moves = [suspension_move("phi", "N", "L", 1),
             trace_move("T7", "N", ("L",) + ("S1",) * 7, [area] * 7,
                        list(range(7)))]
    objects = [LagObject(n, [n]) for n in ("N", "L", "S1")]
    return MetricSpace(base_curves(EPS), objects, {"F": ["S1"]}, moves)


def test_d_f_and_d_hat_read_the_least_shadow_of_any_end_count():
    sp = _seven_handle_space(F(1, 10))
    r = sp.d_f("N", "L", "F")
    assert (r.lower, r.upper, r.witness) == (F(1, 2), F(7, 10), "T7")
    r = sp.d_hat("N", "L", "F", "F")
    assert (r.lower, r.upper, r.witness) == (F(1, 2), F(7, 10), ("T7", "T7"))


def test_d_f_and_d_hat_refuse_an_inconsistency_past_six_ends():
    sp = _seven_handle_space(F(1, 1000))
    for query in (lambda: sp.d_f("N", "L", "F"),
                  lambda: sp.d_hat("N", "L", "F", "F")):
        with pytest.raises(FragError, match="certified lower bound 1/2 "
                           "exceeds witnessed upper 7/1000: inconsistent "
                           "declarations"):
            query()


def test_d_f_and_l_a_verify_no_probe():
    sp = trace_surgery_space(EPS, DELTA)
    probe = _counted_probe(sp.probes[0])
    sp.probes = [probe]
    r = sp.d_f("L''", "L", "F")
    assert (r.lower, r.upper, r.witness) == (0, DELTA, "T1")
    assert sp.d_hat("L''", "L", "F", "F").upper == DELTA
    assert _outcome(sp.cone_length("L''", "L", "F", DELTA)) == \
        (1, 1, "T1", "pruned below")
    assert probe.builds == 0
    assert sp.d_k("L''", "L", "F", 1).certificate == "probe corner"
    assert probe.builds == len(probe.samples)


@pytest.mark.parametrize("kind", ["lem", "trace"])
def test_d_f_lower_bound_matches_every_end_count_by_brute_force(kind):
    # the pattern spaces of the golden metric table
    from test_golden import (  # it imports this module
        LEM_PATTERNS, TRACE_PATTERNS, _apart, _pattern_space)
    lp = "L'" if kind == "lem" else "L''"
    for pattern in LEM_PATTERNS if kind == "lem" else TRACE_PATTERNS:
        space = _pattern_space(kind, pattern)
        pairs = [(lp, "L"), ("L", lp), _apart(pattern)]
        pairs += [p for a, b in pattern for p in ((a, b), (b, a))]
        for family in space.families:
            for a, b in pairs:
                assert space.d_f(a, b, family).lower == ref_least_lower_bound(
                    space, a, b, family)[0], (pattern, family, a, b)


# -- per-space memoization -------------------------------------------------------

def _outcome(r):
    return (r.lower, r.upper, r.witness, r.certificate)


LEM_QUERIES = [("d_k", ("L'", "L", "F", k)) for k in range(7)] + [
    ("cone_length", ("L'", "L", "F", None)),
    ("cone_length", ("L'", "L", "F", 2 * DELTA)),
    ("d_f", ("L'", "L", "F")),
    ("d_hat", ("L'", "L", "Fleft", "Fright")),
]
TRACE_QUERIES = [("d_k", ("L''", "L", "F", k)) for k in range(7)] + [
    ("cone_length", ("L''", "L", "F", None)),
    ("cone_length", ("L''", "L", "F", DELTA)),
    ("d_f", ("L''", "L", "F")),
    ("d_hat", ("L''", "L", "F", "F")),
]


@pytest.mark.parametrize("build, queries", [
    (lem_ex1_space, LEM_QUERIES), (trace_surgery_space, TRACE_QUERIES)])
def test_warm_space_answers_like_fresh_space(build, queries):
    import copy
    pristine = build(EPS, DELTA)
    warm = copy.deepcopy(pristine)
    for method, args in queries:
        fresh = copy.deepcopy(pristine)
        assert _outcome(getattr(warm, method)(*args)) == \
            _outcome(getattr(fresh, method)(*args)), (method, args)


@pytest.mark.parametrize("build, lp", [
    (lem_ex1_space, "L'"), (trace_surgery_space, "L''")])
@pytest.mark.parametrize("where", ["append", "insert"])
def test_moves_added_after_a_query(build, lp, where):
    # memoized widths and probe results do not depend on move indices
    import copy
    pristine = build(EPS, DELTA)
    warm = copy.deepcopy(pristine)
    queries = [("S1", "S2", 0), (lp, "L", 0), (lp, "L", 2)]
    for a, b, k in queries:
        warm.d_k(a, b, "F", k)
    fresh = copy.deepcopy(pristine)
    for sp in (warm, fresh):
        mv = suspension_move("s12", "S1", "S2", 4 * EPS)
        if where == "append":
            sp.moves.append(mv)
        else:
            sp.moves.insert(0, mv)
    assert fresh.d_k("S1", "S2", "F", 0).upper == 4 * EPS
    for a, b, k in queries + [("S2", "S1", 1), ("L", lp, 2)]:
        assert _outcome(warm.d_k(a, b, "F", k)) == \
            _outcome(fresh.d_k(a, b, "F", k)), (a, b, k)


def _counted_probe(probe, **changes):
    """A copy of ``probe`` with ``changes`` applied that counts its builds."""
    import copy
    p = copy.copy(probe)
    for attr, val in changes.items():
        setattr(p, attr, val)
    p.builds = 0

    def build(t):
        p.builds += 1
        return probe.build(t)

    p.build = build
    return p


def test_probes_verified_only_for_matching_queries():
    sp = trace_surgery_space(EPS, DELTA)
    corner = sp.probes[0]
    good = _counted_probe(corner)
    elsewhere = _counted_probe(corner, name="elsewhere", ends=("S3", "S4"))
    # a matching end multiset and a large claim, but a wrong profile
    failing = _counted_probe(corner, name="failing", claimed_sup=2 * DELTA,
                             profile=lambda t: 2 * corner.profile(t))
    sp.probes = [failing, elsewhere, good]
    assert good.builds == failing.builds == 0
    for _ in range(2):
        for k in range(3):
            sp.d_k("S1", "S2", "F", k)
            r = sp.d_k("L''", "L", "F", k)
            assert "failing" not in r.certificate
        assert sp.d_k("L''", "L", "F", 1).certificate == "probe corner"
        assert elsewhere.builds == 0
        assert good.builds == len(good.samples)
        assert 1 <= failing.builds <= len(failing.samples)
    assert failing.verify(sp) is False


def test_strands_kept_and_copied():
    from filtcones.surface.curves import GeometryError, TorusCurve
    sp = lem_ex1_space(EPS, DELTA)
    for c in sp.curves.values():
        runs = c.strands()
        runs.append(("v", 0, 0))
        again = TorusCurve(c.vertices + [c.closure], check_embedded=False)
        assert c.strands() == again.strands()
    diagonal = TorusCurve([(-1, -1), (1, 1)])
    for _ in range(2):
        with pytest.raises(GeometryError):
            diagonal.strands()


# -- lower bounds: one width per end set ------------------------------------------

LINE_X = {"S1": -F(1, 2) - EPS, "S2": -F(1, 2) + EPS,
          "S3": F(1, 2) - EPS, "S4": F(1, 2) + EPS}
SUSPENSIONS = [(), (("S1", "S2"),), (("S2", "S3"),),
               (("S1", "S3"), ("S2", "S4"))]


def _trace_space_s1_only():
    # the probe certifies (L'', L, S1) only: the multiset (S1, S1) of the
    # same set has bound 0 at k = 2
    space = trace_surgery_space(EPS, DELTA)
    space.families["F"] = ["S1"]
    return space


def _trace_space_s2_probe():
    # the corner family relabelled to certify the end multiset (S2) at
    # 1/2 + delta (its verification reads only the source and the system
    # curves): it raises that multiset above the width bound 1/2 of its
    # set {S2}, which the multiset (S2, S2) reaches at k = 2
    import copy
    space = trace_surgery_space(EPS, DELTA)
    probe = copy.copy(space.probes[0])
    probe.name, probe.ends = "s2", ("L", "S2")
    probe.claimed_sup = F(1, 2) + DELTA
    space.probes.append(probe)
    space.families["F"] = ["S2"]
    return space


def test_certificate_names_the_multiset_that_reached_the_bound():
    space = _trace_space_s2_probe()
    for lp, l in (("L''", "L"), ("L", "L''")):
        assert [(r.lower, r.certificate) for r in (
            space.d_k(lp, l, "F", k) for k in range(3))] == [
            (2, "width(L'';L+none)/2"), (F(1, 2) + DELTA, "probe s2"),
            (F(1, 2), "width(L'';L+S2+S2)/2")]


# a parsed scenario whose curves sit on thirds and sevenths: each width
# table is read at the frame 21 that none of its own strands needs
UNEQUAL_SCALES = """
curve L: (-1,1/7) (1,1/7)
curve J: (-1,-1/3) (-1/7,-1/3) (-1/7,-4/7) (3/7,-4/7) (3/7,-1/3) (1,-1/3)
curve S1: (-2/3,-1) (-2/3,1)
curve S2: (-3/7,-1) (-3/7,1)
curve S3: (2/7,-1) (2/7,1)
curve S4: (2/3,-1) (2/3,1)
object K carrier=S1,J cover=S1,J,L
family F = S1 S2 S3 S4
"""


def _unequal_scale_space():
    return parse_scenario(UNEQUAL_SCALES).metric_space()


@pytest.mark.parametrize("pattern", SUSPENSIONS)
@pytest.mark.parametrize("build, pairs", [
    (lambda: lem_ex1_space(EPS, DELTA),
     [("L'", "L"), ("L", "L'"), ("S1", "S2"), ("L'", "L'")]),
    (lambda: trace_surgery_space(EPS, DELTA),
     [("L''", "L"), ("L", "L''"), ("S2", "S3")]),
    (_trace_space_s1_only, [("L''", "L"), ("L", "L''")]),
    (_trace_space_s2_probe, [("L''", "L"), ("L", "L''")]),
    (lambda: disjoint_union_space(EPS), [("S1", "S2"), ("S2", "S1")]),
    (_unequal_scale_space, [("S1", "S2"), ("S2", "S4"), ("S3", "S1"),
                            ("K", "L"), ("L", "K"), ("K", "S2")]),
], ids=["lem", "trace", "trace-S1", "trace-S2-probe", "disjoint",
        "thirds-sevenths"])
def test_lower_bounds_match_every_multiset_bounded_alone(build, pairs,
                                                         pattern):
    for min_area in (None, F(1, 64)):  # weakly exact, then monotone
        space = build()
        space.monotone_min_area = min_area
        for a, b in pattern:
            length = 2 * abs(LINE_X[a] - LINE_X[b])
            space.moves.append(suspension_move(f"s{a[1]}{b[1]}", a, b,
                                               length))
        for lp, l in pairs:
            got = [(r.lower, r.certificate) for r in (
                space.d_k(lp, l, "F", k) for k in range(7))]
            assert got == ref_lower_bounds(space, lp, l, "F"), \
                (min_area, lp, l)


# -- additive expression shadows and the exhaustive search ----------------------

def test_expression_shadow_is_the_sum_of_its_moves():
    # phi and T4 used to be measured as one union in which phi's rectangle
    # overlapped T4's first handles, by an amount set by the move order
    sp = lem_ex1_space(EPS, DELTA)
    sp.families["G"] = ["S2", "S3", "S4", "L"]
    r = sp.d_k("L", "S1", "G", 4)
    assert (r.lower, r.upper) == (F(1, 2), 4 * EPS + 2 * DELTA)
    assert r.upper == F(65, 128)
    assert r.witness == "T4+phi"


def test_search_has_no_depth_cap():
    # seven unit suspensions beat one long move, however deep the chain
    names = [f"A{i}" for i in range(8)]
    moves = [suspension_move(f"s{i}", names[i], names[i + 1], 1)
             for i in range(7)]
    moves.append(suspension_move("far", "A0", "A7", 100))
    sp = MetricSpace(base_curves(EPS), [LagObject(n, ["L"]) for n in names],
                     {"F": []}, moves)
    r = sp.d_k("A0", "A7", "F", 0)
    assert (r.lower, r.upper) == (0, 7)
    assert r.witness == "+".join(f"s{i}" for i in range(7))
    assert sp.d_f("A0", "A7", "F").upper == 7


def test_search_adds_shadows_of_unlike_denominators():
    # shadows 1/2, 1/3 and 1/5 are added at their lcm frame 30: the direct
    # move beats the two-move chain, 1/2 < 8/15
    moves = [suspension_move("half", "A", "B", F(1, 2)),
             suspension_move("third", "A", "C", F(1, 3)),
             suspension_move("fifth", "C", "B", F(1, 5))]
    sp = MetricSpace(base_curves(EPS), [LagObject(n, ["L"]) for n in "ABC"],
                     {"F": ["C"]}, moves)
    for k in range(3):
        r = sp.d_k("A", "B", "F", k)
        assert (r.upper, r.witness) == (F(1, 2), "half")
    assert sp.d_f("A", "C", "F").upper == F(1, 3)


def _spaces_with_their_moves():
    tspace = trace_surgery_space(EPS, DELTA)
    tspace.moves.append(trace_move("T1b", "L''", ("L", "S1"), [DELTA], [0]))
    return [lem_ex1_space(EPS, DELTA), tspace, disjoint_union_space(EPS)]


def test_move_shadows_add_up_like_the_union_of_their_footprints():
    # planar_shadow of all footprints side by side, each in its own
    # column, is the oracle for the sum rule of the search
    for sp in _spaces_with_their_moves():
        for r in range(len(sp.moves) + 1):
            for moves in itertools.combinations(sp.moves, r):
                union = PlanarDiagram()
                for j, mv in enumerate(moves):
                    d = mv.footprint
                    union = union.union(PlanarDiagram(
                        [((a[0] + 100 * j, a[1]), (b[0] + 100 * j, b[1]))
                         for a, b in d.segments],
                        [((p[0] + 100 * j, p[1]), e) for p, e in d.rays]))
                assert planar_shadow(union) == sum(
                    (mv.shadow for mv in moves), F(0)), \
                    [mv.name for mv in moves]


SEARCH_OBJECTS = ["A", "B", "C", "D", "E"]
QUARTERS = st.integers(0, 8).map(lambda n: F(n, 4))
LINE = {"L": TorusCurve([(-1, 0), (1, 0)], name="L")}


@st.composite
def search_cases(draw):
    """At most 5 moves among at most 5 objects, with 1-3 ends each, a
    random family and two distinct objects, half the time with a direct
    move between them that longer expressions may undercut.  Every object
    rides on one curve, so every lower bound is 0 and only the search
    decides the upper bounds."""
    objects = SEARCH_OBJECTS[:draw(st.integers(3, 5))]
    lp, l = draw(st.permutations(objects))[:2]
    name = st.sampled_from(objects)
    moves = []
    if draw(st.booleans()):
        moves.append(suspension_move("m0", lp, l, 2 * draw(QUARTERS)))
    for i in range(len(moves), draw(st.integers(3, 5))):
        if draw(st.integers(0, 2)):
            a, b = draw(st.permutations(objects))[:2]
            moves.append(suspension_move(f"m{i}", a, b, draw(QUARTERS)))
        else:
            areas = draw(st.lists(QUARTERS.filter(bool), min_size=1,
                                  max_size=2))
            groups = draw(st.lists(st.integers(0, 1), min_size=len(areas),
                                   max_size=len(areas)))
            moves.append(trace_move(
                f"m{i}", draw(name),
                draw(st.lists(name, min_size=1, max_size=3)), areas, groups))
    family = draw(st.lists(name, unique=True))
    space = MetricSpace(LINE, [LagObject(o, ["L"]) for o in objects],
                        {"F": family}, moves)
    return space, lp, l


def _least(found, k):
    return min((s for s, c in found if c <= k), default=INF)


def _fewest(found, a):
    return min((c for s, c in found if s <= a), default=INF)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(search_cases())
def test_search_agrees_with_every_sequence_of_moves(case):
    space, lp, l = case
    shadows = {mv.name: mv.shadow for mv in space.moves}
    family = space.families["F"]
    found = ref_metric_uppers(space.moves, lp, l, family)
    for k in range(5):
        r = space.d_k(lp, l, "F", k)
        assert r.upper == _least(found, k), k
        if r.upper < INF:
            used = [] if r.witness == "identity" else r.witness.split("+")
            assert sum((shadows[n] for n in used), F(0)) == r.upper
    r = space.d_f(lp, l, "F")
    assert r.upper == min((s for s, _ in found), default=INF)
    assert r.lower == ref_least_lower_bound(space, lp, l, "F")[0]
    for a in (F(0), F(1, 2), F(2), F(5)):
        assert space.cone_length(lp, l, "F", a).upper == _fewest(found, a), a
