from fractions import Fraction as F

import pytest

from filtcones.novikov import INF
from filtcones.fragmetric import (
    FragError, LagObject, MetricSpace, check_triangle, quasi_isometry_check,
    suspension_move, trace_move,
)
from filtcones.scenarios import (
    base_curves, disjoint_union_space, four_surgery_curve, lem_ex1_space,
    trace_surgery_space,
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
    assert r.exact()


def test_d4_upper(space):
    r = space.d_k("L'", "L", "F", 4)
    assert r.upper == 2 * DELTA
    assert r.lower == 0


def test_dk_nonincreasing_in_k(space):
    uppers = [space.d_k("L'", "L", "F", k).upper for k in range(5)]
    lowers = [space.d_k("L'", "L", "F", k).lower for k in range(5)]
    assert all(a >= b for a, b in zip(uppers, uppers[1:]))
    assert all(a >= b for a, b in zip(lowers, lowers[1:]))


def test_cone_lengths(space):
    assert space.cone_length("L'", "L", "F", None).upper == 0
    r = space.cone_length("L'", "L", "F", 2 * DELTA)
    assert r.lower == r.upper == 4
    # a below every generator shadow with distinct objects: infinite
    r2 = space.cone_length("S1", "S2", "F", F(1, 10 ** 9), kmax=3)
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
    val = space.prune_lower_bound("L'", ["L"], mode="weakly-exact")
    assert val == 4 * EPS
    space.monotone_min_area = F(1, 100)
    try:
        capped = space.prune_lower_bound("L'", ["L"], mode="monotone")
        assert capped == F(1, 100)
    finally:
        space.monotone_min_area = None


def test_top_end_mode(space):
    # restricting L to the top negative end can only increase the value
    r_any = space.d_k("L'", "L", "F", 4)
    r_top = space.d_k("L'", "L", "F", 4, top_end=True)
    assert r_top.upper >= r_any.upper


def test_triangle_inequality(space):
    assert check_triangle(space, "F",
                          [("L'", "L", "L"), ("L'", "L'", "L")],
                          [(0, 0), (4, 0), (0, 4)])


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
    # memoized shadows follow the moves themselves, not their indices
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
