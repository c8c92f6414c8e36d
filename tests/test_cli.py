import os

import pytest

from filtcones.cli import main, parse_scenario
from filtcones.fragmetric import FragError


SCENARIO = """
scenario lem-ex1 eps=1/8 delta=1/256
query d_k L' L k=0
query floer N S1
assert floer N L == 0
assert intersections N L' == 4
assert width carrier=S1,S2,S3,S4 q=L == 1
"""

CUSTOM = """
curve L: (-1,0) (1,0)
curve M: (-1,1/2) (1,1/2)
curve S: (-1/2,-1) (-1/2,1)
family F = S
move suspension s1: L -> M length=1
query d_k M L k=0
assert floer S L == 1
"""

COMPLEX = """
cutoff 64
gen b action 0
gen x action 0
d b = T^1/2*x
"""

DIAGRAM = """
poly (0,0) (2,0) (2,1) (0,1) (0,0)
end left y=3 x=0
"""

# dg Maurer-Cartan data: mu_1(c20) = mu_2(c21, c10) exactly
TWISTED = """
objects L0 L1 L2
object X
object L0
object L1
object L2
hom X L0: gen x0 action 0 ; gen y0 action 0
d y0 = T^1/2*x0
hom X L1: gen x1 action 0
hom X L2: gen x2 action 0
hom L1 L0: gen m10 action 0
hom L2 L1: gen m21 action 0
hom L2 L0: gen m20 action 0 ; gen e20 action 0
d e20 = T^1*m20
mu 2 (x1,m10) -> T^0*x0
mu 2 (x2,m21) -> T^0*x1
mu 2 (x2,m20) -> T^0*x0
mu 2 (x2,e20) -> T^1/2*y0
mu 2 (m21,m10) -> T^0*m20
c 1 0 -> T^1*m10
c 2 1 -> T^1*m21
c 2 0 -> T^1*e20
"""


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_cli_metric_scenario(tmp_path, capsys):
    f = tmp_path / "sc.txt"
    f.write_text(SCENARIO)
    code, out = run_cli(["metric", "--scenario", str(f)], capsys)
    assert code == 0
    assert "d_k L' L k=0" in out
    assert "pass" in out


def test_cli_metric_custom_scenario(tmp_path, capsys):
    f = tmp_path / "sc.txt"
    f.write_text(CUSTOM)
    code, out = run_cli(["metric", "--scenario", str(f)], capsys)
    assert code == 0
    assert "d_k M L k=0" in out


def test_cli_l_a_prints_an_infinite_bound_as_inf(tmp_path, capsys):
    # the exhaustive search finds no expression of shadow <= 1/256, so the
    # upper bound is infinite
    f = tmp_path / "sc.txt"
    f.write_text("scenario lem-ex1 eps=1/8 delta=1/256\n"
                 "query l_a L' L a=1/256\n")
    code, out = run_cli(["metric", "--scenario", str(f)], capsys)
    assert code == 0
    assert out.splitlines() == ["l_a L' L a=1/256 | [4, inf] | - | ok"]


def test_cli_metric_failing_assert(tmp_path, capsys):
    f = tmp_path / "sc.txt"
    f.write_text(SCENARIO + "assert floer N S1 == 7\n")
    code, out = run_cli(["metric", "--scenario", str(f)], capsys)
    assert code == 1
    assert "FAIL" in out


def test_cli_count_asserts_compare_the_value_as_written(tmp_path, capsys):
    """A Floer rank or an intersection count is an integer, so an assert
    of 1/2 or 9/2 fails: the asserted value is not truncated first."""
    f = tmp_path / "sc.txt"
    f.write_text("scenario lem-ex1 eps=1/8 delta=1/256\n"
                 "assert floer N L == 1/2\n"
                 "assert intersections N L' == 9/2\n")
    code, out = run_cli(["metric", "--scenario", str(f)], capsys)
    assert code == 1
    assert out.splitlines() == [
        "floer N L | 0 | - | FAIL (want 1/2 (~0.5))",
        "intersections N L' | 4 | - | FAIL (want 9/2 (~4.5))",
    ]
    # integer asserts keep their report lines
    f.write_text("scenario lem-ex1 eps=1/8 delta=1/256\n"
                 "assert floer N L == 0\n"
                 "assert intersections N L' == 5\n")
    code, out = run_cli(["metric", "--scenario", str(f)], capsys)
    assert code == 1
    assert out.splitlines() == [
        "floer N L | 0 | - | pass",
        "intersections N L' | 4 | - | FAIL (want 5)",
    ]


@pytest.mark.parametrize("text, bad", [
    ("scenario lem-ex1 eps=1/8 delta=1/256\n"
     "move suspension s12: S1 -> S2 length=1/2\n"
     "query d_k S1 S2 k=0\n", "line 2: 'move suspension s12"),
    ("scenario lem-ex1\nobject X carrier=S1\n", "line 2: 'object X"),
    ("scenario lem-ex1\nfamily G = S1 S2\n", "line 2: 'family G"),
    ("family G = S1\nscenario lem-ex1\n", "line 2: 'scenario lem-ex1"),
    ("scenario lem-ex1\nscenario trace-surgery\n", "line 2: 'scenario"),
])
def test_canned_scenario_refuses_lines_it_would_drop(text, bad):
    with pytest.raises(FragError, match=bad):
        parse_scenario(text)


def test_canned_scenario_takes_new_curve_names(tmp_path, capsys):
    # a new curve after a canned line serves the floer, intersections and
    # width queries; its sevenths are in no frame of the canned space
    f = tmp_path / "sc.txt"
    f.write_text("scenario lem-ex1 eps=1/8 delta=1/256\n"
                 "curve Z: (-2/7,-1) (-2/7,1)\n"
                 "assert floer Z L == 1\n"
                 "assert intersections Z L == 1\n"
                 "assert width carrier=Z q=S1 == 19/14\n"
                 "assert d_k L' L k=0 == 1/2\n")
    code, out = run_cli(["metric", "--scenario", str(f)], capsys)
    assert code == 0, out


def test_cli_floer(tmp_path, capsys):
    f = tmp_path / "sc.txt"
    f.write_text(SCENARIO)
    code, out = run_cli(["floer", "--scenario", str(f),
                         "--pair", "N", "S1"], capsys)
    assert code == 0
    assert "floer N S1 | 1" in out


def test_cli_depth(tmp_path, capsys):
    f = tmp_path / "cx.txt"
    f.write_text(COMPLEX)
    code, out = run_cli(["depth", "--complex", str(f), "--query", "B x",
                         "--query", "beta x", "--query", "A b"], capsys)
    assert code == 0
    assert "B x | 1/2" in out
    # error reporting for a non-cycle query
    code2, out2 = run_cli(["depth", "--complex", str(f),
                           "--query", "B b"], capsys)
    assert code2 == 1
    assert "error" in out2


def test_cli_refuses_exponent_at_cutoff(tmp_path, capsys):
    # a term at or above the cutoff is refused, never dropped
    f = tmp_path / "cx.txt"
    f.write_text("gen a action 1\ngen b action 0\nd a = T^1*b\n")
    code = main(["--cutoff", "1/2", "depth", "--complex", str(f),
                 "--query", "B b"])
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err == (f"error: {f}: line 3: exponent 1 is at or above "
                       "the cutoff 1/2\n")
    code, out = run_cli(["depth", "--complex", str(f), "--query", "B b"],
                        capsys)
    assert code == 0 and "B b | 2 (~2) | - | ok" in out


@pytest.mark.parametrize("cmd, text, where", [
    ("depth", "gen a action 1/0\n", "line 1: "),
    ("depth", "gen a action 0\ngen b action 0\nd a = T^64*b\n",
     "line 3: exponent 64 is at or above the cutoff 64\n"),
    ("depth", "gen a action 0\ngen b action 0\nd a = T^0 b\n",
     "line 3: bad chain term 'T^0 b'"),
    ("twisted-check", TWISTED.replace("c 2 0 -> T^1*e20", "c 2 0 -> e20"),
     "line 22: bad chain term 'e20'"),
    ("twisted-check", TWISTED.replace("mu 2 (x2,m21) -> T^0*x1",
                                      "mu 2 (x2,m21) -> T^x*x1"),
     "line 16: "),
    ("twisted-check", TWISTED.replace("d e20 = T^1*m20", "d e20 = T^1*"),
     "line 14: bad chain term 'T^1*'"),
    ("shadow", "poly (0,0) (2,0)\nend left y=3 x=0 z\n", "line 2: "),
    ("metric", "curve L: (-1,0) (1,0)\nmove suspension s: L -> M\n",
     "line 2: "),
    ("metric", "curve L: (-1,0) (1,0)\nassert intersections L L = 4\n",
     "line 2: expected '<query> == <value>', got "
     "'assert intersections L L = 4'\n"),
    ("metric", "curve L: (-1,0) (1,0)\nassert intersections L L == four\n",
     "line 2: Invalid literal for Fraction: 'four'\n"),
    # unknown line words and key=value options are refused, never dropped
    ("metric", "scenario lem-ex1 eps=1/0 delta=1/256\n",
     "line 1: zero denominator in '1/0'\n"),
    ("metric", "scenario lem-ex1 eps=1/8 detla=1/300\n",
     "line 1: unknown option 'detla'; expected eps, delta\n"),
    ("metric", "curve L: (-1,0) (1,0)\nobject X carier=L\n",
     "line 2: unknown option 'carier'; expected carrier, cover, geometry\n"),
    # a curve name is defined once, in a canned scenario too
    ("metric", "curve L: (-1,0) (1,0)\ncurve L: (-1,1/2) (1,1/2)\n",
     "line 2: curve L is already defined\n"),
    ("metric", "scenario lem-ex1 eps=1/8 delta=1/256\n"
     "curve S1: (-2/7,-1) (-2/7,1)\n", "line 2: curve S1 is already defined\n"),
    ("shadow", "poly (0,0) (2,0)\nend rihgt y=0\n",
     "line 2: unknown or missing 'rihgt'\n"),
    ("shadow", "poly 0,0 1,0 1,1 0,0\n",
     "line 1: expected (a,b,...), got '0,0'\n"),
    ("shadow", "rect 0 0 1\n", "line 1: not enough values to unpack"),
    ("twisted-check", TWISTED + "discount 0 1/2\n",
     "line 23: unrecognized category line 'discount 0 1/2'\n"),
    ("twisted-check", TWISTED.replace("mu 2 (x2,m21)", "mu 2 x2,m21"),
     "line 16: expected (a,b,...), got 'x2,m21'\n"),
    ("twisted-check", "objects X\nobject X\nhom X X: gen e action 0\ndisc 1 1\n",
     "line 4: category discrepancy must have eps_1 = 0\n"),
    # a key is given once; the repeating line is refused
    ("depth", "gen a action 0\ngen a action 1\n",
     "line 2: generator a given twice\n"),
    ("depth", "gen a action 1\ngen b action 0\nd a = T^1*b\nd a = T^2*b\n",
     "line 4: d a given twice\n"),
    ("twisted-check", TWISTED + "object X\n",
     "line 23: object X given twice\n"),
    ("twisted-check", TWISTED + "mu 2 (x1,m10) -> T^1*x0\n",
     "line 23: mu 2 (x1,m10) given twice\n"),
    ("twisted-check", TWISTED + "disc 0 0\ndisc 0 1\n",
     "line 24: disc given twice\n"),
    ("twisted-check", TWISTED + "hom X X: gen e action 0\n"
     "unit X = T^0*e\nunit X = T^1*e\n", "line 25: unit X given twice\n"),
    ("twisted-check", TWISTED + "c 1 0 -> T^2*m10\n",
     "line 23: c 1 0 given twice\n"),
    ("twisted-check", TWISTED + "phi 1 (x0) -> T^0*x0\nphi 1 (x0) -> T^1*x0\n",
     "line 24: phi 1 (x0) given twice\n"),
    ("twisted-check", TWISTED + "objects X Y Z\n",
     "line 23: objects given twice\n"),
    ("metric", "curve L: (-1,0) (1,0)\nobject X carrier=L\nobject X\n",
     "line 3: object X given twice\n"),
    ("metric", "curve L: (-1,0) (1,0)\nfamily F = L\nfamily F = L\n",
     "line 3: family F given twice\n"),
    # a mu key is a composable tuple of known generators of its arity, and
    # its value lies in the hom complex the tuple lands in; a phi i key is
    # a tuple of the Yoneda module of L_i
    ("twisted-check", TWISTED + "mu 2 (zz,m10) -> T^0*x0\n",
     "line 23: mu 2 (zz,m10): unknown generator zz\n"),
    ("twisted-check", TWISTED + "mu 2 (x1,m20) -> T^0*x0\n",
     "line 23: mu 2 (x1,m20): x1 ends at L1, m20 starts at L2\n"),
    ("twisted-check", TWISTED + "mu 3 (x2,m21) -> T^0*x1\n",
     "line 23: mu 3 (x2,m21): 2 generators, not 3\n"),
    ("twisted-check", TWISTED + "mu 1 (y0) -> T^0*x0\n",
     "line 23: mu 1 (y0): mu_1 is the differential; write a d line\n"),
    ("twisted-check", TWISTED + "mu 3 (x2,m21,m10) -> T^0*x1\n",
     "line 23: mu 3 (x2,m21,m10): x1 is not in hom(X, L0)\n"),
    ("twisted-check", TWISTED + "phi 1 (zz) -> T^0*x0\n",
     "line 23: phi 1 (zz): unknown generator zz\n"),
    ("twisted-check", TWISTED + "phi 1 (x2,m10) -> T^0*x0\n",
     "line 23: phi 1 (x2,m10): x2 ends at L2, m10 starts at L1\n"),
    ("twisted-check", TWISTED + "phi 1 (x2) -> T^0*x0\n",
     "line 23: phi 1 (x2): x2 ends at L2, not at L1\n"),
])
def test_cli_reports_parse_errors_with_line(tmp_path, capsys, cmd, text,
                                            where):
    f = tmp_path / "in.txt"
    f.write_text(text)
    flag = {"depth": "--complex", "twisted-check": "--spec",
            "shadow": "--diagram", "metric": "--scenario"}[cmd]
    code = main([cmd, flag, str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {f}: {where}") and err.count("\n") == 1


@pytest.mark.parametrize("cmd, flag", [
    ("depth", "--complex"), ("twisted-check", "--spec"),
    ("metric", "--scenario"), ("floer", "--scenario"),
    ("width", "--scenario"), ("shadow", "--diagram")])
@pytest.mark.parametrize("missing", [True, False],
                         ids=["missing", "directory"])
def test_cli_reports_an_unreadable_input_file(tmp_path, capsys, cmd, flag,
                                              missing):
    path = tmp_path / "absent.txt" if missing else tmp_path
    code = main([cmd, flag, str(path)])
    why = "No such file or directory" if missing else "Is a directory"
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: {why}\n"


def test_cli_shadow(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text(DIAGRAM)
    code, out = run_cli(["shadow", "--diagram", str(f)], capsys)
    assert code == 0
    assert "shadow | 2" in out


def test_cli_twisted_check_refuses_a_non_cycle(capsys):
    spec = os.path.join(os.path.dirname(__file__), "golden",
                        "twisted-noncycle.tw")
    code, out = run_cli(["twisted-check", "--spec", spec], capsys)
    assert code == 1
    assert out.splitlines()[-1] == \
        "iterated cone | - | - | error: attaching map 2 is not a cycle"


def test_cli_twisted_check_refuses_an_arity_cap_below_the_tower(capsys):
    spec = os.path.join(os.path.dirname(__file__), "golden", "twisted-r2.tw")
    code, out = run_cli(["--arity-cap", "2", "twisted-check", "--spec",
                         spec], capsys)
    assert code == 1
    assert out.splitlines() == ["twisted differential | - | - | error: "
                                "arity cap 2 too small for r = 2"]


def test_cli_twisted_check_refuses_a_pair_with_no_hom_complex(tmp_path,
                                                               capsys):
    f = tmp_path / "tw.txt"
    f.write_text("objects A B\nobject A\nobject B\n"
                 "hom A A: gen e action 0\nc 1 0 -> T^0*e\n")
    code, out = run_cli(["twisted-check", "--spec", str(f)], capsys)
    assert code == 1
    assert out.splitlines() == ["twisted differential | - | - | error: "
                                "no hom complex for (B, A)"]


@pytest.mark.parametrize("phis", [
    "phi 2 (x2) -> T^0*x1\n",  # no stage 1
    "phi 1 (x1) -> T^0*x0\nphi 3 (x2) -> T^0*x1\n",  # no stage 2
    "phi 1 (x1) -> T^0*x0\nphi 2 (x2) -> T^0*x1\nphi 3 (x2) -> T^0*x1\n",
], ids=["gap", "past-objects", "too-many"])
def test_cli_twisted_check_refuses_misnumbered_phi_stages(tmp_path, capsys,
                                                          phis):
    f = tmp_path / "tw.txt"
    f.write_text(TWISTED + phis)
    code = main(["twisted-check", "--spec", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"error: {f}: phi lines must number the stages 1, 2, "
                   "..., r with r below the number of objects\n")


def test_cli_twisted_check(tmp_path, capsys):
    f = tmp_path / "tw.txt"
    f.write_text(TWISTED)
    code, out = run_cli(["twisted-check", "--spec", str(f)], capsys)
    assert code == 0
    assert "square-zero" in out
    # breaking the Maurer-Cartan data must fail the square-zero check
    f2 = tmp_path / "tw2.txt"
    f2.write_text(TWISTED.replace("c 2 0 -> T^1*e20",
                                  "c 2 0 -> T^5*m20"))
    code2, out2 = run_cli(["twisted-check", "--spec", str(f2)], capsys)
    assert code2 == 1


def test_cli_repro(tmp_path, capsys):
    code, out = run_cli(["repro-lemma-ex1", "--eps", "1/8",
                         "--delta", "1/256", "--svg", str(tmp_path)], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert (tmp_path / "lem-ex1.svg").exists()
    # parameter robustness
    code2, out2 = run_cli(["repro-lemma-ex1", "--eps", "1/10",
                           "--delta", "1/1000"], capsys)
    assert code2 == 0
    # refused outside the handle regime
    code3, out3 = run_cli(["repro-lemma-ex1", "--eps", "1/8",
                           "--delta", "1/2"], capsys)
    assert code3 == 1
    assert "refused" in out3


@pytest.mark.parametrize("args, reason", [
    (["--eps", "1/4"], "requires 0 < eps <= 1/8"),
    (["--delta", "0"], "requires 0 < delta < eps^2/2"),
    (["--eps", "abc"], "Invalid literal for Fraction: 'abc'"),
    (["--delta", "1/0"], "zero denominator in '1/0'"),
], ids=["eps 1/4", "delta 0", "eps abc", "delta 1/0"])
def test_cli_repro_reports_bad_arguments_on_one_line(capsys, args, reason):
    argv = dict(zip(args[::2], args[1::2]))
    eps, delta = argv.get("--eps", "1/8"), argv.get("--delta", "1/256")
    code = main(["repro-lemma-ex1", *args])
    cap = capsys.readouterr()
    assert code == 1 and cap.err == ""
    assert cap.out.splitlines() == [
        f"--eps {eps} --delta {delta} | - | - | error: {reason}"]


def test_cli_width(tmp_path, capsys):
    f = tmp_path / "sc.txt"
    f.write_text(SCENARIO)
    code, out = run_cli(["width", "--scenario", str(f), "--query",
                         "width carrier=S1 q=L"], capsys)
    assert code == 0


def test_reports_deterministic(tmp_path, capsys):
    f = tmp_path / "sc.txt"
    f.write_text(SCENARIO)
    _, out1 = run_cli(["metric", "--scenario", str(f)], capsys)
    _, out2 = run_cli(["metric", "--scenario", str(f)], capsys)
    assert out1 == out2


MALFORMED_QUERIES = [
    ("metric", SCENARIO, "d_k L' L k=x",
     "error: invalid literal for int() with base 10: 'x'"),
    ("metric", SCENARIO, "d_k L' L", "error: unknown or missing 'k'"),
    ("metric", SCENARIO, "d_k L' zz k=0", "error: unknown or missing 'zz'"),
    ("metric", SCENARIO, "d_k L' L k=0 family=G",
     "error: unknown or missing 'G'"),
    ("metric", SCENARIO, "d_k L' L k", "error: expected key=value, got 'k'"),
    ("metric", SCENARIO, "d_k L' L k=0 famly=G",
     "error: unknown option 'famly'; expected k, family"),
    ("metric", SCENARIO, "d_k L' L k=0 k=1", "error: option 'k' given twice"),
    ("metric", SCENARIO, "d_k L' L k=-1",
     "error: d_k needs an end count k >= 0, got -1"),
    ("metric", SCENARIO, "l_a L' L a=x", "error: "),
    ("metric", SCENARIO, "d_F L'", "error: d_F needs two names"),
    ("metric", SCENARIO, "floer N zz", "error: unknown or missing 'zz'"),
    ("width", SCENARIO, "width carrier=S1 q=zz",
     "error: unknown or missing 'zz'"),
    ("width", SCENARIO, "width carrier=L q=S1 bogus=1",
     "error: unknown option 'bogus'; expected carrier, q"),
    ("depth", COMPLEX, "B zz", "error: a depth query is"),
    ("depth", COMPLEX, "B", "error: a depth query is"),
]


@pytest.mark.parametrize("cmd, text, query, reason", MALFORMED_QUERIES,
                         ids=[f"{c} {q}" for c, _, q, _ in MALFORMED_QUERIES])
def test_cli_reports_malformed_queries(tmp_path, capsys, cmd, text, query,
                                       reason):
    f = tmp_path / "in.txt"
    f.write_text(text)
    flag = "--complex" if cmd == "depth" else "--scenario"
    code = main([cmd, flag, str(f), "--query", query])
    cap = capsys.readouterr()
    assert code == 1 and cap.err == ""
    errors = [line for line in cap.out.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith(f"{query} | - | - | {reason}")


def test_cli_has_no_seed_flag(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "--cutoff" in out and "--seed" not in out
