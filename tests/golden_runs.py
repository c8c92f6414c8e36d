"""The golden CLI runs: each command line whose report ``tests/golden/``
holds, with its exit code.  ``tests/test_golden.py`` runs them in
process.

Run ``python tests/golden_runs.py`` with an installed ``filtcones`` on
``PATH`` to diff every run of that executable against its file; it is
stdlib only, and pytest does not collect it.  It also checks that an arity
cap below the tower's length is refused in one error line, with exit code
1.  It prints a diff per mismatch and exits 1 on any.
"""

import difflib
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
# (eps, delta) -> report file
REPRO = {("1/8", "1/256"): "repro-lemma-ex1-eps1_8-delta1_256.txt",
         ("1/10", "1/1000"): "repro-lemma-ex1-eps1_10-delta1_1000.txt",
         ("3/29", "1/8999"): "repro-lemma-ex1-eps3_29-delta1_8999.txt"}
# scenario file -> report file
METRIC_REPORTS = {"metric-lem-ex1.scenario": "metric-lem-ex1.txt",
                  "metric-trace.scenario": "metric-trace.txt"}
# complex file -> (queries, report file)
DEPTH = {"depth-odd.cx": (("B x", "beta x", "B y", "beta y", "B z", "A a",
                           "A z"), "depth-odd.txt"),
         "depth-negative.cx": (("B s", "beta s", "B t", "A p", "A s"),
                               "depth-negative.txt"),
         "depth-sevenths.cx": (("B g1", "beta g1", "B g3", "beta g3", "B g5",
                                "beta g5", "A g0"), "depth-sevenths.txt")}
# spec file -> (report file, exit code)
TWISTED = {"twisted-r2.tw": ("twisted-r2.txt", 0),
           "twisted-r4.tw": ("twisted-r4.txt", 0),
           "twisted-noncycle.tw": ("twisted-noncycle.txt", 1)}


def runs():
    """(argv, report file, exit code) of every golden CLI run."""
    for (eps, delta), report in REPRO.items():
        yield ["repro-lemma-ex1", "--eps", eps, "--delta", delta], report, 0
    for scenario, report in METRIC_REPORTS.items():
        yield ["metric", "--scenario", str(GOLDEN / scenario)], report, 0
    for complex_file, (queries, report) in DEPTH.items():
        yield (["depth", "--complex", str(GOLDEN / complex_file)]
               + [w for q in queries for w in ("--query", q)], report, 0)
    for spec, (report, code) in TWISTED.items():
        yield ["twisted-check", "--spec", str(GOLDEN / spec)], report, code


def main() -> int:
    bad, cases = [], list(runs())
    for argv, report, code in cases:
        got = subprocess.run(["filtcones", *argv], capture_output=True,
                             text=True)
        want = (GOLDEN / report).read_text()
        if got.stdout != want or got.returncode != code:
            bad.append(report)
            print(f"filtcones {' '.join(argv)}: exit {got.returncode} "
                  f"(expected {code})")
            sys.stdout.writelines(difflib.unified_diff(
                want.splitlines(True), got.stdout.splitlines(True), report,
                "filtcones"))
    capped = subprocess.run(
        ["filtcones", "--arity-cap", "2", "twisted-check", "--spec",
         str(GOLDEN / "twisted-r2.tw")], capture_output=True, text=True)
    lines = (capped.stdout + capped.stderr).splitlines()
    if capped.returncode != 1 or len(lines) != 1 \
            or "| error: arity cap 2 too small" not in lines[0]:
        bad.append("arity cap")
        print(f"--arity-cap 2: exit {capped.returncode}, output {lines}")
    print(f"{len(bad)} of {len(cases) + 1} golden runs differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
