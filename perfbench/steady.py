"""Run sets of benchmark runs of one commit and compare them.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]

Two sets run every workload ``--runs`` times each, each run with another
seed (set k uses seeds first-seed + k*runs ...).  For each metric and workload it
prints the median, the quartiles, the spread (distance between the
quartiles over the median, as ``statistics.quantiles(n=4)`` gives them),
the failed share, and whether the two sets agree: the second median within
the metric's bound of the first, in either direction, and every spread
(except setup_s) within its bound.  Raw results go to perfbench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(cmd, workload, seed, seconds):
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["extra"] = json.loads(proc.stderr.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    raw = {}
    ok = True
    for w in names:
        sets = []
        for k in range(2):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                runs.append(one_run(bench["command"], w, seed, bench["run_seconds"]))
                print(f"{w} set {k} seed {seed}: "
                      + json.dumps({n: round(m['value'], 4) for n, m in
                                    runs[-1]['metrics'].items()})
                      + f" kernel_ms {runs[-1]['extra']['kernel_pass_ms']:.1f}"
                      f" rounds {runs[-1]['extra']['rounds']}"
                      f" wall {runs[-1]['wall_s']:.1f} s", flush=True)
            sets.append(runs)
        raw[w] = sets
        shares = {f"{r['failed']}/{r['attempted']}" for s in sets for r in s}
        same_share = len({r["failed"] / r["attempted"] for s in sets for r in s}) == 1
        ok &= same_share and all(r["correct"] for s in sets for r in s)
        walls = [r["wall_s"] for s in sets for r in s]
        print(f"== {w}: failed shares {sorted(shares)} "
              f"{'same' if same_share else 'DIFFER'}; wall per run median "
              f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for name, m in bounds.items():
            cells = []
            meds = []
            for k, runs in enumerate(sets):
                med, q1, q3, spread = summary([r["metrics"][name]["value"]
                                               for r in runs])
                meds.append(med)
                good = name == "setup_s" or spread <= m["bound"]
                ok &= good
                cells.append(f"set{k} med {med:.4g} q [{q1:.4g}, {q3:.4g}] "
                             f"spread {spread:.3f}{'' if good else ' WIDE'}")
            drift = (meds[1] - meds[0]) / meds[0]
            agree = abs(drift) <= m["bound"]
            ok &= agree
            print(f"{name:12s} bound {m['bound']}: " + "; ".join(cells)
                  + f"; drift {drift:+.3f} {'agree' if agree else 'DISAGREE'}",
                  flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(raw, f)
    print(f"{'AGREE' if ok else 'DISAGREE'}; raw results in "
          f"{os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
