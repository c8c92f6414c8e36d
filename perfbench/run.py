"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each workload runs in child
processes (``worker.py``) with a fixed PYTHONHASHSEED and the checkout's
``src`` first on the path: set-up-only children time set-up, one child
measures, and one more checks the measured outputs.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics untraced, the per-layer metrics
traced).  Extra figures for the README go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import selftest
from quantile import hd_quantile
from refkernel import NOMINAL_PASS_S, ReferenceClock
from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
HASH_SEED = "0"
SETUP_SAMPLES = 3          # setup_s is the median of this many set-ups
CHILD_TIMEOUT_S = 175.0


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(args, mode, deadline: float):
    """Start one worker in ``mode`` (its mode flags); returns (seconds from
    start to READY, peak RSS in MB at READY, result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT] + mode
    setup_only = mode == ["--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    ready = ready_rss = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and ready is None:
                ready = time.perf_counter() - t0
                ready_rss = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or (result is None and not setup_only):
        raise ChildFailed(f"worker exited with code {code}")
    return ready, ready_rss, result


def tail_p(n: int) -> float:
    """The highest percentile (as a fraction) with at least ten of n ops
    beyond it."""
    return max(0, n - 11) / max(1, n - 1)


def op_tail(rounds):
    """The tail quantile of all the run's ops, at the percentile that leaves
    ten ops of one round beyond it.

    The percentile is set by the round, not the run, so that it does not
    move with the number of rounds a run happens to fit in.
    """
    return hd_quantile([t for r in rounds for t in r], tail_p(len(rounds[0])))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "filtcones", "cli.py")):
        print("error: no filtcones source tree at src/filtcones; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    try:
        selftest.run_all()
    except AssertionError:
        print("error: a checker self-test failed; run perfbench/selftest.py",
              file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    outputs = os.path.join(OUT, f"outputs-{os.getpid()}.pickle")
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setups, setups_raw = [], []
        if not args.trace:
            clock = ReferenceClock()
            for _ in range(SETUP_SAMPLES):
                before = clock.median_of(3)
                ready = run_child(args, ["--setup-only"], deadline)[0]
                after = clock.median_of(3)
                setups_raw.append(ready)
                setups.append(ready * NOMINAL_PASS_S / ((before + after) / 2))
        _, ready_rss, res = run_child(args, ["--outputs", outputs], deadline)
        verdict = run_child(args, ["--check", outputs], deadline)[2]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.exists(outputs):
            os.remove(outputs)

    ops = [t for r in res["op_ref"] for t in r]
    tail_ref = op_tail(res["op_ref"])
    extra = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": res["rounds"], "ops": len(ops),
        "tail_percentile": round(100 * tail_p(len(res["op_ref"][0])), 1),
        "run_ref": sum(res["round_ref"]) / len(res["round_ref"]),
        "round_ref": res["round_ref"],
        "op_p50_ms": statistics.median(res["op_s"]) * 1000.0,
        "round_ms": sum(res["op_s"]) * 1000.0 / res["rounds"],
        "kernel_pass_ms": res["kernel_ms"],
        "kernel_ms_per_round": res["kernel_ms_total"] / res["rounds"],
        "setup_raw_s": setups_raw,
        "rss_at_ready_mb": ready_rss,
    }
    if args.trace:
        metrics = res["per_layer"]
        extra["trace_file"] = os.path.relpath(res["trace_file"], ROOT)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_ref": {"value": hd_quantile(ops, 0.5), "unit": "ref"},
            "op_tail_ref": {"value": tail_ref, "unit": "ref"},
            "run_ref": {"value": extra["run_ref"], "unit": "ref"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps(extra), file=sys.stderr)
    print(json.dumps({"correct": verdict["correct"],
                      "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
