"""One workload process: set up, say READY, run whole rounds, report.

Started by ``run.py`` with a fixed PYTHONHASHSEED and ``src`` on the path.
Every op is timed between two runs of the reference kernel (each the
median of KERNEL_PASSES passes); its normalized time is its wall time
divided by the mean of the two.

The measuring process only runs ops: it writes each round's outputs to
``--outputs`` and checks nothing, so its peak RSS holds no checker's
memory.  ``--check`` starts a second process that draws the same rounds
from the same seed and checks those outputs against them.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import pickle
import resource
import shutil
import statistics
import sys
import time

from op import OpError
from refkernel import ReferenceClock

WORKLOADS = ("torus-repro", "metric-search", "filtered-algebra")
# passes of the reference kernel between two ops; their median is the
# reference time on that side of each op, so one slow pass cannot skew it
KERNEL_PASSES = 3


def load(name: str, seed: int, workdir: str):
    if name == "torus-repro":
        from wl_torus import TorusRepro as cls
    elif name == "metric-search":
        from wl_metric import MetricSearch as cls
    else:
        from wl_algebra import FilteredAlgebra as cls
    return cls(seed, workdir)


def run_round(ops, clock, tracer, first_index):
    """Time each op between runs of the reference kernel.

    Returns (normalized times, raw seconds, outputs).
    """
    gc.collect()
    before = clock.median_of(KERNEL_PASSES)
    norm, raw, outputs = [], [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(first_index + i)
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a crashing op is a failed op, not a crash
            out = OpError(exc)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        after = clock.median_of(KERNEL_PASSES)
        norm.append((t1 - t0) / ((before + after) / 2))
        raw.append(t1 - t0)
        outputs.append(out)
        before = after
    return norm, raw, outputs


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, ops, args):
    """Run whole rounds for ``args.seconds``; outputs go to ``args.outputs``."""
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()
    clock = ReferenceClock()
    t_begin = time.perf_counter()
    all_norm, all_raw, round_totals = [], [], []
    r = 0
    with open(args.outputs, "wb") as sink:
        while True:
            norm, raw, outputs = run_round(ops, clock, tracer,
                                           sum(map(len, all_norm)))
            all_norm.append(norm)
            all_raw += raw
            round_totals.append(sum(norm))
            pickle.dump(outputs, sink)
            del outputs
            r += 1
            # traced runs do exactly one round so their counts repeat
            if tracer is not None or time.perf_counter() - t_begin >= args.seconds:
                break
            ops = wl.round(r)
    result = {
        "rounds": r, "op_ref": all_norm, "round_ref": round_totals,
        "op_s": all_raw,
        "kernel_ms": statistics.median(clock.samples) * 1000.0,
        "kernel_ms_total": sum(clock.samples) * 1000.0,
        "peak_rss_mb": rss_mb(),
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(result["kernel_ms"])
        path = os.path.join(args.out, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(path)
        result["trace_file"] = path
    return result


def check(wl, ops, args):
    """Check the measured outputs, round by round, against the same ops."""
    attempted = failed = 0
    correct = True
    with open(args.check, "rb") as source:
        for r in itertools.count():
            try:
                outputs = pickle.load(source)
            except EOFError:
                break
            if r:
                ops = wl.round(r)
            for op, out in zip(ops, outputs, strict=True):
                attempted += 1
                reason = op.verdict(out)
                if reason is not None:
                    failed += 1
                    if not op.known_fault:
                        correct = False
                        print(f"round {r} {op.kind}: {reason}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--outputs", help="measure; write the outputs here")
    mode.add_argument("--check", help="check the outputs written here")
    args = ap.parse_args(argv)

    workdir = os.path.join(args.out, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = load(args.workload, args.seed, workdir)
        ops = wl.round(0)
        print(f"READY {rss_mb():.3f}", flush=True)
        if args.setup_only:
            return 0
        result = check(wl, ops, args) if args.check else measure(wl, ops, args)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
