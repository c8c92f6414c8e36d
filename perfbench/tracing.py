"""Traced mode: spans and counts around calls into each layer.

``install`` replaces each layer entry point with a wrapper.  A function is
replaced under every name any filtcones module bound it to (for example
``fragmetric.planar_shadow`` as well as ``shadow.planar_shadow``); a method
is replaced on its class.  Wrappers record only while an op runs, so input
generation and output checks leave no trace.  Spans (name, start, end,
parent span, op) stay in memory until ``write_spans``.

A span's self time is its duration minus the time covered by its child
spans; the ``.ms`` metrics are summed self times.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = [
    ("novikov.scalars", "count"),
    ("novikov.mul.calls", "count"),
    ("novikov.invert.calls", "count"),
    ("filtcx.boundary_level.calls", "count"),
    ("filtcx.boundary_level.ms", "ms"),
    ("filtcx.grid.builds", "count"),
    ("filtcx.grid.reuses", "count"),
    ("filtcx.grid.monomials", "count"),
    ("filtcx.grid.ms", "ms"),
    ("filtcx.homology_rank.calls", "count"),
    ("filtcx.homology_rank.ms", "ms"),
    ("filtcx.find_robust_subspace.calls", "count"),
    ("filtcx.find_robust_subspace.ms", "ms"),
    ("wfainf.cone.calls", "count"),
    ("wfainf.cone.ms", "ms"),
    ("wfainf.yoneda_module.calls", "count"),
    ("wfainf.yoneda_module.ms", "ms"),
    ("twisted.retract_energy.calls", "count"),
    ("twisted.retract_energy.ms", "ms"),
    ("twisted.check_twisted_square_zero.calls", "count"),
    ("twisted.check_twisted_square_zero.ms", "ms"),
    ("curves.TorusCurve.calls", "count"),
    ("curves.TorusCurve.ms", "ms"),
    ("curves.intersections.calls", "count"),
    ("curves.intersections.ms", "ms"),
    ("curves.surgery.calls", "count"),
    ("curves.surgery.ms", "ms"),
    ("curves.count_transverse_crossings.calls", "count"),
    ("curves.count_transverse_crossings.ms", "ms"),
    ("floer.hf_rank.calls", "count"),
    ("floer.hf_rank.ms", "ms"),
    ("floer.floer_complex.calls", "count"),
    ("floer.floer_complex.ms", "ms"),
    ("floer.enumerate_bigons.calls", "count"),
    ("floer.enumerate_bigons.ms", "ms"),
    ("floer.bigons", "count"),
    ("shadow.planar_shadow.calls", "count"),
    ("shadow.planar_shadow.ms", "ms"),
    ("shadow.planar_shadow.segments", "count"),
    ("shadow.planar_shadow.repeats", "count"),
    ("widths.gromov_width_rel.calls", "count"),
    ("widths.gromov_width_rel.ms", "ms"),
    ("widths.gromov_width_double_points.calls", "count"),
    ("widths.gromov_width_double_points.ms", "ms"),
    ("fragmetric.d_k.calls", "count"),
    ("fragmetric.d_k.ms", "ms"),
    ("fragmetric.d_f.calls", "count"),
    ("fragmetric.d_hat.calls", "count"),
    ("fragmetric.cone_length.calls", "count"),
    ("fragmetric.probe_verify.ms", "ms"),
    ("scenarios.space.calls", "count"),
    ("scenarios.space.ms", "ms"),
    ("cli.main.calls", "count"),
    ("cli.main.ms", "ms"),
    ("ref.kernel_ms", "ms"),
]

MODULES = [
    "filtcones.novikov", "filtcones.filtcx", "filtcones.wfainf",
    "filtcones.twisted", "filtcones.surface", "filtcones.surface.curves",
    "filtcones.surface.floer", "filtcones.surface.shadow",
    "filtcones.surface.widths", "filtcones.fragmetric",
    "filtcones.scenarios", "filtcones.cli",
]


def _diagram_key(diagram):
    segs = tuple(sorted(tuple(sorted(s)) for s in diagram.segments))
    return segs, tuple(sorted(diagram.rays))


class Tracer:
    def __init__(self):
        self.op: Optional[int] = None
        self.stack: List[list] = []       # [span index, child seconds]
        self.spans: List[tuple] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.shadow_seen: set = set()

    def begin_op(self, op: int):
        self.op = op
        self.shadow_seen = set()

    def end_op(self):
        self.op = None

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            idx = len(tracer.spans)
            parent = stack[-1][0] if stack else None
            frame = [idx, 0.0]
            stack.append(frame)
            tracer.spans.append(None)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer.spans[idx] = (name, t0, t1, parent, tracer.op)
                tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ---------------------------------------------------------------

    def metrics(self, kernel_ms: float) -> Dict[str, dict]:
        out = {}
        for name, unit in PER_LAYER:
            if name == "ref.kernel_ms":
                value = kernel_ms
            elif name.endswith(".ms"):
                value = self.self_s.get(name[:-3], 0.0) * 1000.0
            else:
                value = self.counts.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path: str):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "op": op, "parent": parent,
                    "start_us": round((t0 - origin) * 1e6, 1),
                    "end_us": round((t1 - origin) * 1e6, 1)}) + "\n")


def _replace_everywhere(modules, orig, wrapper):
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def install() -> Tracer:
    """Wrap every layer entry point; returns the tracer that records them."""
    mods = {name: importlib.import_module(name) for name in MODULES}
    tracer = Tracer()
    loaded = list(mods.values())

    def fn(module, attr, name, after=None):
        orig = getattr(mods[module], attr)
        _replace_everywhere(loaded, orig, tracer.span(name, orig, after))

    def method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), after))

    nov = mods["filtcones.novikov"].NovikovScalar
    nov.__init__ = tracer.counter("novikov.scalars", nov.__init__)
    nov.__mul__ = tracer.counter("novikov.mul.calls", nov.__mul__)
    nov.invert = tracer.counter("novikov.invert.calls", nov.invert)

    fx = mods["filtcones.filtcx"]
    fn("filtcones.filtcx", "boundary_level", "filtcx.boundary_level")
    fn("filtcones.filtcx", "homology_rank", "filtcx.homology_rank")
    fn("filtcones.filtcx", "find_robust_subspace", "filtcx.find_robust_subspace")
    grid_orig = fx.FilteredComplex.grid

    def grid(self, chains=()):
        before = self._grid
        result = grid_orig(self, chains)
        if tracer.op is not None:
            if result is before:
                tracer.counts["filtcx.grid.reuses"] += 1
            else:
                tracer.counts["filtcx.grid.builds"] += 1
                tracer.counts["filtcx.grid.monomials"] += len(result.monomials)
        return result

    fx.FilteredComplex.grid = tracer.span("filtcx.grid", grid)

    fn("filtcones.wfainf", "cone", "wfainf.cone")
    fn("filtcones.wfainf", "yoneda_module", "wfainf.yoneda_module")
    fn("filtcones.twisted", "retract_energy", "twisted.retract_energy")
    fn("filtcones.twisted", "check_twisted_square_zero",
       "twisted.check_twisted_square_zero")

    cv = mods["filtcones.surface.curves"]
    method(cv.TorusCurve, "__init__", "curves.TorusCurve")
    fn("filtcones.surface.curves", "intersections", "curves.intersections")
    fn("filtcones.surface.curves", "surgery", "curves.surgery")
    fn("filtcones.surface.curves", "count_transverse_crossings",
       "curves.count_transverse_crossings")

    def bigons(args, kwargs, result):
        tracer.counts["floer.bigons"] += len(result)

    fn("filtcones.surface.floer", "hf_rank", "floer.hf_rank")
    fn("filtcones.surface.floer", "floer_complex", "floer.floer_complex")
    fn("filtcones.surface.floer", "enumerate_bigons", "floer.enumerate_bigons",
       bigons)

    def shadow(args, kwargs, result):
        diagram = args[0] if args else kwargs["diagram"]
        tracer.counts["shadow.planar_shadow.segments"] += len(diagram.segments)
        key = _diagram_key(diagram)
        if key in tracer.shadow_seen:
            tracer.counts["shadow.planar_shadow.repeats"] += 1
        tracer.shadow_seen.add(key)

    fn("filtcones.surface.shadow", "planar_shadow", "shadow.planar_shadow",
       shadow)
    fn("filtcones.surface.widths", "gromov_width_rel",
       "widths.gromov_width_rel")
    fn("filtcones.surface.widths", "gromov_width_double_points",
       "widths.gromov_width_double_points")

    fm = mods["filtcones.fragmetric"]
    method(fm.MetricSpace, "d_k", "fragmetric.d_k")
    method(fm.MetricSpace, "d_f", "fragmetric.d_f")
    method(fm.MetricSpace, "d_hat", "fragmetric.d_hat")
    method(fm.MetricSpace, "cone_length", "fragmetric.cone_length")
    method(fm.ProbeFamily, "verify", "fragmetric.probe_verify")

    for attr in ("lem_ex1_space", "trace_surgery_space", "disjoint_union_space"):
        fn("filtcones.scenarios", attr, "scenarios.space")
    fn("filtcones.cli", "main", "cli.main")
    return tracer
