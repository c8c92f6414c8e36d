"""Batch front end: parse scenario files, run computations, emit reports.

Report lines follow "QUERY | RESULT | WITNESS | STATUS"; all numbers are
printed as exact rationals with a decimal approximation.  The exit code
is 0 iff every assertion in the run passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .novikov import DEFAULT_CUTOFF, INF, content_lines, error_text, \
    name_tuple, on_line, options, rat
from .filtcx import (
    FiltError, action_level, boundary_depth_elem, boundary_level,
    delta_d, parse_chain, parse_complex,
)
from .surface.curves import TorusCurve, intersections, parse_curve
from .surface.floer import floer_complex, hf_rank
from .surface.shadow import parse_diagram, planar_shadow
from .surface.svg import curves_to_svg, diagram_to_svg
from .surface.widths import gromov_width_rel
from .fragmetric import (
    FragError, LagObject, MetricSpace, Move, suspension_move, trace_move,
)
from . import scenarios as canned


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, Fraction):
        if x >= INF:
            return "inf"
        if x <= -INF:
            return "-inf"
        return f"{x} (~{float(x):.6g})"
    return str(x)


class Report:
    def __init__(self):
        self.failed = 0

    def emit(self, query: str, result, witness="", status="ok"):
        print(f"{query} | {_fmt(result)} | {witness or '-'} | {status}")
        if status not in ("ok", "pass"):
            self.failed += 1

    def check(self, query: str, result, expected, witness=""):
        status = "pass" if result == expected else f"FAIL (want {_fmt(expected)})"
        self.emit(query, result, witness, status)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

class Scenario:
    def __init__(self):
        self.curves: Dict[str, TorusCurve] = {}
        self.objects: List[LagObject] = []
        self.families: Dict[str, List[str]] = {}
        self.moves: List[Move] = []
        self.queries: List[str] = []
        self.asserts: List[Tuple[str, Fraction]] = []  # (query, value)
        self.space: Optional[MetricSpace] = None

    def metric_space(self) -> MetricSpace:
        if self.space is None:
            names = {o.name for o in self.objects}
            for c in self.curves:
                if c not in names:
                    self.objects.append(LagObject(c, [c]))
                    names.add(c)
            self.space = MetricSpace(self.curves, self.objects,
                                     self.families, self.moves)
        return self.space


# the canned scenarios and the key=value options each takes, in the order
# of its builder's arguments
CANNED = {"lem-ex1": (canned.lem_ex1_space, ("eps", "delta")),
          "trace-surgery": (canned.trace_surgery_space, ("eps", "delta")),
          "disjoint-union": (canned.disjoint_union_space, ("eps",))}


def parse_scenario(text: str) -> Scenario:
    """A scenario from its lines; lines, options, vertex lists and name
    tuples are read by the ``novikov`` line reader."""
    sc = Scenario()
    for lineno, line in content_lines(text):
        word, _, rest = line.partition(" ")
        with on_line(lineno, FragError):
            if sc.space is not None and word in ("object", "family", "move"):
                raise FragError(f"{line!r} cannot extend a canned scenario")
            if word == "scenario":
                if sc.space is not None or sc.curves or sc.objects or \
                        sc.families or sc.moves:
                    raise FragError(f"{line!r} must precede every other "
                                    "definition and appear once")
                name, *words = rest.split()
                if name not in CANNED:
                    raise FragError(f"unknown canned scenario {name}")
                build, keys = CANNED[name]
                kw = {"eps": "1/8", "delta": "1/256", **options(words, keys)}
                sc.space = build(*(rat(kw[k]) for k in keys))
                sc.curves = sc.space.curves
            elif word == "curve":
                c = parse_curve(line)
                if c.name in sc.curves:
                    raise FragError(f"curve {c.name} is already defined")
                sc.curves[c.name] = c
            elif word == "object":
                name, *words = rest.split()
                if any(o.name == name for o in sc.objects):
                    raise FragError(f"object {name} given twice")
                kw = options(words, ("carrier", "cover", "geometry"))
                sc.objects.append(LagObject(
                    name,
                    kw.get("carrier", name).split(","),
                    kw["cover"].split(",") if kw.get("cover") else None,
                    kw.get("geometry")))
            elif word == "family":
                head, rest = rest.split("=", 1)
                if head.strip() in sc.families:
                    raise FragError(f"family {head.strip()} given twice")
                sc.families[head.strip()] = rest.split()
            elif word == "move":
                kind, _, rest = rest.strip().partition(" ")
                if kind not in ("suspension", "trace"):
                    raise FragError(f"unrecognized scenario line {line!r}")
                head, rest = rest.split(":", 1)
                src, rest = rest.split("->", 1)
                if kind == "suspension":
                    dst, *words = rest.split()
                    length = rat(options(words, ("length",))["length"])
                    sc.moves.append(suspension_move(head.strip(), src.strip(),
                                                    dst, length))
                else:
                    ends, sep, rest = rest.partition(")")
                    kw = options(rest.split(), ("handles", "groups"))
                    sc.moves.append(trace_move(
                        head.strip(), src.strip(), name_tuple(ends + sep),
                        [rat(v) for v in kw["handles"].split(",")],
                        [int(v) for v in kw["groups"].split(",")]))
            elif word == "query":
                sc.queries.append(rest.strip())
            elif word == "assert":
                q, sep, value = rest.rpartition("==")
                if not sep:
                    raise FragError(f"expected '<query> == <value>', got "
                                    f"{line!r}")
                sc.asserts.append((q.strip(), rat(value.strip())))
            else:
                raise FragError(f"unrecognized scenario line {line!r}")
    return sc


# the key=value options each query kind on two names takes
QUERY_OPTIONS = {"d_k": ("k", "family"), "l_a": ("a", "family"),
                 "d_F": ("family",), "floer": (), "intersections": ()}


def run_query(space: MetricSpace, q: str, rep: Report,
              expected=None):
    """Answer one query; a malformed one, or one naming an unknown object,
    curve, family or option, gets an ``error:`` report line."""
    try:
        _answer_query(space, q, rep, expected)
    except (KeyError, ValueError) as exc:
        rep.emit(q, None, "", f"error: {error_text(exc)}")


def _answer_query(space: MetricSpace, q: str, rep: Report, expected):
    parts = q.split()
    kind = parts[0] if parts else ""
    if kind in QUERY_OPTIONS:
        if len(parts) < 3:
            raise ValueError(f"{kind} needs two names")
        kw = options(parts[3:], QUERY_OPTIONS[kind])
    if kind in ("d_k", "l_a", "d_F"):
        pair = (parts[1], parts[2], kw.get("family", "F"))
        if kind == "d_k":
            r = space.d_k(*pair, int(kw["k"]))
        elif kind == "l_a":
            a = None if kw.get("a", "inf") == "inf" else rat(kw["a"])
            r = space.cone_length(*pair, a)
        else:
            r = space.d_f(*pair)
        if expected is not None:
            rep.check(q, r.upper, expected, r.witness)
        else:
            rep.emit(q, f"[{_fmt(r.lower)}, {_fmt(r.upper)}]", r.witness, "ok")
        return
    if kind == "floer":
        val = hf_rank(space.curves[parts[1]], space.curves[parts[2]])
    elif kind == "intersections":
        val = len(intersections(space.curves[parts[1]],
                                space.curves[parts[2]]))
    elif kind == "width":
        kw = options(parts[1:], ("carrier", "q"))
        carrier = [space.curves[c] for c in kw["carrier"].split(",")]
        qset = [space.curves[c] for c in kw.get("q", "").split(",") if c]
        val = gromov_width_rel(carrier, qset)
    else:
        rep.emit(q, None, "", f"error: unknown query {kind}")
        return
    if expected is None:
        rep.emit(q, val)
    else:
        # a count asserted integral is reported as an integer
        integral = isinstance(val, int) and expected.denominator == 1
        rep.check(q, val, int(expected) if integral else expected)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

class InputError(Exception):
    """A malformed input file; ``main`` reports it on one line, exit 2."""


def _parse_file(path: str, parse, **kw):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return parse(text, **kw)
    except (ValueError, ArithmeticError, LookupError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def cmd_metric(args) -> int:
    rep = Report()
    sc = _parse_file(args.scenario, parse_scenario)
    space = sc.metric_space()
    queries = list(sc.queries)
    if args.query:
        queries += args.query
    for q in queries:
        run_query(space, q, rep)
    for q, expected in sc.asserts:
        run_query(space, q, rep, expected=expected)
    if args.svg:
        os.makedirs(args.svg, exist_ok=True)
        path = os.path.join(args.svg, "curves.svg")
        with open(path, "w") as f:
            f.write(curves_to_svg(space.curves))
        rep.emit("svg curves", path)
    return 1 if rep.failed else 0


def cmd_floer(args) -> int:
    rep = Report()
    sc = _parse_file(args.scenario, parse_scenario)
    space = sc.metric_space()
    if args.pair:
        a, b = args.pair
        run_query(space, f"floer {a} {b}", rep)
        try:
            cx = floer_complex(space.curves[a], space.curves[b])
            rep.emit(f"complex {a} {b}",
                     f"{cx.dim} generators, delta_d={_fmt(delta_d(cx))}")
        except (KeyError, ValueError) as exc:
            rep.emit(f"complex {a} {b}", None, "", f"error: {error_text(exc)}")
    else:
        for q in sc.queries:
            if q.partition(" ")[0] in ("floer", "intersections"):
                run_query(space, q, rep)
    return 1 if rep.failed else 0


def cmd_depth(args) -> int:
    rep = Report()
    cx = _parse_file(args.complex, parse_complex, cutoff=args.cutoff)
    for q in args.query or []:
        parts = q.split()
        if len(parts) != 2 or parts[1] not in cx.action:
            rep.emit(q, None, "", "error: a depth query is <B|beta|A> "
                     "<generator of the complex>")
            continue
        kind, gen = parts
        c = cx.basis_chain(gen)
        try:
            if kind == "B":
                rep.emit(q, boundary_level(c, cx))
            elif kind == "beta":
                rep.emit(q, boundary_depth_elem(c, cx))
            elif kind == "A":
                rep.emit(q, action_level(c, cx))
            else:
                rep.emit(q, None, "", f"error: unknown depth query {kind}")
        except FiltError as exc:
            rep.emit(q, None, "", f"error: {exc}")
    rep.emit("delta_d", delta_d(cx))
    return 1 if rep.failed else 0


def cmd_shadow(args) -> int:
    rep = Report()
    d = _parse_file(args.diagram, parse_diagram)
    rep.emit("shadow", planar_shadow(d))
    if args.svg:
        os.makedirs(args.svg, exist_ok=True)
        path = os.path.join(args.svg, "diagram.svg")
        with open(path, "w") as f:
            f.write(diagram_to_svg(d))
        rep.emit("svg diagram", path)
    return 1 if rep.failed else 0


def cmd_width(args) -> int:
    rep = Report()
    sc = _parse_file(args.scenario, parse_scenario)
    space = sc.metric_space()
    for q in args.query or []:
        run_query(space, q, rep)
    return 1 if rep.failed else 0


def cmd_twisted_check(args) -> int:
    from .wfainf import DEFAULT_ARITY_CAP, Discrepancy, PreModHom, WfError, \
        key_ends, parse_category, yoneda_module
    from .twisted import TwistedData, TwistedError, assemble_twisted_mu1, \
        build_iterated_cone, check_twisted_square_zero
    rep = Report()
    obj_list, objects_lines, cycles, phi_lines = [], [], {}, []
    phi_tables: dict = {}

    def parse_spec(text):
        # the objects, c and phi lines are read here and the numbered rest
        # by parse_category
        cat_lines = []
        for n, line in content_lines(text):
            word, _, rest = line.partition(" ")
            with on_line(n):
                if word == "objects":
                    if objects_lines:
                        raise ValueError("objects given twice")
                    objects_lines.append(n)
                    obj_list[:] = rest.split()
                elif word == "c":
                    head, rhs = rest.split("->", 1)
                    qs, ps = head.split()
                    if (int(qs), int(ps)) in cycles:
                        raise ValueError(f"c {qs} {ps} given twice")
                    cycles[(int(qs), int(ps))] = parse_chain(rhs, args.cutoff)
                elif word == "phi":
                    head, rhs = rest.split("->", 1)
                    i, gens = head.split(None, 1)
                    gens = name_tuple(gens)  # phi_tables[i][arity][gens]
                    table = phi_tables.setdefault(int(i), {}).setdefault(
                        len(gens), {})
                    if gens in table:
                        raise ValueError(f"phi {i} ({','.join(gens)}) given "
                                         "twice")
                    table[gens] = parse_chain(rhs, args.cutoff)
                    phi_lines.append((n, int(i), gens))
                else:
                    cat_lines.append((n, line))
        # phi_i attaches L_i to K_{i-1}: the stages run 1..r, r < #objects
        r = len(phi_tables)
        if r and (set(phi_tables) != set(range(1, r + 1))
                  or r >= len(obj_list)):
            raise TwistedError("phi lines must number the stages 1, 2, ..., "
                               "r with r below the number of objects")
        cap = args.arity_cap
        cat = parse_category(cat_lines, cutoff=args.cutoff,
                             cap=DEFAULT_ARITY_CAP if cap is None else cap)
        # a phi i key is a tuple of the Yoneda module of L_i
        for n, i, gens in phi_lines:
            with on_line(n):
                where = f"phi {i} ({','.join(gens)})"
                end = key_ends(cat.gen_hom, where, gens)[1]
                if end != obj_list[i]:
                    raise ValueError(f"{where}: {gens[-1]} ends at {end}, "
                                     f"not at {obj_list[i]}")
        return cat

    cat = _parse_file(args.spec, parse_spec)
    if not cat.objects:
        raise InputError(f"{args.spec}: no object line")
    test_obj = cat.objects[0]
    try:  # bad cycles, an arity cap below r, or a pair with no hom complex
        data = TwistedData(cat, obj_list, cycles)
        sym = assemble_twisted_mu1(cat, obj_list)
        ok = check_twisted_square_zero(cat, obj_list, data, test_obj)
    except (TwistedError, WfError) as exc:
        rep.emit("twisted differential", None, "", f"error: {exc}")
        return 1
    for key in sorted(sym):
        rep.emit(f"entry {key}", sym[key])
    rep.emit(f"square-zero at {test_obj}", ok, "",
             "pass" if ok else "FAIL (mu_1^2 != 0)")
    if phi_tables:
        def attach(i):
            def build(k):
                f = PreModHom(yoneda_module(cat, obj_list[i]), k,
                              phi_tables[i])
                f.shift = f.max_shift()
                return f
            return build

        stages = sorted(phi_tables)
        try:
            k, ledger = build_iterated_cone(
                cat, obj_list[:max(stages) + 1], [attach(i) for i in stages],
                [0] * len(stages),
                [Discrepancy.zero(cat.cap, "hom")] * len(stages))
            for i, d in enumerate(ledger):
                rep.emit(f"cone ledger K_{i}",
                         " ".join(str(v) for v in d.values))
        except (KeyError, ValueError) as exc:
            rep.emit("iterated cone", None, "", f"error: {error_text(exc)}")
    return 1 if rep.failed else 0


def cmd_repro_lemma_ex1(args) -> int:
    rep = Report()
    try:
        eps, delta = rat(args.eps), rat(args.delta)
        if not delta < eps * eps / 2:
            rep.emit("precondition delta < eps^2/2",
                     f"{delta} vs {eps * eps / 2}", "", "FAIL (refused)")
            return 1
        space = canned.lem_ex1_space(eps, delta)
    except (ValueError, ArithmeticError) as exc:
        rep.emit(f"--eps {args.eps} --delta {args.delta}", None, "",
                 f"error: {exc}")
        return 1
    r0 = space.d_k("L'", "L", "F", 0)
    rep.check("d_0(L',L) lower", r0.lower, 4 * eps, r0.certificate)
    rep.check("d_0(L',L) upper", r0.upper, 4 * eps, r0.witness)
    r4 = space.d_k("L'", "L", "F", 4)
    rep.emit("d_4(L',L) upper", r4.upper, r4.witness,
             "pass" if r4.upper <= 2 * delta else "FAIL (> 2delta)")
    rep.check("trace footprint shadow", space.moves[1].shadow, 2 * delta)
    labs = space.cone_length("L'", "L", "F", None)
    rep.check("l(L',L)", labs.upper, 0, labs.witness)
    l2d = space.cone_length("L'", "L", "F", 2 * delta)
    rep.check("l_2delta(L',L)", l2d.upper, 4, l2d.witness)
    rep.check("l_2delta certified below", l2d.lower, 4, l2d.certificate)
    n, lp, l = space.curves["N"], space.curves["L'"], space.curves["L"]
    count = len(intersections(n, lp))
    rep.check("#(N cap L')", count, 4)
    ranks = sum(hf_rank(n, space.curves[f"S{i}"]) for i in range(1, 5))
    rep.check("sum rk HF(N,S_i)", ranks, 4)
    rank_l = hf_rank(n, l)
    rep.check("rk HF(N,L)", rank_l, 0)
    status = "pass" if count >= ranks + rank_l else "FAIL"
    rep.emit("intersection inequality", f"{count} >= {ranks + rank_l}", "",
             status)
    tspace = canned.trace_surgery_space(eps, delta)
    r1 = tspace.d_k("L''", "L", "F", 1)
    rep.check("d_1(L'',L) lower", r1.lower, delta, r1.certificate)
    rep.check("d_1(L'',L) upper", r1.upper, delta, r1.witness)
    dspace = canned.disjoint_union_space(eps)
    r3 = dspace.d_k("S1", "S2", "F", 3)
    rep.check("d^F_3(S1,S2) lower", r3.lower, Fraction(0), r3.certificate)
    rep.check("d^F_3(S1,S2) upper", r3.upper, Fraction(0), r3.witness)
    prev = None
    for e in (eps, eps / 2, eps / 4):
        s = planar_shadow(canned.connected_small_shadow_footprint(e))
        ok = s == e and (prev is None or s < prev)
        rep.emit(f"W_eps shadow at {e}", s, "",
                 "pass" if ok else "FAIL (not decreasing)")
        prev = s
    if args.svg:
        os.makedirs(args.svg, exist_ok=True)
        with open(os.path.join(args.svg, "lem-ex1.svg"), "w") as f:
            f.write(curves_to_svg(space.curves))
        with open(os.path.join(args.svg, "trace.svg"), "w") as f:
            f.write(diagram_to_svg(space.moves[1].footprint))
        rep.emit("svg", args.svg)
    return 1 if rep.failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="filtcones",
        description="Exact filtered-cone invariants and fragmentation "
                    "metrics on the flat torus")
    parser.add_argument("--cutoff", type=rat, default=DEFAULT_CUTOFF)
    # default wfainf.DEFAULT_ARITY_CAP, read where wfainf is imported
    parser.add_argument("--arity-cap", type=int)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("metric", help="run scenario metric queries")
    p.add_argument("--scenario", required=True)
    p.add_argument("--query", action="append")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("floer", help="Floer ranks for curve pairs")
    p.add_argument("--scenario", required=True)
    p.add_argument("--pair", nargs=2)
    p.set_defaults(func=cmd_floer)

    p = sub.add_parser("depth", help="boundary level/depth queries")
    p.add_argument("--complex", required=True)
    p.add_argument("--query", action="append")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("shadow", help="shadow of a planar diagram")
    p.add_argument("--diagram", required=True)
    p.add_argument("--svg")
    p.set_defaults(func=cmd_shadow)

    p = sub.add_parser("width", help="Gromov width queries")
    p.add_argument("--scenario", required=True)
    p.add_argument("--query", action="append")
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("twisted-check", help="assemble and audit twisted data")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_twisted_check)

    p = sub.add_parser("repro-lemma-ex1",
                       help="reproduce the torus example end to end")
    p.add_argument("--eps", default="1/8")
    p.add_argument("--delta", default="1/256")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_repro_lemma_ex1)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
