"""The static guards: each "one implementation per concept" rule of
``src/`` as a check over one parsed index of the tree.

Run it from anywhere with ``python tests/guards.py``; it is stdlib only,
and pytest does not collect it (``tests/test_guards.py`` runs every guard
in tier-1).  It finds the repository as its own parent directory, prints
every violation line and exits 1 on any.

To add a guard, write one function ``(index) -> list of violation
lines``, append it to ``GUARDS``, and give it one fixture in
``tests/test_guards.py``: a patch of ``src/`` that the guard refuses.
"""

import ast
import functools
import re
import sys
from collections import defaultdict
from pathlib import Path

SRC = Path("src/filtcones")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# one parse per source text: an index of a patched copy of the tree
# parses the patched files alone
parse = functools.lru_cache(maxsize=None)(ast.parse)


def callee(call: ast.Call):
    """The name a call is made by: ``f(...)`` and ``x.f(...)`` give f."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def calls(node, name):
    """The calls by callee name ``name`` inside ``node``."""
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Call) and callee(n) == name]


def stores(node, attr):
    """The lines inside ``node`` that store ``self.<attr>``."""
    return [n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and n.attr == attr
            and isinstance(n.ctx, ast.Store)
            and getattr(n.value, "id", None) == "self"]


def names(nodes, strings=False):
    """The names used inside ``nodes``: read or stored names, attribute
    names, imported names and, with ``strings``, string literals."""
    return {n.id if isinstance(n, ast.Name) else
            n.attr if isinstance(n, ast.Attribute) else
            n.name if isinstance(n, ast.alias) else n.value
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
            or (strings and isinstance(n, ast.Constant)
                and isinstance(n.value, str))}


def defined(node, *banned):
    """The functions and classes inside ``node`` named one of ``banned``."""
    return [n for n in ast.walk(node)
            if isinstance(n, DEFS) and n.name in banned]


def members(node):
    """The functions and classes defined in a module's or a class's body,
    by name."""
    return {n.name: n for n in node.body if isinstance(n, DEFS)}


class Index:
    """Every ``.py`` file under ``src/``, ``perfbench/`` and ``tests/`` of
    the tree at ``root``, read and parsed once, keyed by its path relative
    to ``root``, with every call of the tree by callee name."""

    def __init__(self, root):
        root = Path(root)
        self.text = {f.relative_to(root): f.read_text()
                     for d in ("src", "perfbench", "tests")
                     for f in sorted((root / d).rglob("*.py"))}
        self.trees = {f: parse(t) for f, t in self.text.items()}
        self.src = {f: t for f, t in self.trees.items() if f.parts[0] == "src"}
        self.calls = defaultdict(list)
        for tree in self.trees.values():
            for n in ast.walk(tree):
                if isinstance(n, ast.Call):
                    self.calls[callee(n)].append(n)

    def defs(self):
        """(file, class name or None, node) of each function and class of
        ``src/``, at module level or in a class body."""
        todo = [(f, None, n) for f, t in self.src.items() for n in t.body]
        for f, _, n in todo:  # a class's body joins the walk
            if isinstance(n, ast.ClassDef):
                todo += [(f, n.name, m) for m in n.body]
        return [d for d in todo if isinstance(d[2], DEFS)]

    def top(self, module):
        """The top-level functions and classes of ``src/filtcones/<module>``
        by name."""
        return members(self.trees[SRC / module])

    def grep(self, pattern, files):
        """``grep -n``: each line of ``files`` that the regular expression
        ``pattern`` matches, as ``path:line:text``."""
        return [f"{f}:{i}:{line}" for f in files
                for i, line in enumerate(self.text[f].split("\n"), 1)
                if re.search(pattern, line)]


# an inverse's least action is read by chain_left_inverse_action alone;
# no cut series of a map's inverse may come back
def inverse_series(ix):
    return [line for line in ix.grep(
        r"def (left_inverse|invert_map|filtered_inverse)\b|\.below_cutoff\(",
        ix.src) if "novikov.py" not in line]


# every input line has its comment cut by novikov.content_lines alone, and
# every key=value word is read by novikov.options alone
def line_reader(ix):
    cuts = ix.grep(re.escape('split("#", 1)'), ix.src)
    return ([] if len(cuts) == 1 else
            [f'split("#", 1) on {len(cuts)} lines, not 1', *cuts]) \
        + ix.grep(re.escape('split("=")'), ix.src)


# a Floer rank is read off the classes and the flux: hf_rank builds no
# complex and no crossing record, and runs neither the polygon walk nor an
# elimination
def floer_ranks(ix):
    used = names([ix.top("surface/floer.py")["hf_rank"]])
    return [f"hf_rank reaches {n}" for n in sorted(used & {
        "floer_complex", "enumerate_bigons", "_polygons", "homology_rank",
        "crossings", "Crossing"})]


# two curves meet through one contact scan, curves._contacts: the contact
# predicate is called there and in the planar shadow's segment splitter
# only, and no second scan, mode flag or lift wrapper comes back
def contact_scan(ix):
    callers = {("curves.py", "_contacts"), ("shadow.py", "_atomic_segments")}
    bad = []
    for f, tree in ix.src.items():
        bad += [f"{f}: defines {n.name}"
                for n in defined(tree, "_crossing_points", "_Lift")]
        if f.name == "curves.py":
            bad += [f"{f}: a proper parameter" for n in ast.walk(tree)
                    if isinstance(n, ast.arg) and n.arg == "proper"]
        bad += [f"{f}: {name} calls _seg_common"
                for name, n in members(tree).items()
                if (f.name, name) not in callers and calls(n, "_seg_common")]
    return bad


# the planar shadow builds its arrangement in one integer frame: no
# Fraction bounding box, and no Fraction until the areas and faces are
# returned
def shadow_integers(ix):
    funcs = ix.top("surface/shadow.py")
    shadow = funcs["planar_shadow"]
    returned = {id(n) for r in ast.walk(shadow) if isinstance(r, ast.Return)
                for n in ast.walk(r)}
    bad = [f"planar_shadow calls .bounds() on line {n.lineno}"
           for n in calls(shadow, "bounds")]
    for name, allowed in (("_atomic_segments", set()),
                          ("planar_shadow", returned)):
        bad += [f"{name} builds a Fraction on line {n.lineno}"
                for n in calls(funcs[name], "Fraction")
                if id(n) not in allowed]
    return bad


# d_F, d-hat and l_a range over every end count: no cap on the number of
# ends may come back into the metric queries
def end_count_cap(ix):
    return ix.grep("kmax", [SRC / "fragmetric.py"])


# a width lower bound is read on one integer frame per space: the space
# keeps one strand table per object and reads it in _set_bound alone, a
# table never changes its frame, and the strand lines are read off the
# curves' kept strands; no width memo, second bound path, lazy rescale or
# keep-in box comes back
def width_frame(ix):
    space = ix.top("fragmetric.py")["MetricSpace"]
    table = ix.top("surface/widths.py")["StrandTable"]
    bad = [f"{cls.name} defines {n.name}" for cls, banned in (
        (space, ("prune_lower_bound", "carrier_curves", "cover_curves")),
        (ix.top("surface/curves.py")["TorusCurve"], ("strand_lines",)))
        for n in defined(cls, *banned)]
    bad += [f"MetricSpace sets _widths on line {i}"
            for i in stores(space, "_widths")]
    bad += [f"StrandTable.{name} sets self.scale on line {i}"
            for name, m in members(table).items() if name != "__init__"
            for i in stores(m, "scale")]
    return bad + [f"widths.py defines Box on line {n.lineno}"
                  for n in defined(ix.trees[SRC / "surface/widths.py"], "Box")]


# each algebraic type has one sum: chains add through filtcx.chain_sum (no
# accumulator folded through chain_add), a chain is scaled only inside
# that sum (no chain_scale), and a Novikov sum or product hands its
# exponents to the constructor, whose toggle is the one characteristic-2
# cancellation
def one_sum(ix):
    bad = [f"{f}:{n.lineno}: {n.targets[0].id} = chain_add("
           f"{n.targets[0].id}, ...)"
           for f, tree in ix.src.items() for n in ast.walk(tree)
           if isinstance(n, ast.Assign) and len(n.targets) == 1
           and isinstance(n.targets[0], ast.Name)
           and isinstance(n.value, ast.Call)
           and callee(n.value) == "chain_add" and n.value.args
           and getattr(n.value.args[0], "id", None) == n.targets[0].id]
    bad += [f"{SRC / 'filtcx.py'}:{n.lineno}: defines chain_scale"
            for n in defined(ix.trees[SRC / "filtcx.py"], "chain_scale")]
    scalar = members(ix.top("novikov.py")["NovikovScalar"])
    return bad + [f"{SRC / 'novikov.py'}:{n.lineno}: NovikovScalar.{name} "
                  "cancels on its own" for name in ("__add__", "__mul__")
                  for n in ast.walk(scalar[name]) if isinstance(n, ast.For)
                  or isinstance(n, ast.Call)
                  and callee(n) in ("add", "remove")]


# the relation checks and the module maps compose operation tables in one
# walk over their nonzero entries, wfainf._insertions: _check_relations,
# mu1_mod and mu2_mod call neither the tuple walk nor _tabulate, and no
# per-tuple insertion sum _insert comes back
def insertion_walk(ix):
    wf = ix.top("wfainf.py")
    users = {"_check_relations": members(wf["_Table"])["_check_relations"],
             "mu1_mod": wf["mu1_mod"], "mu2_mod": wf["mu2_mod"]}
    bad = [f"{name} calls {banned}" for name, node in users.items()
           for banned in ("tuples", "_tabulate") if calls(node, banned)]
    return bad + [f"{SRC / 'wfainf.py'}:{n.lineno}: defines _insert"
                  for n in defined(ix.trees[SRC / "wfainf.py"], "_insert")]


# the paper-lemma checks, and what only they use, that only tests reach
ONLY_TESTS = {
    "rho_upper_from_witness", "check_assumption_E", "choose_eps",
    "check_mod_squared_condition", "verify_hom_filtration", "rename_module",
    "cone_compose", "cone_boundary_correction", "pullback_cone", "lambda_map",
    "check_Ue", "check_Us", "check_URe", "unit_square_homotopy",
    "assh_cone_kappa", "alpha_ledger", "bounds_chi_xi", "cone_replace",
    "verify_rig_cplx2", "check_injectivity_lemma", "audit_structure_theorem",
    "boundary_depth_map", "check_Uw", "weight_wp", "FilteredMap.compose",
    "WFModule.action_table", "mu2_triangles",
    # reached only through the code of the names above
    "FilteredComplex.shift_actions", "FilteredMap.apply",
    "FilteredMap.is_chain_map", "PreModHom.apply", "WFFunctor",
    "WFFunctor.higher_vanish", "_compositions", "_endomorphism",
    "_homotopic_to_identity", "_pullback_value", "_unit_action_map",
    "cycle_basis", "disc_star", "homotopical_boundary_level", "map_to_chain",
    "mu2_mod", "pullback_disc", "pullback_hom", "pullback_module",
    "shift_module", "_Table.tuples", "_tabulate",
}


# every top-level src/ function, class and method is reached from cli.main,
# from src/ module-level code (imports aside) or from a name or string
# literal in perfbench/ (the tracer wraps functions by name), through the
# code of what is reached, except the names listed above.  Names are
# matched alone; a reached class reaches its body but for its non-dunder
# methods, which are reached by name.
def reachability(ix):
    code = defaultdict(list)  # a name -> [(qualified name, its code)]
    for _, cls, n in ix.defs():
        if isinstance(n, ast.ClassDef):
            code[n.name].append((n.name, [
                *n.bases, *n.keywords, *n.decorator_list,
                *(m for m in n.body if not isinstance(m, DEFS)
                  or m.name.startswith("__"))]))
        elif not n.name.startswith("__"):
            code[n.name].append((f"{cls}.{n.name}" if cls else n.name, [n]))
    roots = [ix.top("cli.py")["main"]] + [
        n for tree in ix.src.values() for n in tree.body
        if not isinstance(n, (*DEFS, ast.Import, ast.ImportFrom))]
    bench = [t for f, t in ix.trees.items() if f.parts[0] == "perfbench"]
    todo, used = names(roots) | names(bench, strings=True), set()
    while todo:
        used |= todo
        todo = names([node for name in todo for _, nodes in code.get(name, ())
                      for node in nodes]) - used
    unreached = {q for name, defs in code.items() if name not in used
                 for q, _ in defs}
    return [f"reached only from tests: {q}"
            for q in sorted(unreached - ONLY_TESTS)] + \
        [f"now reached, drop it from the list: {q}"
         for q in sorted(ONLY_TESTS - unreached)]


def sets(call, i, p):
    """Whether ``call`` may pass the parameter ``p`` at position ``i``
    (None for a keyword-only one): by keyword, through ``**kwargs``, or by
    position, with ``*args`` filling any position."""
    kw = {k.arg for k in call.keywords}
    star = any(isinstance(a, ast.Starred) for a in call.args)
    return p in kw or None in kw \
        or i is not None and (star or len(call.args) > i)


# a defaulted parameter of a src/ function or method is passed, by keyword
# or by position, by some call in src/, perfbench/ or tests/; calls are
# matched by callee name, and by class name for __init__
def parameters(ix):
    unset = []
    for f, cls, n in ix.defs():
        if isinstance(n, ast.ClassDef):
            continue
        a = n.args
        pos = a.posonlyargs + a.args
        static = "staticmethod" in names(n.decorator_list)
        skip = 1 if cls and not static else 0  # self or cls
        first = len(pos) - len(a.defaults)
        params = [(i - skip, p.arg) for i, p in enumerate(pos) if i >= first]
        params += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                   if d is not None]
        seen = ix.calls[cls if n.name == "__init__" else n.name]
        unset += [f"no call sets: {f}:{n.lineno}: "
                  f"{cls + '.' if cls else ''}{n.name}({p})"
                  for i, p in params if not any(sets(c, i, p) for c in seen)]
    return sorted(unset)


GUARDS = [inverse_series, line_reader, floer_ranks, contact_scan,
          shadow_integers, end_count_cap, width_frame, one_sum,
          insertion_walk, reachability, parameters]


def main() -> int:
    index = Index(Path(__file__).resolve().parent.parent)
    bad = [line for guard in GUARDS for line in guard(index)]
    sys.stdout.writelines(line + "\n" for line in bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
