"""The static guards of ``tests/guards.py``: each one reports nothing on the
repository, and each one refuses its fixtures.

A fixture is a patch of ``src/``, (file under ``src/``, exact snippet,
replacement), the shape of a ``tests/mutants.py`` patch, with a line the
guard must report on a copy of the tree so patched.  Line numbers in
the reported lines are read as ``N``, so that a fixture outlives edits
above its snippet.  A snippet that does not occur exactly once fails the test:
mend the fixture in the change that moved the code.
"""

import re
import shutil
from pathlib import Path

import pytest

import guards

ROOT = Path(__file__).resolve().parent.parent
FILTCX, CLI = "filtcones/filtcx.py", "filtcones/cli.py"
WFAINF = "filtcones/wfainf.py"
FRAG, FLOER = "filtcones/fragmetric.py", "filtcones/surface/floer.py"
CURVES, SHADOW = "filtcones/surface/curves.py", "filtcones/surface/shadow.py"
WIDTHS = "filtcones/surface/widths.py"
HF_RANK = "def hf_rank(n_curve: TorusCurve, l_curve: TorusCurve) -> int:"
MU2_RETURN = "    return {key: chain for key, t in terms.items() " \
    "if (chain := chain_sum(t))}\n"

FIXTURES = [
    (guards.inverse_series, FILTCX, "def chain_add(",
     "def left_inverse(m):\n    return m.below_cutoff(0)\n\n\ndef chain_add(",
     "src/filtcones/filtcx.py:N:def left_inverse(m):"),
    (guards.line_reader, CLI, 'head, rest = rest.split("=", 1)',
     'head, rest = rest.split("=")',
     'src/filtcones/cli.py:N:                head, rest = rest.split("=")'),
    (guards.line_reader, CLI, "        word, _, rest = line.partition(\" \")\n"
     "        with on_line(lineno, FragError):",
     "        word, _, rest = line.split(\"#\", 1)[0].partition(\" \")\n"
     "        with on_line(lineno, FragError):",
     'split("#", 1) on 2 lines, not 1'),
    (guards.floer_ranks, FLOER, "    transverse_contacts(n_curve, l_curve)\n",
     "    crossings(n_curve, l_curve)\n", "hf_rank reaches crossings"),
    (guards.contact_scan, CURVES,
     "        last, cls = len(self.vertices) - 1, self.hclass\n",
     "        last, cls = len(self.vertices) - 1, self.hclass\n"
     "        _seg_common(*self.edges()[0], *self.edges()[1])\n",
     "src/filtcones/surface/curves.py: TorusCurve calls _seg_common"),
    (guards.shadow_integers, SHADOW,
     "    bx0, by0, bx1, by1 = min(xs) - q, min(ys) - q, max(xs) + q, "
     "max(ys) + q\n", "    bx0, by0, bx1, by1 = diagram.bounds()\n",
     "planar_shadow calls .bounds() on line N"),
    (guards.end_count_cap, FRAG,
     "def d_f(self, lp: str, l: str, family_name: str)",
     "def d_f(self, lp: str, l: str, family_name: str, kmax: int = 8)",
     "src/filtcones/fragmetric.py:N:    def d_f(self, lp: str, l: str, "
     "family_name: str, kmax: int = 8) -> MetricResult:"),
    (guards.width_frame, FRAG,
     "        self._tables: Dict[str, StrandTable] = {}\n",
     "        self._tables: Dict[str, StrandTable] = {}\n"
     "        self._widths = {}\n", "MetricSpace sets _widths on line N"),
    # the strands, their lines and the table on integers; the search's
    # heap loop on integer shadows
    (guards.width_frame, WIDTHS,
     "        return max((min(caps) for caps in zip(self.base, *cols)\n"
     "                    if None not in caps), default=0)\n",
     "        return Fraction(max((min(caps) for caps in zip(self.base, "
     "*cols)\n                    if None not in caps), default=0), "
     "self.scale ** 2)\n",
     "StrandTable builds a Fraction on line N"),
    (guards.width_frame, WIDTHS, "            lines[axis].add(coord * m)\n",
     "            lines[axis].add(Fraction(coord, c.scale))\n",
     "_lines builds a Fraction on line N"),
    (guards.width_frame, CURVES,
     "                runs.append([ax, (a[c] + q) % (2 * q) - q,\n",
     "                runs.append([ax, Fraction((a[c] + q) % (2 * q) - q, q),"
     "\n", "TorusCurve._strand_runs builds a Fraction on line N"),
    (guards.width_frame, FRAG,
     "                                shadow + step,",
     "                                shadow + self.moves[i].shadow,",
     "_search reads .shadow in its heap loop on line N"),
    (guards.one_sum, FILTCX,
     "        return chain_sum((h, s * t) for g, s in x.items()\n"
     "                         for h, t in self.diff.get(g, {}).items())\n",
     "        out: Chain = {}\n"
     "        for g, s in x.items():\n"
     "            out = chain_add(out, {h: s * t for h, t in "
     "self.diff.get(g, {}).items()})\n        return out\n",
     "src/filtcones/filtcx.py:N: out = chain_add(out, ...)"),
    (guards.insertion_walk, WFAINF,
     "    comps = _insertions(top, (f, g, None))\n",
     "    comps = _tabulate(f.source.tuples, range(1, top + 1),\n"
     "                      lambda t: {})\n", "mu2_mod calls _tabulate"),
    (guards.insertion_walk, WFAINF, "def table_sum(",
     "def _insert(gens, inner, outer):\n    return {}\n\n\n"
     "def table_sum(", "src/filtcones/wfainf.py:N: defines _insert"),
    # no exhaustive tuple walk comes back, here as a method of _Table
    (guards.insertion_walk, WFAINF, "    def _entries(self, top: int):",
     "    def tuples(self, n: int):\n        yield from ()\n\n"
     "    def _entries(self, top: int):",
     "src/filtcones/wfainf.py:N: defines tuples"),
    # the t^N modulus put back
    (guards.exact_elimination, FILTCX,
     "def _echelon(cols: List[List[int]], width: int):",
     "def _echelon(cols: List[List[int]], width: int, prec: int = 0):",
     "src/filtcones/filtcx.py:N: _echelon takes a third parameter"),
    # a helper that only a listed lemma check calls is reached from tests
    # alone, though src/ calls it
    (guards.reachability, FLOER, MU2_RETURN,
     "    return _nonzero_sums(terms)\n\n\ndef _nonzero_sums(terms):\n"
     + MU2_RETURN, "reached only from tests: _nonzero_sums"),
    (guards.reachability, FLOER, HF_RANK,
     f"RANKS = (hf_rank, mu2_triangles)\n\n\n{HF_RANK}",
     "now reached, drop it from the list: mu2_triangles"),
    (guards.parameters, FLOER, HF_RANK,
     HF_RANK.replace(") -> int", ", check: bool = True) -> int"),
     "no call sets: src/filtcones/surface/floer.py:N: hf_rank(check)"),
]


@pytest.fixture(scope="module")
def index():
    return guards.Index(ROOT)


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    for d in ("src", "perfbench", "tests"):
        shutil.copytree(ROOT / d, root / d,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.mark.parametrize("guard", guards.GUARDS, ids=lambda g: g.__name__)
def test_guard_reports_nothing_on_the_repository(index, guard):
    assert guard(index) == []


def test_the_entry_point_exits_0_on_the_repository(capsys):
    assert guards.main() == 0
    assert capsys.readouterr().out == ""


def test_every_guard_has_a_fixture():
    assert {f[0] for f in FIXTURES} == set(guards.GUARDS)


@pytest.mark.parametrize("guard, file, snippet, replacement, expected",
                         FIXTURES, ids=[f"{f[0].__name__}-{i}"
                                        for i, f in enumerate(FIXTURES)])
def test_guard_refuses_its_fixture(tree, guard, file, snippet, replacement,
                                   expected):
    path = tree / "src" / file
    text = path.read_text()
    assert text.count(snippet) == 1, \
        f"stale fixture: {file} holds the snippet {text.count(snippet)} times"
    path.write_text(text.replace(snippet, replacement))
    try:
        lines = guard(guards.Index(tree))
    finally:
        path.write_text(text)
    assert expected in [re.sub(r"(?<=:)\d+(?=:)|(?<=line )\d+", "N", line)
                        for line in lines], lines
