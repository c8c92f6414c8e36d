"""The mutation gate: every mutant of ``src/`` listed here must fail a test.

Run it from anywhere with ``python tests/mutants.py``; it is stdlib only,
and pytest does not collect it.  The runner copies ``src/`` into a
temporary directory once.  For each entry in turn it applies the
entry's patches to the copy, runs one child ``python -m pytest -q -x
<nodes>`` against the copy, and restores the patched files.  A mutant is
killed when the child reports a failed test (exit code 1).

The run fails on:

* a stale entry: a snippet that does not occur exactly once in its file
  (mend the entry in the change that moved the code);
* a survivor: the named tests all pass on the mutant.  A survivor is a
  finding about the tests; never weaken the mutant or drop the entry to
  pass;
* a child that ends any other way (a node id that does not exist, a
  collection error).

To add an entry, append a ``Mutant`` with a name that says what the
mutant breaks, its patches as (file under ``src/``, exact snippet,
replacement), and the node ids of the tests that kill it, fastest
first: ``-x`` stops at the first failure.  Name the tests that target
the code, so that the whole run stays near a minute.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    patches: Tuple[Tuple[str, str, str], ...]  # (file, snippet, replacement)
    nodes: Tuple[str, ...]


FILTCX, NOVIKOV = "filtcones/filtcx.py", "filtcones/novikov.py"
WFAINF, CLI = "filtcones/wfainf.py", "filtcones/cli.py"
FRAG, WIDTHS = "filtcones/fragmetric.py", "filtcones/surface/widths.py"
CURVES, SHADOW = "filtcones/surface/curves.py", "filtcones/surface/shadow.py"

REFUSAL = '''        for c in curves:
            if q % c.scale:
                raise GeometryError(f"{c!r} at scale {c.scale} does not fit "
                                    f"the frame {q}")
'''
LOWER_BOUNDS = "tests/test_fragmetric.py::" \
    "test_lower_bounds_match_every_multiset_bounded_alone"
EVERY_CONTACT = "tests/test_segment_pairs.py::" \
    "test_segment_pairs_yields_every_contact"
CERT_WALK = '''                if key not in sets:
                    sets[key] = self._set_bound(lp, l, key)
                val, why = sets[key]
                # bending makes the choice of positive end irrelevant
                for p in probes.get(tuple(sorted((lp, l, *ends))), ()):
                    if p.claimed_sup > val and self._probe_verified(p):
                        val, why = p.claimed_sup, p
                if val < lower:
                    lower, cert = val, self._certify(ends, why)
'''
CERT_CACHED = '''                if key not in sets:
                    val, why = self._set_bound(lp, l, key)
                    for p in probes.get(tuple(sorted((lp, l, *ends))), ()):
                        if p.claimed_sup > val and self._probe_verified(p):
                            val, why = p.claimed_sup, p
                    sets[key] = val, self._certify(ends, why)
                val, cert_of_set = sets[key]
                if val < lower:
                    lower, cert = val, cert_of_set
'''

MUTANTS = [
    # the box sweep, the shadow's holes and the lower-bound walk
    Mutant("the cross pass's (x0, x1] slice opened at x0 (a pair twice)",
           ((CURVES, "boxes[bisect_right(lefts, x0):",
             "boxes[bisect_left(lefts, x0):"),),
           (EVERY_CONTACT,)),
    Mutant("the cross pass's [x0, x1] slice closed before x1",
           ((CURVES, "bisect_right(olefts, x1)]",
             "bisect_left(olefts, x1)]"),),
           (EVERY_CONTACT,)),
    Mutant("the one-list pass's slice closed before x1",
           ((CURVES, "boxes[n + 1:bisect_right(lefts, x1)]",
             "boxes[n + 1:bisect_left(lefts, x1)]"),),
           (EVERY_CONTACT,)),
    Mutant("the planar shadow's holes never subtracted",
           ((SHADOW, "total += area  # area is negative", "pass"),),
           ("tests/test_surface.py::test_shadow_three_nested_squares",
            "tests/test_surface.py::test_shadow_nested_and_crossing",
            "tests/test_surface.py::"
            "test_shadow_islands_beside_and_inside_a_pocket_of_rays",
            "tests/test_surface.py::"
            "test_shadow_of_rectangles_is_the_area_they_enclose")),
    Mutant("a lower bound and its certificate taken from the first "
           "multiset of its end set (cached per set)",
           ((FRAG, CERT_WALK, CERT_CACHED),),
           (LOWER_BOUNDS + "[trace-pattern0]",
            LOWER_BOUNDS + "[trace-S1-pattern0]",
            "tests/test_golden.py::test_metric_outputs_match_golden_files")),
    # one sum per algebraic type
    Mutant("chain_sum keeps a generator whose sum is zero",
           ((FILTCX, '''        if s:
            out[g] = s
        else:
            out.pop(g, None)
''', '''        out[g] = s
'''),),
           ("tests/test_filtcx.py::test_chain_sum_matches_parity_oracle",
            "tests/test_filtcx.py::test_action_level_examples",
            "tests/test_wfainf.py")),
    Mutant("chain_sum leaves a cancelled generator in its old place",
           ((FILTCX, '''        if s:
            out[g] = s
        else:
            out.pop(g, None)
    return out
''', '''        out[g] = s
    return {g: s for g, s in out.items() if s}
'''),),
           ("tests/test_filtcx.py::test_chain_sum_matches_parity_oracle",)),
    Mutant("the NovikovScalar constructor without its toggle",
           ((NOVIKOV, '''            if e in seen:
                seen.remove(e)  # characteristic 2 cancellation
            else:
                seen.add(e)
''', '''            seen.add(e)
'''),),
           ("tests/test_novikov.py::test_char2_cancellation",
            "tests/test_novikov.py::test_ring_laws")),
    Mutant("table_sum keeps zero entries",
           ((WFAINF, '''    sums = {d: {gens: v for gens, items in entries.items()
                if (v := chain_sum(items))} for d, entries in terms.items()}
''', '''    sums = {d: {gens: chain_sum(items) for gens, items in entries.items()}
            for d, entries in terms.items()}
'''),),
           ("tests/test_wfainf.py::"
            "test_table_sum_adds_entrywise_and_drops_what_cancels",)),
    # the width frame
    Mutant("the monotone cap dropped from _set_bound",
           ((FRAG, '''            if self.monotone_min_area is not None:
                val = min(val, self.monotone_min_area)
''', ''),),
           ("tests/test_fragmetric.py::test_monotone_mode_caps_bound",)),
    Mutant("the cover read from the carrier",
           ((FRAG, "for c in self.objects[n].cover]) / 2",
             "for c in self.objects[n].carrier]) / 2"),),
           (LOWER_BOUNDS,)),
    Mutant("the divisibility refusal removed while the space's frame halves",
           ((WIDTHS, REFUSAL, ''),
            (FRAG, "self._scale = lcm(*(c.scale for c in self.curves.values()))",
             "self._scale = max(1, lcm(*(c.scale for c in "
             "self.curves.values())) // 2)")),
           (LOWER_BOUNDS + "[disjoint-pattern0]",
            LOWER_BOUNDS + "[thirds-sevenths-pattern0]")),
    Mutant("the divisibility refusal removed",
           ((WIDTHS, REFUSAL, ''),),
           ("tests/test_widths.py::"
            "test_strand_table_refuses_a_curve_off_its_frame",)),
    Mutant("a redefined curve name accepted",
           ((CLI, '''                if c.name in sc.curves:
                    raise FragError(f"curve {c.name} is already defined")
''', ''),),
           ("tests/test_cli.py::test_cli_reports_parse_errors_with_line",)),
    Mutant("a strand table built at its carrier's own scale",
           ((WIDTHS, "        self.scale = scale\n",
             "        self.scale = lcm(*(c.scale for c in carrier))\n"),),
           ("tests/test_widths.py::"
            "test_strand_table_refuses_a_curve_off_its_frame",
            "tests/test_widths.py::"
            "test_strand_table_matches_reference_on_random_pools")),
]


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    problems = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(repo / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(
                       [str(src)] + [p for p in [os.environ.get("PYTHONPATH")]
                                     if p]))
        where = subprocess.run(
            [sys.executable, "-c",
             "import filtcones.novikov as m; print(m.__file__)"],
            cwd=repo, env=env, capture_output=True, text=True).stdout
        if not where.startswith(str(src)):
            print(f"the tests would not import the copy: {where.strip()}")
            return 1
        for m in MUTANTS:
            originals, stale = {}, []
            for file, snippet, replacement in m.patches:
                path = src / file
                text = path.read_text()
                originals.setdefault(path, text)
                if text.count(snippet) != 1:
                    stale.append(f"{file} holds the snippet "
                                 f"{text.count(snippet)} times")
                    continue
                path.write_text(text.replace(snippet, replacement))
            t0 = time.perf_counter()
            if not stale:
                child = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x",
                     "-p", "no:cacheprovider", *m.nodes],
                    cwd=repo, env=env, stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT, text=True)
            for path, text in originals.items():
                path.write_text(text)
            if stale:
                verdict = "STALE (" + "; ".join(stale) + ")"
            elif child.returncode == 1:
                verdict = "killed"
            elif child.returncode == 0:
                verdict = "SURVIVED"
            else:
                verdict = f"ERROR (pytest exit {child.returncode})"
                print(child.stdout[-2000:])
            print(f"{verdict:<9} {time.perf_counter() - t0:5.1f}s  {m.name}")
            if verdict != "killed":
                problems.append(m.name)
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f}s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
