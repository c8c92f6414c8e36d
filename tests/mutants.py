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
FLOER, TWISTED = "filtcones/surface/floer.py", "filtcones/twisted.py"
SIGMA1_INVERSE = \
    'report["sigma1_inverse_shift"] = chain_left_inverse_action(sigma1)'

REFUSAL = '''    if frame % curve.scale:
        raise GeometryError(f"{curve!r} at scale {curve.scale} does not fit "
                            f"the frame {frame}")
'''
LOWER_BOUNDS = "tests/test_fragmetric.py::" \
    "test_lower_bounds_match_every_multiset_bounded_alone"
GOLDEN_TOWERS = "tests/test_wfainf.py::" \
    "test_relation_check_matches_the_oracle_on_the_golden_towers"
PULLBACKS = "tests/test_wfainf.py::" \
    "test_pullbacks_and_lambda_match_the_oracles"
SPLICED = "tests/test_wfainf.py::" \
    "test_pullback_keeps_spliced_tuples_that_compose_and_end_where_F_sends_b"
HALF_TORUS = "tests/test_floer_walk.py::" \
    "test_parallel_lines_apart_by_half_the_torus_have_rank_0"
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
CERT_FIRST = '''                if key not in sets:
                    sets[key] = (*self._set_bound(lp, l, key), ends)
                val, why, first = sets[key]
                # bending makes the choice of positive end irrelevant
                for p in probes.get(tuple(sorted((lp, l, *ends))), ()):
                    if p.claimed_sup > val and self._probe_verified(p):
                        val, why = p.claimed_sup, p
                if val < lower:
                    lower, cert = val, self._certify(first, why)
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
    Mutant("a certificate naming the first multiset of its end set (each "
           "multiset's bound kept)",
           ((FRAG, CERT_WALK, CERT_FIRST),),
           ("tests/test_fragmetric.py::"
            "test_certificate_names_the_multiset_that_reached_the_bound",
            LOWER_BOUNDS + "[trace-S2-probe-pattern0]")),
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
           ((NOVIKOV, '''            if k in seen:
                seen.remove(k)  # characteristic 2 cancellation
            else:
                seen.add(k)
''', '''            seen.add(k)
'''),),
           ("tests/test_novikov.py::test_char2_cancellation",
            "tests/test_novikov.py::test_ring_laws")),
    Mutant("the scalar frame not reduced by its gcd",
           ((NOVIKOV, "(g := gcd(den, *seen)) > 1", "(g := 1) > 1"),),
           ("tests/test_novikov.py::test_equal_scalars_share_a_frame",
            "tests/test_novikov.py::"
            "test_arithmetic_across_frames_matches_the_parity_oracle")),
    # the insertion walk and the retract blocks
    Mutant("the insertion walk without base windows",
           ((WFAINF, "(earlier, base))", "(earlier, None))"),),
           (GOLDEN_TOWERS, "tests/test_wfainf.py::"
            "test_relation_checks_match_the_oracles",
            "tests/test_wfainf.py::test_module_maps_match_the_oracles")),
    Mutant("the insertion walk without arity-1 differentials",
           ((WFAINF, "        if self._mu1_is_diff:\n            yield from",
             "        if False:\n            yield from"),),
           (GOLDEN_TOWERS, "tests/test_wfainf.py::"
            "test_relation_checks_match_the_oracles",
            "tests/test_wfainf.py::test_module_maps_match_the_oracles")),
    Mutant("retract blocks combined by min",
           ((FILTCX, "level = max(level, _preimage_level(",
             "level = min(level, _preimage_level("),),
           ("tests/test_twisted.py::"
            "test_retract_energy_identity_and_monomials",
            "tests/test_golden.py::test_retract_energy_matches_golden_table")),
    Mutant("the relation check stopped below the arity cap",
           ((WFAINF, "top = min(self.cap, 2 * self.max_op_arity() - 1)",
             "top = min(self.cap - 1, 2 * self.max_op_arity() - 1)"),),
           ("tests/test_wfainf.py::"
            "test_relation_check_runs_through_the_arity_cap",
            "tests/test_cli.py::"
            "test_cli_twisted_check_refuses_a_relation_at_the_arity_cap")),
    # the exact elimination and the left-inverse reads
    Mutant("_echelon pivoting on the first nonzero entry, not the least "
           "valuation",
           ((FILTCX, "k, i, j = min(((x & -x)", "k, i, j = next(((x & -x)"),),
           ("tests/test_filtcx.py::test_boundary_level_matches_oracle_random",
            "tests/test_filtcx.py::test_min_beta_subspace_two_bars")),
    Mutant("_echelon's update without the pivot's unit",
           ((FILTCX, "c[:] = [_mul(u, x) ^ _mul(w, y)",
             "c[:] = [x ^ _mul(w, y)"),),
           ("tests/test_filtcx.py::"
            "test_boundary_depth_map_bounds_every_sampled_drop",
            "tests/test_elimination.py::test_echelon_rank_plus_nullity")),
    Mutant("the injectivity lemma without its left-inverse test",
           ((FILTCX, '''    if chain_left_inverse_action(g) > 0:
        return False
''', ''),),
           ("tests/test_filtcx.py::test_check_injectivity_lemma",)),
    Mutant("sigma_1's inverse shift read as 0",
           ((TWISTED, SIGMA1_INVERSE,
             'report["sigma1_inverse_shift"] = Fraction(0)'),),
           ("tests/test_twisted.py::test_audit_trivial_tower",)),
    Mutant("sigma_1's inverse shift read as minus its own shift",
           ((TWISTED, SIGMA1_INVERSE,
             'report["sigma1_inverse_shift"] = -sigma1.measured_shift()'),),
           ("tests/test_twisted.py::test_audit_trivial_tower",)),
    # the pull-backs and the lambda map over nonzero entries
    Mutant("a pulled-back tuple kept though it does not compose",
           ((WFAINF, "                        and all(x[1] == y[0] for x, y "
             "in zip(ends, ends[1:]))\n", ""),),
           (SPLICED, PULLBACKS)),
    Mutant("a pulled-back tuple kept though F sends its end elsewhere",
           ((WFAINF, "\n                        and F.obj_map.get(ends[-1][1])"
             " == home[key[-1]])", ")"),),
           (SPLICED, PULLBACKS)),
    Mutant("the lambda map keyed on the first slot",
           ((WFAINF, "{key[:-1]: {h: c[key[-1]]", "{key[1:]: {h: c[key[0]]"),
            (WFAINF, "if key[-1] in c)", "if key[0] in c)")),
           ("tests/test_wfainf.py::test_lambda_map_properties",
            PULLBACKS,
            "tests/test_golden.py::test_twisted_outputs_match_golden_files")),
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
           ((FRAG, '''        if cap is not None:
            top = 2 * cap.numerator * den
            widths = [min(w * cap.denominator, top) for w in widths]
            den *= cap.denominator
''', ''),),
           ("tests/test_fragmetric.py::test_monotone_mode_caps_bound",)),
    Mutant("the cover read from the carrier",
           ((FRAG, "for c in self.objects[n].cover]))",
             "for c in self.objects[n].carrier]))"),),
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
    # Floer ranks from the classes and the flux
    Mutant("the flux test dropped: one class always has rank 2",
           ((FLOER, "return 0 if diff % (8 * q * q * (h[0] ** 2 + h[1] ** 2))"
             " else 2", "return 2"),),
           (HALF_TORUS, "tests/test_floer_walk.py::"
            "test_zero_flux_class_11_pair_has_rank_2")),
    Mutant("the flux read modulo the torus area 4, not 4|h|^2",
           ((FLOER, "diff % (8 * q * q * (h[0] ** 2 + h[1] ** 2))",
             "diff % (8 * q * q)"),),
           (HALF_TORUS,)),
    # integer strands, set bounds and search
    Mutant("the strand coordinate left unwrapped",
           ((CURVES, "runs.append([ax, (a[c] + q) % (2 * q) - q,",
             "runs.append([ax, a[c],"),),
           ("tests/test_surface.py::test_strands",
            "tests/test_widths.py::test_strand_table_edge_cases")),
    Mutant("the search frame taken as the max of the shadow denominators",
           ((FRAG, "frame = lcm(*(mv.shadow.denominator for mv in "
             "self.moves))", "frame = max((mv.shadow.denominator for mv in "
             "self.moves), default=1)"),),
           ("tests/test_fragmetric.py::"
            "test_search_adds_shadows_of_unlike_denominators",)),
    Mutant("a _set_bound tie given to the second pair",
           ((FRAG, "(lp, l) if widths[0] == best else (l, lp)",
             "(l, lp) if widths[1] == best else (lp, l)"),),
           (LOWER_BOUNDS + "[lem-pattern0]",)),
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
