"""Independent output checks shared by the workloads.

Nothing here imports filtcones: every expected value is computed from the
workload's own inputs, so a check cannot agree with a wrong answer just
because it reused the code that produced it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple


def parse_value(text: str):
    """Exact value of a report RESULT field: a Fraction, 'inf', '-inf' or None.

    The program prints rationals as ``p/q (~decimal)``; only the exact
    part is read.
    """
    text = text.strip()
    if text in ("inf", "-inf"):
        return text
    if text in ("-", "None"):
        return None
    head = text.split(" (~", 1)[0].strip()
    try:
        return Fraction(head)
    except (ValueError, ZeroDivisionError):
        return None


def parse_report(text: str) -> List[Tuple[str, str, str, str]]:
    """Report lines ``QUERY | RESULT | WITNESS | STATUS`` as 4-tuples."""
    rows = []
    for line in text.splitlines():
        parts = [p.strip() for p in line.split(" | ")]
        if len(parts) == 4:
            rows.append(tuple(parts))
    return rows


def refused(report: str, errors: str) -> bool:
    """Does a command's output say ``error:``, as a line of its own on
    either stream or as the status of a report row?"""
    lines = (report + "\n" + errors).splitlines()
    return (any(line.strip().startswith("error:") for line in lines)
            or any(st.startswith("error:") for _, _, _, st in parse_report(report)))


def report_values(text: str) -> Dict[str, List[str]]:
    """Map QUERY -> list of RESULT fields, in report order."""
    out: Dict[str, List[str]] = {}
    for query, result, _, _ in parse_report(text):
        out.setdefault(query, []).append(result)
    return out


# ---------------------------------------------------------------------------
# planar shadows of rectangle footprints
# ---------------------------------------------------------------------------

Rect = Tuple[Fraction, Fraction, Fraction, Fraction]  # x0, y0, x1, y1


def rect_union_area(rects: Iterable[Rect]) -> Fraction:
    """Exact area of a union of axis-parallel rectangles (slab sweep)."""
    rects = [tuple(Fraction(v) for v in r) for r in rects]
    rects = [(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
             for x0, y0, x1, y1 in rects]
    rects = [r for r in rects if r[0] < r[2] and r[1] < r[3]]
    xs = sorted({r[0] for r in rects} | {r[2] for r in rects})
    area = Fraction(0)
    for xa, xb in zip(xs, xs[1:]):
        spans = sorted((r[1], r[3]) for r in rects if r[0] <= xa and r[2] >= xb)
        covered = Fraction(0)
        cur_lo = cur_hi = None
        for lo, hi in spans:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        area += covered * (xb - xa)
    return area


def suspension_rects(length: Fraction) -> List[Rect]:
    """Footprint of a Hamiltonian suspension: a unit-wide strip of the
    declared length (the swept area)."""
    return [(Fraction(0), Fraction(0), Fraction(1), Fraction(length))]


def trace_rects(handle_areas, groups, column_width=4) -> List[Rect]:
    """Footprint of a surgery trace: one unit-wide blob per handle, blobs
    of the same group stacked on the same column."""
    out = []
    for area, group in zip(handle_areas, groups):
        x0 = Fraction(column_width * group)
        out.append((x0, Fraction(0), x0 + 1, Fraction(area)))
    return out


def witness_shadow_range(witness: str, shadows: Dict[str, Fraction]
                         ) -> Optional[Tuple[Fraction, Fraction]]:
    """(largest, sum) of the shadows of the moves named by a witness.

    Any union of the moves' footprints has a shadow between these two.
    Returns None when the witness names a move the workload did not
    declare.
    """
    if witness in ("identity", "-", ""):
        return Fraction(0), Fraction(0)
    names = witness.split("+")
    if any(n not in shadows for n in names):
        return None
    vals = [shadows[n] for n in names]
    return max(vals), sum(vals, Fraction(0))


# ---------------------------------------------------------------------------
# closed forms of the torus example
# ---------------------------------------------------------------------------

def torus_expected(eps: Fraction, delta: Fraction) -> Dict[str, Fraction]:
    """Exact values that ``repro-lemma-ex1`` must report at (eps, delta).

    ``d_4(L',L) upper`` is only bounded (by 2*delta) and is checked
    separately.
    """
    out = {
        "d_0(L',L) lower": 4 * eps,
        "d_0(L',L) upper": 4 * eps,
        "trace footprint shadow": rect_union_area(
            trace_rects([delta] * 4, [0, 0, 1, 1])),
        "l(L',L)": Fraction(0),
        "l_2delta(L',L)": Fraction(4),
        "l_2delta certified below": Fraction(4),
        "#(N cap L')": Fraction(4),
        "sum rk HF(N,S_i)": Fraction(4),
        "rk HF(N,L)": Fraction(0),
        "d_1(L'',L) lower": delta,
        "d_1(L'',L) upper": delta,
        "d^F_3(S1,S2) lower": Fraction(0),
        "d^F_3(S1,S2) upper": Fraction(0),
    }
    for e in (eps, eps / 2, eps / 4):
        out[f"W_eps shadow at {e}"] = e
    return out


def check_torus_report(text: str, eps: Fraction, delta: Fraction
                       ) -> Optional[str]:
    """None if the report carries every closed-form value, else a reason.

    The report's own pass/FAIL column is never read.
    """
    vals = report_values(text)
    for query, want in torus_expected(eps, delta).items():
        got = vals.get(query)
        if not got or len(got) != 1:
            return f"{query}: missing or repeated"
        if parse_value(got[0]) != want:
            return f"{query}: got {got[0]}, want {want}"
    got = vals.get("d_4(L',L) upper")
    if not got:
        return "d_4(L',L) upper: missing"
    v = parse_value(got[0])
    if not isinstance(v, Fraction) or v > 2 * delta:
        return f"d_4(L',L) upper: got {got[0]}, want <= {2 * delta}"
    return None
