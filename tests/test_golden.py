"""Golden outputs of the torus geometry: ``repro-lemma-ex1`` reports and a
Floer table (bigons, ranks, differentials and refusals) over fixed curve
pools, compared byte for byte with the files in ``tests/golden/``.

Regenerate the files (only when a reported value is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import os
from fractions import Fraction as F

from filtcones.cli import main
from filtcones.filtcx import serialize_complex
from filtcones.scenarios import lem_ex1_space
from filtcones.surface import GeometryError, TorusCurve, mu2_triangles
from filtcones.surface.floer import enumerate_bigons, floer_complex, hf_rank

from test_segment_pairs import _floer_sanity_pool

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
REPRO = {("1/8", "1/256"): "repro-lemma-ex1-eps1_8-delta1_256.txt",
         ("1/10", "1/1000"): "repro-lemma-ex1-eps1_10-delta1_1000.txt"}
TABLE = "floer-table.txt"


def repro_stdout(eps, delta):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["repro-lemma-ex1", "--eps", eps, "--delta", delta])
    assert code == 0, out.getvalue()
    return out.getvalue()


def _pools():
    """The acceptance Floer-sanity curves and the curves of
    ``lem_ex1_space(1/8, 1/256)``, each with a pool-qualified label."""
    space = lem_ex1_space(F(1, 8), F(1, 256))
    return [[(f"sanity:{c.name}", c) for c in _floer_sanity_pool()],
            [(f"lem:{name}", c) for name, c in space.curves.items()]]


def _mu2_triple():
    """The transverse triple of ``test_mu2_triangle_count``."""
    y, x0, x1, depth = F(3, 4), F(-3, 4), F(-1, 4), F(5, 4)
    return (TorusCurve([(-1, 0), (1, 0)], name="A"),
            TorusCurve([(F(-1, 2), -1), (F(-1, 2), 1)], name="B"),
            TorusCurve([(-1, y), (x0, y), (x0, y - depth), (x1, y - depth),
                        (x1, y), (1, y)], name="C"))


def _pt(p):
    return f"({p[0]},{p[1]})"


def floer_table():
    lines = []
    pairs = [(x, y) for pool in _pools() for x in pool for y in pool
             if x is not y]
    for (la, a), (lb, b) in pairs:
        head = f"pair {la} {lb}"
        try:
            bigons = sorted((p, q, area)
                            for p, q, area, _ in enumerate_bigons(a, b))
            cx = floer_complex(a, b)
            rank = hf_rank(a, b)
        except GeometryError as exc:
            lines.append(f"{head}: GeometryError: {exc}")
            continue
        lines.append(f"{head}: rank {rank}, {len(bigons)} bigons")
        lines += [f"  bigon {_pt(p)} -> {_pt(q)} area {area}"
                  for p, q, area in bigons]
        lines += [f"  {row}" for row in serialize_complex(cx).splitlines()]
    tri = mu2_triangles(*_mu2_triple())
    lines.append(f"mu2 A B C: {len(tri)} products")
    for (y, x) in sorted(tri):
        for z, s in sorted(tri[(y, x)].items()):
            lines.append(f"  mu2({_pt(y)}, {_pt(x)}) -> {_pt(z)}: {s}")
    return "\n".join(lines) + "\n"


def _read(name):
    with open(os.path.join(GOLDEN, name)) as f:
        return f.read()


def test_geometry_outputs_match_golden_files():
    for (eps, delta), name in REPRO.items():
        assert repro_stdout(eps, delta) == _read(name), name
    assert floer_table() == _read(TABLE)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    files = {name: repro_stdout(*key) for key, name in REPRO.items()}
    files[TABLE] = floer_table()
    for name, text in files.items():
        with open(os.path.join(GOLDEN, name), "w") as f:
            f.write(text)
        print(f"wrote {os.path.join(GOLDEN, name)}")
