"""torus-repro: the headline ``repro-lemma-ex1`` command at seeded (eps, delta).

Each op runs the command through ``filtcones.cli.main``, which is what the
``filtcones`` script calls, and checks every reported value against the
closed forms in ``checks.torus_expected``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from checks import check_torus_report
from clirun import run_cli
from op import Op

ROUND_OPS = 40


class TorusRepro:
    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.used = set()

    def pairs(self, r: int):
        """ROUND_OPS distinct pairs eps = 1/m <= 1/9, delta = 1/n < eps^2/2."""
        rng = random.Random(f"torus-repro:{self.seed}:{r}")
        out = []
        while len(out) < ROUND_OPS:
            m = rng.randint(9, 64)
            lo = 2 * m * m + 1
            n = rng.randint(lo, max(lo, 9000))
            if (m, n) not in self.used:
                self.used.add((m, n))
                out.append((Fraction(1, m), Fraction(1, n)))
        return out

    def round(self, r: int):
        return [self.op(eps, delta) for eps, delta in self.pairs(r)]

    @staticmethod
    def op(eps: Fraction, delta: Fraction) -> Op:
        argv = ["repro-lemma-ex1", "--eps", str(eps), "--delta", str(delta)]

        def check(out):
            return check_torus_report(out[1], eps, delta)

        return Op("repro-lemma-ex1", lambda: run_cli(argv), check)
