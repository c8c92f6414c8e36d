"""Fixed reference kernel: the unit ("ref") that op times are divided by.

Standard library only, and it never imports filtcones, so a change to the
program cannot move it.  It does the same kinds of work the program does
(exact ``Fraction`` arithmetic, dict updates, a sort) on fixed inputs.
One pass takes about 25 ms on a 2-core sandbox in its fast phase.
"""

from __future__ import annotations

import time
from fractions import Fraction

PASS_ITERATIONS = 2000
# seconds of one pass on the reference machine speed: set-up times are
# rescaled to it (run.py), so that they too are in units of the kernel
NOMINAL_PASS_S = 0.025


def reference_pass():
    buckets = {}
    total = Fraction(0)
    for i in range(1, PASS_ITERATIONS):
        a = Fraction(i % 23 + 1, i % 17 + 2)
        b = Fraction(i % 13 + 1, i % 11 + 3)
        c = a * b - a / b
        total += c
        key = (i * 7919) % 211
        buckets[key] = buckets.get(key, Fraction(0)) + c
    order = sorted(buckets.items(), key=lambda kv: (kv[1], kv[0]))
    return total, order[0][0], order[-1][0]


class ReferenceClock:
    """Times reference passes and checks that every pass computes the same."""

    def __init__(self):
        self.expected = None
        self.samples = []

    def timed_pass(self) -> float:
        t0 = time.perf_counter()
        out = reference_pass()
        dt = time.perf_counter() - t0
        if self.expected is None:
            self.expected = out
        elif out != self.expected:
            raise RuntimeError("reference kernel result changed between passes")
        self.samples.append(dt)
        return dt

    def median_of(self, passes: int) -> float:
        """Median wall seconds of a few back-to-back passes."""
        return sorted(self.timed_pass() for _ in range(passes))[passes // 2]
