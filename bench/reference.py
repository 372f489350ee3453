"""Reference kernel: the yardstick for the host's speed during a run.

On a shared host the speed of the cores drifts, by up to half over minutes
on the 2-core VM this benchmark was built on, because other tenants share
the cores and caches, and Python workloads slow down together.  So the
worker times this fixed pure-Python kernel on the worker's core before every
round of ops and after the last, and divides each op's time by the mean of
the two runs around its round (the ``*_ref`` metrics).  It runs in a
process of its own: the kernel's time then depends neither on rankone's
code nor on the objects the ops keep alive, and its memory stays out of the
worker's peak RSS.

Set-up time is reported in seconds of a nominal host: each set-up probe's
wall time is divided by the mean of the reference runs around it and
multiplied by ``NOMINAL_S``, a fixed kernel time close to the kernel's
median on the VM this benchmark was built on (24-38 ms, CPython 3.11.7).

Protocol: each line on stdin asks for one run; the reply is one line with
its time in seconds.  The process exits at end of input.

The kernel must never change: every ``*_ref`` metric is divided by its time.
It mixes the interpreter costs rankone runs on: a set of 10^5 ints probed
at a stride, Fraction sums, and a dict with tuple keys.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

NOMINAL_S = 0.030


def kernel() -> int:
    table = set(range(0, 300_000, 3))
    hits = sum(1 for p in range(0, 300_000, 11) if p + 7 in table)
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i * i + 3)
    counts = {}
    for i in range(30_000):
        key = (i % 251, i % 173)
        counts[key] = counts.get(key, 0) + i
    return hits + total.denominator % 7 + len(counts)


def main() -> int:
    for _ in sys.stdin:
        t0 = time.perf_counter()
        kernel()
        print(repr(time.perf_counter() - t0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
