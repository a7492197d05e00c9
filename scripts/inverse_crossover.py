"""Per-pivot cost of the two ways ``facetlp.linalg`` absorbs a row swap.

A pivot asks of ``linalg`` what ``facet.pivot`` asks: ``solve_transpose``
for the entering facet's expansion y, ``replace_row`` with y (or, where
it declines, ``factor`` of the new base), then ``solve_transpose`` of the
objective and ``solve`` of the new base's right-hand side for the
iterate's y_c and x. For each dimension d, a fixed-length chain of pivots
on random integer bases is timed on both paths, interleaved round by round
so that drift in the host's speed hits both:

- LU: ``replace_row`` declines, so every pivot factors the new base from
  scratch (getrf) and every solve is one getrs;
- inverse: every ``replace_row`` updates the inverse in place (one ger) and
  every solve is one gemv. Each chain starts from a fresh inverse (getrf
  plus getri) outside the timing: the solver takes one only when a failed
  residual check asks for it, which this leaves out.

``INVERSE_MIN_D`` should be the smallest d where the inverse path wins by
more than the spread between runs. Run with BLAS pinned to one thread, as
the benchmark does:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/inverse_crossover.py
"""

from __future__ import annotations

import argparse
import statistics
import time
from contextlib import contextmanager

import numpy as np

from facetlp import linalg


def _chain(rng: np.random.Generator, d: int, pivots: int):
    """An objective and a base, then (slot, entering row, new base, new
    rhs) per pivot."""
    m = rng.integers(-9, 10, size=(d, d)).astype(float) + 20.0 * np.eye(d)
    b = rng.integers(-9, 10, size=d).astype(float)
    first, steps = m, []
    for _ in range(pivots):
        slot = int(rng.integers(d))
        m, b = m.copy(), b.copy()
        m[slot] = rng.integers(-9, 10, size=d)
        m[slot, slot] += 20.0
        b[slot] = rng.integers(-9, 10)
        steps.append((slot, m[slot].copy(), m, b))
    c = rng.integers(-9, 10, size=d).astype(float)
    return c, first, steps


@contextmanager
def _inverse_min_d(min_d: int):
    """Select the path ``linalg`` takes for the duration."""
    saved = linalg.INVERSE_MIN_D
    linalg.INVERSE_MIN_D = min_d
    try:
        yield
    finally:
        linalg.INVERSE_MIN_D = saved


def _per_pivot_us(begin, c, steps, reps: int) -> float:
    """Microseconds per pivot over ``reps`` chains, each starting from
    ``begin()``, which is not timed."""
    elapsed = 0.0
    for _ in range(reps):
        f = begin()
        t0 = time.perf_counter()
        for slot, row, m_new, b_new in steps:
            y = linalg.solve_transpose(f, row)
            f = linalg.replace_row(f, slot, y) or linalg.factor(m_new)
            linalg.solve_transpose(f, c)
            linalg.solve(f, b_new)
        elapsed += time.perf_counter() - t0
    return elapsed / (reps * len(steps)) * 1e6


def measure(d: int, rounds: int, reps: int) -> tuple[float, float]:
    """Median microseconds per pivot on the LU path and on the inverse path,
    over chains of 100 pivots; every round times both in turn."""
    c, first, steps = _chain(np.random.default_rng(d), d, 100)
    lu_us, inv_us = [], []
    for _ in range(rounds):
        with _inverse_min_d(d + 1):
            # a factorization below the crossover is never consumed
            start = linalg.factor(first)
            lu_us.append(_per_pivot_us(lambda: start, c, steps, reps))
        with _inverse_min_d(d):
            inv_us.append(_per_pivot_us(lambda: linalg.factor(first), c, steps, reps))
    return statistics.median(lu_us), statistics.median(inv_us)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[16, 20, 24, 32, 40, 48, 56, 64])
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--reps", type=int, default=4)
    args = ap.parse_args()

    print("| d | LU us/pivot | inverse us/pivot | inverse/LU |")
    print("|---|---|---|---|")
    for d in args.dims:
        lu_us, inv_us = measure(d, args.rounds, args.reps)
        print(f"| {d} | {lu_us:.1f} | {inv_us:.1f} | {inv_us / lu_us:.2f} |")


if __name__ == "__main__":
    main()
