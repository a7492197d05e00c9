"""Per-pivot cost of the two ways ``facetlp.linalg`` absorbs a row swap.

A pivot asks of ``linalg`` what ``facet.pivot`` asks: ``solve_transpose``
for the entering facet's expansion y, ``solve`` for the iterate's direction
and ``replace_row`` with y. For each dimension d, a chain of ``cap + 1``
pivots on random integer bases is timed on both paths, interleaved round
by round so that drift in the host's speed hits both:

- LU: every ``replace_row`` factors the new base from scratch (getrf) and
  every solve is one getrs;
- eta: ``replace_row`` appends an eta, so the solves carry 0 to ``cap`` etas,
  and the last pivot of the chain finds the file full and factors from
  scratch. The refactorization's share of a pivot, 1/(cap + 1), is thereby
  counted against the eta path. Periodic y_c refreshes refactor more often
  still, which this leaves out.

``ETA_MIN_D`` should be the smallest d where the eta path wins by more than
the spread between runs, and ``ETA_CAP`` the cap with the least cost per
pivot at the sizes of the benchmark's ``dense`` workload (d = 60, 100, 180).
Run with BLAS pinned to one thread, as the benchmark does:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/eta_crossover.py
"""

from __future__ import annotations

import argparse
import statistics
import time
from contextlib import contextmanager

import numpy as np

from facetlp import linalg


def _chain(rng: np.random.Generator, d: int, pivots: int):
    """A base, then (slot, entering row, new base) per pivot."""
    m = rng.integers(-9, 10, size=(d, d)).astype(float) + 20.0 * np.eye(d)
    first, steps = m, []
    for _ in range(pivots):
        slot = int(rng.integers(d))
        m = m.copy()
        m[slot] = rng.integers(-9, 10, size=d)
        m[slot, slot] += 20.0
        steps.append((slot, m[slot].copy(), m))
    return first, steps


@contextmanager
def _etas(min_d: int, cap: int):
    """Select the path and cap ``linalg.replace_row`` uses for the duration."""
    saved = linalg.ETA_MIN_D, linalg.ETA_CAP
    linalg.ETA_MIN_D, linalg.ETA_CAP = min_d, cap
    try:
        yield
    finally:
        linalg.ETA_MIN_D, linalg.ETA_CAP = saved


def _per_pivot_us(start, steps, reps: int) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        f = start
        for slot, row, m_new in steps:
            y = f.solve_transpose(row)
            f.solve(np.eye(1, f.dimension, slot)[0])
            f = linalg.replace_row(f, slot, y, m_new)
    return (time.perf_counter() - t0) / (reps * len(steps)) * 1e6


def measure(d: int, rounds: int, reps: int, caps=None) -> tuple[float, list[float]]:
    """Median microseconds per pivot on the LU path, and on the eta path for
    each cap in ``caps`` (default: ``linalg.ETA_CAP`` alone). Every round
    times all of them in turn."""
    caps = [linalg.ETA_CAP] if caps is None else list(caps)
    first, steps = _chain(np.random.default_rng(d), d, max(caps) + 1)
    start = linalg.factor(first)
    lu_us, eta_us = [], [[] for _ in caps]
    for _ in range(rounds):
        with _etas(d + 1, max(caps)):
            lu_us.append(_per_pivot_us(start, steps, reps))
        for cap, times in zip(caps, eta_us):
            with _etas(d, cap):
                times.append(_per_pivot_us(start, steps[: cap + 1], reps))
    return statistics.median(lu_us), [statistics.median(t) for t in eta_us]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[16, 20, 24, 32, 40, 48, 56, 64])
    ap.add_argument("--sweep-dims", type=int, nargs="+", default=[60, 100, 180])
    ap.add_argument("--caps", type=int, nargs="+", default=[8, 16, 24, 32, 50])
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--reps", type=int, default=10)
    args = ap.parse_args()

    print("| d | LU us/pivot | " + " | ".join(f"cap {c}" for c in args.caps) + " |")
    print("|---" * (len(args.caps) + 2) + "|")
    for d in args.sweep_dims:
        lu_us, eta_us = measure(d, args.rounds, args.reps, args.caps)
        print(f"| {d} | {lu_us:.1f} | " + " | ".join(f"{e:.1f}" for e in eta_us) + " |")
    print()
    print(f"| d | LU us/pivot | eta us/pivot (cap {linalg.ETA_CAP}) | eta/LU |")
    print("|---|---|---|---|")
    for d in args.dims:
        lu_us, (eta_us,) = measure(d, args.rounds, args.reps)
        print(f"| {d} | {lu_us:.1f} | {eta_us:.1f} | {eta_us / lu_us:.2f} |")


if __name__ == "__main__":
    main()
