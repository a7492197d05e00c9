"""Per-pivot cost of the two factorization paths in ``facetlp.linalg``.

For each dimension d, times the linear algebra of one pivot on both paths,
interleaved round by round so that drift in the host's speed hits both:

- LU: ``factor`` of the new base (getrf) plus ``solve`` and
  ``solve_transpose`` (two getrs);
- QR: ``replace_row`` (qr_update) plus ``solve`` and ``solve_transpose``
  (a matvec and a trtrs each) plus 1/50 of a fresh ``factor`` (qr), the
  share of the refactorization at every periodic y_c refresh.

``QR_UPDATE_MIN_D`` should be the smallest d where the QR path wins. Run
with BLAS pinned to one thread, as the benchmark does:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/qr_crossover.py
"""

from __future__ import annotations

import argparse
import statistics
import time
from contextlib import contextmanager

import numpy as np

from facetlp import linalg
from facetlp.facet import YC_REFRESH_PERIOD


def _pivot_inputs(rng: np.random.Generator, d: int):
    m = rng.integers(-9, 10, size=(d, d)).astype(float) + 20.0 * np.eye(d)
    slot = d // 2
    m_new = m.copy()
    m_new[slot] = rng.integers(-9, 10, size=d)
    m_new[slot, slot] += 20.0
    return m, slot, m_new[slot] - m[slot], m_new, rng.normal(size=d)


def _per_call_us(fn, reps: int) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps * 1e6


@contextmanager
def _qr_from(d_min: int):
    """Select the path ``linalg.factor`` takes for the duration."""
    saved = linalg.QR_UPDATE_MIN_D
    linalg.QR_UPDATE_MIN_D = d_min
    try:
        yield
    finally:
        linalg.QR_UPDATE_MIN_D = saved


def measure(d: int, rounds: int, reps: int) -> tuple[float, float]:
    """Median microseconds per pivot on the LU and on the QR path."""
    m, slot, delta, m_new, r = _pivot_inputs(np.random.default_rng(d), d)
    with _qr_from(d + 1):
        lu = linalg.factor(m)
    with _qr_from(d):
        qr = linalg.factor(m)

    def pivot(f):
        g = linalg.replace_row(f, slot, delta, m_new)
        g.solve(r)
        g.solve_transpose(r)

    lu_us, qr_us = [], []
    for _ in range(rounds):
        with _qr_from(d + 1):
            lu_us.append(_per_call_us(lambda: pivot(lu), reps))
        with _qr_from(d):
            refactor_us = _per_call_us(lambda: linalg.factor(m_new), max(1, reps // 10))
            qr_us.append(_per_call_us(lambda: pivot(qr), reps)
                         + refactor_us / YC_REFRESH_PERIOD)
    return statistics.median(lu_us), statistics.median(qr_us)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[8, 16, 24, 32, 48, 64])
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--reps", type=int, default=200)
    args = ap.parse_args()
    print("| d | LU us/pivot | QR us/pivot | QR/LU |")
    print("|---|---|---|---|")
    for d in args.dims:
        lu_us, qr_us = measure(d, args.rounds, args.reps)
        print(f"| {d} | {lu_us:.1f} | {qr_us:.1f} | {qr_us / lu_us:.2f} |")


if __name__ == "__main__":
    main()
