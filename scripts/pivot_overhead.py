"""Where a ``dense`` pivot's time goes: kernels against everything else.

For each plateau of the benchmark's ``dense`` workload (``workloads.dense_lp``
at d = 60, 100 and 180; ``linalg`` keeps the inverse of the base at every
d), this times

- the wall time of ``facet.solve`` per pivot, over a few instances of the
  plateau (per-solve set-up included);
- the BLAS floor: the five kernel calls a pivot makes, on arrays of the
  same shapes, with nothing around them. These are the transpose ``gemv``
  of the entering facet's expansion, the ``ger`` of the inverse update,
  the ``gemv`` of x, the transpose ``gemv`` of y_c and the residual
  product A x;

and prints their difference as the share of a pivot spent outside the
kernels: interpreter frames, small-array numpy calls and bookkeeping. The
two are timed in turn round by round, so that drift in the host's speed
hits both; medians over the rounds are printed. Run with BLAS pinned to
one thread, as the benchmark does:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/pivot_overhead.py
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from facetlp import facet, linalg, model  # noqa: E402


def _solve_us_per_pivot(sps: list[model.StandardGeneralLP]) -> float:
    """Microseconds of ``facet.solve`` per pivot over one pass of ``sps``."""
    elapsed, pivots = 0.0, 0
    for sp in sps:
        t0 = time.perf_counter()
        out = facet.solve(sp)
        elapsed += time.perf_counter() - t0
        pivots += out.iterations
    return elapsed / max(pivots, 1) * 1e6


def _kernels_us(sp: model.StandardGeneralLP, rng: np.random.Generator, reps: int) -> float:
    """Microseconds of a pivot's five BLAS calls on a d-by-d inverse and the
    problem's own matrix, each call's arguments made outside the timing."""
    d = sp.d
    inv = np.asfortranarray(np.eye(d) + 1e-3 * rng.standard_normal((d, d)))
    a, b, c, x = (rng.standard_normal(d) for _ in range(4))
    # a small update of alternating sign keeps the inverse bounded over reps
    col, h = 1e-6 * rng.standard_normal(d), rng.standard_normal(d)
    # from ``model.BOUND_ROWS_MIN_D`` up, ``model.residuals`` multiplies only
    # the general rows, rounded up to a whole block of four
    g = sp.m + sp.n
    A = sp.A if d < model.BOUND_ROWS_MIN_D else sp.A[: g + -g % 4]
    gemv, ger = linalg._gemv, linalg._ger
    t0 = time.perf_counter()
    # the arguments go by position, as ``linalg`` passes them
    for k in range(reps):
        gemv(1.0, inv, a, 0.0, None, 0, 1, 0, 1, 1)
        ger(-1.0 if k & 1 else 1.0, col, h, 1, 1, inv, 1, 1, 1)
        gemv(1.0, inv, b)
        gemv(1.0, inv, c, 0.0, None, 0, 1, 0, 1, 1)
        A @ x
    return (time.perf_counter() - t0) / reps * 1e6


def measure(d: int, instances: int, rounds: int, reps: int) -> tuple[float, float, int]:
    """Median microseconds per pivot of ``facet.solve`` and of its kernels
    over ``rounds`` rounds, and the pivots of one pass."""
    sps = [model.to_standard_general(workloads.dense_lp(np.random.default_rng([1, d, j]), d))
           for j in range(instances)]
    pivots = sum(facet.solve(sp).iterations for sp in sps)
    rng = np.random.default_rng(d)
    solve_us, kernel_us = [], []
    for _ in range(rounds):
        solve_us.append(_solve_us_per_pivot(sps))
        kernel_us.append(_kernels_us(sps[0], rng, reps))
    return statistics.median(solve_us), statistics.median(kernel_us), pivots


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+",
                    default=[d for d, _ in workloads.DENSE_PLATEAUS])
    ap.add_argument("--instances", type=int, default=3, help="solves per plateau and round")
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--reps", type=int, default=2000, help="kernel passes per round")
    args = ap.parse_args(argv)

    print("| d | pivots | solve us/pivot | kernels us/pivot | outside kernels |")
    print("|---|---|---|---|---|")
    for d in args.dims:
        solve_us, kernel_us, pivots = measure(d, args.instances, args.rounds, args.reps)
        share = 1.0 - kernel_us / solve_us
        print(f"| {d} | {pivots} | {solve_us:.1f} | {kernel_us:.1f} | {share:.0%} |")


if __name__ == "__main__":
    main()
