"""Where a pivot's time goes: kernels against everything else.

For each plateau of the benchmark's ``dense`` workload (``workloads.dense_lp``
at d = 60, 100 and 180; ``linalg`` keeps the inverse of the base at every
d), and for the cubes (``klee_minty_v1(16)`` and ``klee_minty_v2(19)``,
whose entering rows are mostly bound rows), this times

- the wall time of ``facet.solve`` per pivot, over a few instances of the
  plateau or over the two cubes (per-solve set-up included);
- the BLAS floor: the kernel calls the pivots make, on arrays of the same
  shapes, with nothing around them. Every pivot makes four: the ``ger``
  of the inverse update, the ``gemv`` of x, the transpose ``gemv`` of y_c
  and the residual product G x of the general rows (``model.residuals``
  reads the bound rows off x). A pivot whose entering row is general makes
  a fifth, the transpose ``gemv`` of its expansion; a bound row's
  expansion is a row of the inverse, read off it with no product. The
  floor counts the fifth call once per general entering row, as the
  solves' traces count them;

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
from facetlp import facet, generators, linalg, model  # noqa: E402


def _solve_us_per_pivot(sps: list[model.StandardGeneralLP]) -> float:
    """Microseconds of ``facet.solve`` per pivot over one pass of ``sps``."""
    elapsed, pivots = 0.0, 0
    for sp in sps:
        t0 = time.perf_counter()
        out = facet.solve(sp)
        elapsed += time.perf_counter() - t0
        pivots += out.iterations
    return elapsed / max(pivots, 1) * 1e6


def _pivots(sp: model.StandardGeneralLP) -> tuple[int, int]:
    """The pivots of a solve of ``sp``, and how many of them enter a general
    row."""
    out = facet.solve(sp, collect_trace=True)
    general = sum(r.entering < sp.m + sp.n for r in out.trace if r.leaving >= 0)
    return out.iterations, general


def _kernels_us(sp: model.StandardGeneralLP, rng: np.random.Generator, reps: int,
                pivots: int, general: int) -> float:
    """Microseconds of the BLAS calls of ``pivots`` pivots on a d-by-d
    inverse and the problem's own general rows, ``general`` of them with
    the transpose solve of an entering general row; each call's arguments
    are made outside the timing."""
    d = sp.d
    inv = np.asfortranarray(np.eye(d) + 1e-3 * rng.standard_normal((d, d)))
    a, b, c, x = (rng.standard_normal(d) for _ in range(4))
    # a small update of alternating sign keeps the inverse bounded over reps
    col, h = 1e-6 * rng.standard_normal(d), rng.standard_normal(d)
    G = sp.G
    gemv, ger = linalg._gemv, linalg._ger
    # the arguments go by position, as ``linalg`` passes them
    t0 = time.perf_counter()
    for k in range(reps):
        ger(-1.0 if k & 1 else 1.0, col, h, 1, 1, inv, 1, 1, 1)
        gemv(1.0, inv, b)
        gemv(1.0, inv, c, 0.0, None, 0, 1, 0, 1, 1)
        G @ x
    every = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(reps):
        gemv(1.0, inv, a, 0.0, None, 0, 1, 0, 1, 1)
    expansion = time.perf_counter() - t0
    return (pivots * every + general * expansion) / reps * 1e6


def _instances(name: str, instances: int) -> list[model.StandardGeneralLP]:
    """The problems of one table row: ``instances`` ``dense_lp`` of
    dimension ``name``, or the two cubes."""
    if name == "cubes":
        lps = [generators.klee_minty_v1(16), generators.klee_minty_v2(19)]
    else:
        d = int(name)
        lps = [workloads.dense_lp(np.random.default_rng([1, d, j]), d)
               for j in range(instances)]
    return [model.to_standard_general(lp) for lp in lps]


def measure(name: str, instances: int, rounds: int,
            reps: int) -> tuple[float, float, int, int]:
    """Median microseconds per pivot of ``facet.solve`` and of its kernels
    over ``rounds`` rounds, the pivots of one pass, and how many of them
    enter a bound row."""
    sps = _instances(name, instances)
    counts = [_pivots(sp) for sp in sps]
    pivots = sum(n for n, _ in counts)
    rng = np.random.default_rng(sps[0].d)
    solve_us, kernel_us = [], []
    for _ in range(rounds):
        solve_us.append(_solve_us_per_pivot(sps))
        kernel_us.append(sum(_kernels_us(sp, rng, reps, n, general)
                             for sp, (n, general) in zip(sps, counts)) / pivots)
    bound = pivots - sum(general for _, general in counts)
    return statistics.median(solve_us), statistics.median(kernel_us), pivots, bound


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", nargs="+",
                    default=[str(d) for d, _ in workloads.DENSE_PLATEAUS] + ["cubes"],
                    help="dense_lp dimensions, and 'cubes' for the two cubes")
    ap.add_argument("--instances", type=int, default=3,
                    help="dense solves per plateau and round")
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--reps", type=int, default=2000, help="kernel passes per round")
    args = ap.parse_args(argv)

    print("| d | pivots | bound-row pivots | solve us/pivot | kernels us/pivot "
          "| outside kernels |")
    print("|---|---|---|---|---|---|")
    for name in args.dims:
        solve_us, kernel_us, pivots, bound = measure(
            name, args.instances, args.rounds, args.reps)
        share = 1.0 - kernel_us / solve_us
        print(f"| {name} | {pivots} | {bound} | {solve_us:.1f} | {kernel_us:.1f} | {share:.0%} |")


if __name__ == "__main__":
    main()
