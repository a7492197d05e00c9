"""Where the time goes: a pivot's kernels against the rest, and the oracle by stage.

``pivot``: for each plateau of the benchmark's ``dense`` workload
(``workloads.dense_lp`` at d = 60, 100 and 180; ``linalg`` keeps the
inverse of the base at every d), and for the cubes (``klee_minty_v1(16)``
and ``klee_minty_v2(19)``, whose entering rows are mostly bound rows),
this times

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
kernels: interpreter frames, small-array numpy calls and bookkeeping.

``oracle``: for each shape of the benchmark's ``oracle`` deck
(``workloads.ORACLE_SHAPES``, on a few ``feasible`` instances each) and
each block size, this times

- ``reference.brute_force_optimal``, whole, with ``reference._BLOCK`` set to
  the block size;
- beside it, the stage calls the function makes on each block, on the same
  instances: the index array (``_bases``, built afresh rather than read
  from its cache), the gather of the bases' rows and right-hand sides, the
  batched solve, the residuals (laid out rows x bases) plus the feasibility
  test, and the determinant filter of the feasible bases.

The stages print in microseconds per block and the call in milliseconds,
so ``blocks`` times the stage sum, plus ``_bases``, is about the call.
``--shapes 5,2,10`` reaches 22 stacked rows at d = 5, and ``--shapes
8,1,8`` the largest shape ``facetlp verify`` is run at.

Each table's measurements are timed in turn round by round, so that drift
in the host's speed hits them alike; medians over the rounds are printed.
Run with BLAS pinned to one thread, as the benchmark does:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/split.py pivot
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/split.py oracle
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from facetlp import facet, generators, linalg, model, reference  # noqa: E402

def medians(rounds: int, *timers) -> list[float]:
    """Call ``timers`` in turn, ``rounds`` times round by round; each
    returns a tuple of numbers, and the median of every position over the
    rounds is returned, in order."""
    samples = [[v for timer in timers for v in timer()] for _ in range(rounds)]
    return [statistics.median(column) for column in zip(*samples)]


def print_table(header: list[str], rows) -> None:
    """Print a markdown table, each row as soon as ``rows`` yields it."""
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for row in rows:
        print("| " + " | ".join(str(cell) for cell in row) + " |")


def _solve_us(sps: list[model.StandardGeneralLP]) -> float:
    """Microseconds of ``facet.solve`` over one pass of ``sps``."""
    t0 = time.perf_counter()
    for sp in sps:
        facet.solve(sp)
    return (time.perf_counter() - t0) * 1e6


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


def pivot_row(name: str, instances: int, rounds: int, reps: int) -> tuple:
    """One row of the ``pivot`` table: the pivots of one pass, how many of
    them enter a bound row, and the medians per pivot of ``facet.solve``
    and of its kernels."""
    sps = _instances(name, instances)
    counts = [_pivots(sp) for sp in sps]
    pivots = sum(n for n, _ in counts)
    rng = np.random.default_rng(sps[0].d)
    solve_us, kernel_us = medians(
        rounds, lambda: (_solve_us(sps) / pivots,),
        lambda: (sum(_kernels_us(sp, rng, reps, n, general)
                     for sp, (n, general) in zip(sps, counts)) / pivots,))
    bound = pivots - sum(general for _, general in counts)
    return (name, pivots, bound, f"{solve_us:.1f}", f"{kernel_us:.1f}",
            f"{1.0 - kernel_us / solve_us:.0%}")


def _call_ms(sps: list[model.StandardGeneralLP], block: int) -> float:
    """Milliseconds per ``brute_force_optimal`` call with blocks of ``block``."""
    saved, reference._BLOCK = reference._BLOCK, block
    try:
        t0 = time.perf_counter()
        for sp in sps:
            reference.brute_force_optimal(sp)
        return (time.perf_counter() - t0) / len(sps) * 1e3
    finally:
        reference._BLOCK = saved


def _stage_us(sp: model.StandardGeneralLP, block: int) -> list[float]:
    """Microseconds of building the index array, then per stage the
    microseconds summed over one call's blocks."""
    clock = time.perf_counter
    t0 = clock()
    bases = reference._bases.__wrapped__(sp.num_rows, sp.d)
    spent = [(clock() - t0) * 1e6, 0.0, 0.0, 0.0, 0.0]
    A = sp.rows(np.arange(sp.num_rows))
    row_norms = sp.row_norms()
    tols = sp.row_tolerances()
    for start in range(0, len(bases), block):
        combos = bases[start : start + block]
        t0 = clock()
        A_stack = np.take(A, combos, axis=0)
        b_stack = np.take(sp.b, combos)[..., None]
        t1 = clock()
        with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
            X = reference._umath_linalg.solve(A_stack, b_stack)[..., 0]
            t2 = clock()
            S = A @ X.T
            S -= sp.b[:, None]
        feas = sp.feasible(S.T, tols)
        t3 = clock()
        if feas.any():
            hadamard = np.prod(row_norms[combos[feas]], axis=1)
            dets = np.linalg.det(A_stack[feas])
            feas[feas] = np.abs(dets) > 1e-10 * np.maximum(hadamard, np.finfo(float).tiny)
        t4 = clock()
        for k, dt in enumerate((t1 - t0, t2 - t1, t3 - t2, t4 - t3), 1):
            spent[k] += dt * 1e6
    return spent


def oracle_row(shape: tuple[int, int, int], block: int, instances: int,
               rounds: int) -> tuple:
    """One row of the ``oracle`` table: the medians over ``rounds`` of the
    call and of building the index array, and of each stage per block."""
    sps = [model.to_standard_general(generators.random_instance(s, *shape, "feasible"))
           for s in range(instances)]
    bases = len(reference._bases(sps[0].num_rows, sps[0].d))
    blocks = -(-bases // block)

    def stages():
        spent = [sum(us) / len(sps) for us in zip(*(_stage_us(sp, block) for sp in sps))]
        return (spent[0] / 1e3, *(us / blocks for us in spent[1:]))

    call_ms, bases_ms, *stage_us = medians(
        rounds, lambda: (_call_ms(sps, block),), stages)
    return (shape[0], sps[0].num_rows, bases, block, blocks, f"{call_ms:.2f}", f"{bases_ms:.2f}",
            *(f"{us:.1f}" for us in stage_us))


def _shape(text: str) -> tuple[int, int, int]:
    d, m, n = (int(v) for v in text.split(","))
    return d, m, n


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = ap.add_subparsers(dest="command", required=True)
    pivot = commands.add_parser("pivot", help="a facet pivot's kernels against the rest")
    pivot.add_argument("--dims", nargs="+",
                       default=[str(d) for d, _ in workloads.DENSE_PLATEAUS] + ["cubes"],
                       help="dense_lp dimensions, and 'cubes' for the two cubes")
    pivot.add_argument("--instances", type=int, default=3,
                       help="dense solves per plateau and round")
    pivot.add_argument("--reps", type=int, default=2000, help="kernel passes per round")
    oracle = commands.add_parser("oracle", help="the oracle by stage and block size")
    oracle.add_argument("--shapes", type=_shape, nargs="+",
                        default=list(workloads.ORACLE_SHAPES),
                        metavar="D,M,N", help="instance shapes (default the oracle deck's)")
    oracle.add_argument("--blocks", type=int, nargs="+", default=[512, 2048, 8192, 65536],
                        help="bases per block")
    oracle.add_argument("--instances", type=int, default=3,
                        help="feasible instances per shape")
    for command in (pivot, oracle):
        command.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args(argv)

    if args.command == "pivot":
        print_table(["d", "pivots", "bound-row pivots", "solve us/pivot",
                     "kernels us/pivot", "outside kernels"],
                    (pivot_row(name, args.instances, args.rounds, args.reps)
                     for name in args.dims))
    else:
        print_table(["d", "N", "bases", "block", "blocks", "call ms", "_bases ms",
                     "gather us/block", "solve us/block",
                     "residuals+feasibility us/block", "det filter us/block"],
                    (oracle_row(shape, block, args.instances, args.rounds)
                     for shape in args.shapes for block in args.blocks))


if __name__ == "__main__":
    main()
