"""Where the brute-force oracle's time goes, by stage and block size.

For each shape of the benchmark's ``oracle`` deck (``workloads.ORACLE_SHAPES``,
on a few ``feasible`` instances each) and each block size, this times

- ``reference.brute_force_optimal``, whole, with ``reference._BLOCK`` set to
  the block size;
- beside it, the stage calls the function makes on each block, on the same
  instances: the index array (``_bases``, built afresh rather than read
  from its cache), the gather of the bases' rows and right-hand sides, the
  batched solve, the residuals (laid out rows x bases) plus the feasibility
  test, and the determinant filter of the feasible bases.

The stages print in microseconds per block and the call in milliseconds,
so ``blocks`` times the stage sum, plus ``_bases``, is about the call. The
two are timed in turn round by round, as ``pivot_overhead.py`` does, so
that drift in the host's speed hits both; medians over the rounds are
printed. Run with BLAS pinned to one thread, as the benchmark does:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/oracle_split.py

``--shapes 5,2,10`` reaches 22 stacked rows at d = 5, and ``--shapes 8,1,8``
the largest shape ``facetlp verify`` is run at.
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
from facetlp import generators, model, reference  # noqa: E402

STAGES = ("gather", "solve", "residuals", "det")


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


def _stage_us(sp: model.StandardGeneralLP, block: int) -> tuple[float, dict[str, float]]:
    """Microseconds of building the index array, and per stage the
    microseconds summed over one call's blocks."""
    clock = time.perf_counter
    t0 = clock()
    bases = reference._bases.__wrapped__(sp.num_rows, sp.d)
    build_us = (clock() - t0) * 1e6
    A = sp.rows(np.arange(sp.num_rows))
    row_norms = sp.row_norms()
    tols = sp.row_tolerances()
    spent = dict.fromkeys(STAGES, 0.0)
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
        for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            spent[stage] += dt * 1e6
    return build_us, spent


def measure(shape: tuple[int, int, int], block: int, instances: int, rounds: int) -> dict:
    """Medians over ``rounds`` of the call and of each stage, per block."""
    d, m, n = shape
    sps = [model.to_standard_general(generators.random_instance(s, d, m, n, "feasible"))
           for s in range(instances)]
    bases = len(reference._bases(sps[0].num_rows, d))
    blocks = -(-bases // block)
    calls, builds, stages = [], [], {stage: [] for stage in STAGES}
    for _ in range(rounds):
        calls.append(_call_ms(sps, block))
        round_build, round_stages = 0.0, dict.fromkeys(STAGES, 0.0)
        for sp in sps:
            build_us, spent = _stage_us(sp, block)
            round_build += build_us
            for stage in STAGES:
                round_stages[stage] += spent[stage]
        builds.append(round_build / len(sps) / 1e3)
        for stage in STAGES:
            stages[stage].append(round_stages[stage] / len(sps) / blocks)
    return {
        "N": sps[0].num_rows, "bases": bases, "blocks": blocks,
        "call_ms": statistics.median(calls), "bases_ms": statistics.median(builds),
        **{stage: statistics.median(stages[stage]) for stage in STAGES},
    }


def _shape(text: str) -> tuple[int, int, int]:
    d, m, n = (int(v) for v in text.split(","))
    return d, m, n


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shapes", type=_shape, nargs="+", default=list(workloads.ORACLE_SHAPES),
                    metavar="D,M,N", help="instance shapes (default the oracle deck's)")
    ap.add_argument("--blocks", type=int, nargs="+", default=[512, 2048, 8192, 65536],
                    help="bases per block")
    ap.add_argument("--instances", type=int, default=3, help="feasible instances per shape")
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args(argv)

    print("| d | N | bases | block | blocks | call ms | _bases ms | gather us/block "
          "| solve us/block | residuals+feasibility us/block | det filter us/block |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for shape in args.shapes:
        for block in args.blocks:
            r = measure(shape, block, args.instances, args.rounds)
            stage_cells = " | ".join(f"{r[stage]:.1f}" for stage in STAGES)
            print(f"| {shape[0]} | {r['N']} | {r['bases']} | {block} | {r['blocks']} "
                  f"| {r['call_ms']:.2f} | {r['bases_ms']:.2f} | {stage_cells} |")


if __name__ == "__main__":
    main()
