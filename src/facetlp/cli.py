"""Command-line front end: solve single instances, generate families, run
benchmark suites, and fuzz the solver against the brute-force oracle.

Exit codes: 0 optimal/success, 2 infeasible, 3 unbounded, 4 iteration limit,
5 input/parse error, 6 verify mismatch, 7 numerical breakdown, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from facetlp import generators, mps
from facetlp.errors import FacetLPError, NoLeavingCandidate, SingularMatrix
from facetlp.facet import PivotRule, SolveOutcome, Status, solve
from facetlp.model import (
    GeneralLP,
    general_lp_to_dict,
    load_general_lp,
    to_standard_general,
)
from facetlp.reference import brute_force_optimal, dantzig_solve, to_standard_form

NETLIB_DIR_ENV = "FACETLP_NETLIB_DIR"

EXIT_OPTIMAL = 0
EXIT_INTERNAL = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_ITERATION_LIMIT = 4
EXIT_INPUT_ERROR = 5
EXIT_VERIFY_MISMATCH = 6
EXIT_NUMERICAL = 7

_STATUS_EXIT = {
    Status.OPTIMAL: EXIT_OPTIMAL,
    Status.INFEASIBLE: EXIT_INFEASIBLE,
    Status.UNBOUNDED: EXIT_UNBOUNDED,
    Status.ITERATION_LIMIT: EXIT_ITERATION_LIMIT,
}

CSV_COLUMNS = "name,n,m,d,solver,rule,iterations,wall_ms,status,objective"
SOLVERS = ("facet", "dantzig", "oracle")


def _rule_from_flag(value: str) -> PivotRule:
    return PivotRule(value)


def _load_problem(path: str, fmt: str) -> GeneralLP:
    if fmt == "auto":
        fmt = "mps" if path.lower().endswith((".mps", ".sif")) else "json"
    if fmt == "mps":
        with open(path) as fh:
            doc = mps.parse_mps(fh.read())
        p = mps.to_general_lp(doc)
        for warning in doc.warnings:
            print(f"warning: {path}: {warning}", file=sys.stderr)
        return p
    return load_general_lp(path)


def _run_solver(
    p: GeneralLP,
    solver: str,
    rule: PivotRule,
    max_iter: int,
    big_m: float | None,
    tol_feas: float | None,
    collect_trace: bool,
) -> SolveOutcome:
    if solver == "facet":
        sp = to_standard_general(p, big_M=big_m)
        return solve(
            sp, rule=rule, max_iter=max_iter,
            collect_trace=collect_trace, tol_feas=tol_feas,
        )
    if solver == "dantzig":
        sf = to_standard_form(p, big_m=big_m)
        return dantzig_solve(sf, max_iter=max_iter)
    if solver == "oracle":
        sp = to_standard_general(p, big_M=big_m)
        return brute_force_optimal(sp)
    raise ValueError(f"unknown solver {solver!r}")


def _format_objective(objective: float | None) -> str:
    return "" if objective is None else format(objective, ".10g")


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        p = _load_problem(args.path, args.format)
    except (FacetLPError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    rule = _rule_from_flag(args.rule)
    out = _run_solver(
        p, args.solver, rule, args.max_iter, args.big_m, args.tol_feas,
        collect_trace=args.trace is not None,
    )

    detail = f"solver={args.solver}"
    if args.solver == "facet":
        detail += f" rule={rule.value}"
    print(
        f"status={out.status.value} objective={_format_objective(out.objective)} "
        f"iterations={out.iterations} ({detail})"
    )
    if out.status is Status.INFEASIBLE and out.certificate is not None:
        cert = out.certificate
        print(
            f"infeasibility certificate: entering facet {cert.entering_row}, "
            f"case {cert.case}, violation {cert.sigma:.6g}"
        )
    if out.status is Status.UNBOUNDED and out.certificate is not None:
        print(f"unboundedness certificate: artificial bound facet {out.certificate}")
    if args.trace is not None and out.trace is not None:
        with open(args.trace, "w") as fh:
            for record in out.trace:
                fh.write(json.dumps(record.to_json_dict()) + "\n")
    return _STATUS_EXIT[out.status]


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        spec = generators.InstanceSpec(
            family=args.family, d=args.d, seed=args.seed, m=args.m, n=args.n,
            kind=args.kind, fixture=args.fixture,
        )
        p = spec.build()
    except (FacetLPError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    doc = json.dumps(general_lp_to_dict(p), indent=1)
    if args.output:
        Path(args.output).write_text(doc + "\n")
    else:
        print(doc)
    return 0


def _bench_instances(args: argparse.Namespace):
    """Yield (name, loader) pairs; loaders run inside the per-row guard so a
    broken instance is recorded in its row and the suite continues."""
    if args.suite in ("km1", "km2"):
        lo, hi = args.sizes
        build = (
            generators.klee_minty_v1 if args.suite == "km1"
            else generators.klee_minty_v2
        )
        for d in range(lo, hi + 1):
            yield f"{args.suite}_d{d}", (lambda d=d: build(d))
    elif args.suite == "cycling":
        for fid in generators.CYCLING_FIXTURE_IDS:
            yield fid, (lambda fid=fid: generators.cycling_fixture(fid))
    elif args.suite == "netlib":
        directory = args.netlib_dir or os.environ.get(NETLIB_DIR_ENV)
        if not directory:
            raise FacetLPError(
                f"netlib suite needs --netlib-dir or ${NETLIB_DIR_ENV}"
            )
        paths = sorted(Path(directory).glob("*.[mM][pP][sS]"))
        if not paths:
            raise FacetLPError(f"no .mps files under {directory}")
        for path in paths:
            yield path.stem, (lambda path=path: mps.read_mps(path))
    else:
        raise FacetLPError(f"unknown suite {args.suite!r}")


def cmd_bench(args: argparse.Namespace) -> int:
    rule = _rule_from_flag(args.rule)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not solvers or not set(solvers) <= set(SOLVERS):
        print(f"error: --solvers takes a list from {','.join(SOLVERS)}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    rows = []
    try:
        instances = list(_bench_instances(args))
    except (FacetLPError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if not instances:
        print(f"error: suite {args.suite} has no instances", file=sys.stderr)
        return EXIT_INPUT_ERROR

    for name, load in instances:
        # one load serves every solver; a failed one gives each an error row
        try:
            p, load_error = load(), None
        except (FacetLPError, OSError) as exc:
            p, load_error = None, f"error:{type(exc).__name__}"
        for solver in solvers:
            n = m = d = 0
            wall_ms = 0.0
            if p is None:
                status, iters, objective = load_error, 0, None
            else:
                n, m, d = p.num_ineq, p.num_eq, p.d
                t0 = time.perf_counter()  # conversion plus solve, not the load
                try:
                    out = _run_solver(
                        p, solver, rule, args.max_iter, args.big_m, args.tol_feas,
                        collect_trace=False,
                    )
                    status, iters = out.status.value, out.iterations
                    objective = out.objective
                except (FacetLPError, OSError) as exc:  # record in-row, continue
                    status, iters, objective = f"error:{type(exc).__name__}", 0, None
                wall_ms = (time.perf_counter() - t0) * 1e3
            rows.append({
                "name": name, "n": n, "m": m, "d": d,
                "solver": solver, "rule": rule.value if solver == "facet" else "-",
                "iterations": iters, "wall_ms": f"{wall_ms:.3f}",
                "status": status, "objective": _format_objective(objective),
            })

    header = CSV_COLUMNS.split(",")
    widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) for h in header}
    print("  ".join(h.ljust(widths[h]) for h in header))
    for r in rows:
        print("  ".join(str(r[h]).ljust(widths[h]) for h in header))

    if args.csv:
        buf = io.StringIO()
        buf.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        buf.write(f"# suite={args.suite} rule={rule.value} max_iter={args.max_iter}")
        buf.write(f" big_m={args.big_m} tol_feas={args.tol_feas}\n")
        writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        Path(args.csv).write_text(buf.getvalue())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    mismatches: list[tuple[str, int, str]] = []
    checked = 0
    for kind in kinds:
        for seed in range(args.count):
            m = 0 if kind == "unbounded" else args.m
            p = generators.random_instance(seed, args.d, m, args.n, kind)
            sp = to_standard_general(p)
            got = solve(sp, rule=_rule_from_flag(args.rule), max_iter=args.max_iter)
            want = brute_force_optimal(sp)
            checked += 1
            if got.status != want.status:
                mismatches.append(
                    (kind, seed, f"status {got.status.value} != {want.status.value}")
                )
                continue
            if got.status is Status.OPTIMAL:
                rel = abs(got.objective - want.objective) / (1.0 + abs(want.objective))
                if rel > 1e-7:
                    mismatches.append(
                        (kind, seed,
                         f"objective {got.objective!r} != {want.objective!r}")
                    )
    for kind, seed, what in mismatches:
        print(f"MISMATCH kind={kind} seed={seed}: {what}   "
              f"(reproduce: facetlp generate random --d {args.d} --m {args.m} "
              f"--n {args.n} --kind {kind} --seed {seed})")
    print(f"verified {checked} instances "
          f"(d={args.d}, m={args.m}, n={args.n}, kinds={','.join(kinds)}): "
          f"{len(mismatches)} mismatches")
    return EXIT_VERIFY_MISMATCH if mismatches else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facetlp",
        description="Facet pivot LP solver and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(sp_):
        sp_.add_argument("--rule", default="max-dev",
                         choices=[r.value for r in PivotRule],
                         help="facet pivot entering rule")
        sp_.add_argument("--max-iter", type=int, default=10_000)
        sp_.add_argument("--big-m", type=float, default=None,
                         help="artificial bound magnitude for infinite bounds")
        sp_.add_argument("--tol-feas", type=float, default=None,
                         help="absolute feasibility tolerance override")

    p_solve = sub.add_parser("solve", help="solve one instance from a file")
    p_solve.add_argument("path")
    p_solve.add_argument("--format", default="auto", choices=["auto", "json", "mps"])
    p_solve.add_argument("--solver", default="facet", choices=SOLVERS)
    add_solver_flags(p_solve)
    p_solve.add_argument("--trace", default=None, metavar="FILE",
                         help="write per-iteration JSONL trace (facet only)")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("generate", help="emit a generated instance as JSON")
    p_gen.add_argument("family", choices=["km1", "km2", "cycling", "random"])
    p_gen.add_argument("--d", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--m", type=int, default=0)
    p_gen.add_argument("--n", type=int, default=4)
    p_gen.add_argument("--kind", default="feasible",
                       choices=["feasible", "infeasible", "unbounded"])
    p_gen.add_argument("--fixture", default=None,
                       choices=list(generators.CYCLING_FIXTURE_IDS))
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--suite", required=True,
                         choices=["km1", "km2", "cycling", "netlib"])
    p_bench.add_argument("--sizes", type=_parse_size_range, default=(3, 10),
                         help="inclusive d range LO:HI for the cube suites")
    p_bench.add_argument("--solvers", default="facet",
                         help=f"comma list from {','.join(SOLVERS)}")
    p_bench.add_argument("--netlib-dir", default=None,
                         help=f"MPS directory (default ${NETLIB_DIR_ENV})")
    add_solver_flags(p_bench)
    p_bench.add_argument("--csv", default=None, metavar="FILE")
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser(
        "verify", help="fuzz the facet solver against the brute-force oracle"
    )
    p_verify.add_argument("--count", type=int, default=100,
                          help="seeds per kind")
    p_verify.add_argument("--d", type=int, default=4)
    p_verify.add_argument("--m", type=int, default=1)
    p_verify.add_argument("--n", type=int, default=6)
    p_verify.add_argument("--kinds", default="feasible,infeasible,unbounded")
    add_solver_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _parse_size_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return (int(lo), int(hi or lo))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SingularMatrix, NoLeavingCandidate) as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FacetLPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
