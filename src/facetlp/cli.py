"""Command-line front end: solve single instances, generate families, run
benchmark suites, and fuzz the solver against the brute-force oracle.

Exit codes: 0 optimal/success, 2 infeasible, 3 unbounded, 4 iteration limit,
5 input/parse error, 6 verify mismatch, 7 numerical breakdown, 1 internal error.
Exit 5 also covers files that cannot be read, are malformed or cannot be
written. Only ``main`` turns exceptions into exit codes; ``solve`` prefixes a
load error with the path, and ``bench`` records a failed instance in its row.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import NoReturn

from facetlp import generators, mps
from facetlp.errors import FacetLPError, NumericalBreakdown
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


# the solver flags each solver reads; given with any other solver they are
# refused, not ignored
_FLAGS_READ = {
    "facet": ("rule", "max_iter", "tol_feas", "trace"),
    "dantzig": ("max_iter",),
    "oracle": (),
}


def _ignored_flag(
    args: argparse.Namespace, solvers: list[str],
    flags: tuple[str, ...] = ("rule", "max_iter", "tol_feas"),
) -> bool:
    """Report the first of ``flags`` given with a solver that would ignore it."""
    for flag in flags:
        others = [s for s in solvers if flag not in _FLAGS_READ[s]]
        if getattr(args, flag) is None or not others:
            continue
        readers = [s for s in SOLVERS if flag in _FLAGS_READ[s]]
        print(f"error: --{flag.replace('_', '-')} applies to the {' and '.join(readers)} "
              f"solver{'s' * (len(readers) > 1)} only, not {','.join(others)}",
              file=sys.stderr)
        return True
    return False


def _rule_and_max_iter(args: argparse.Namespace) -> tuple[PivotRule, int]:
    """``--rule`` and ``--max-iter`` with their defaults applied; the parser
    leaves them None so that ``_ignored_flag`` sees whether they were given."""
    if args.max_iter is not None and args.max_iter < 0:
        raise FacetLPError(f"--max-iter must be nonnegative, got {args.max_iter}")
    rule = PivotRule.MAX_DEVIATION if args.rule is None else PivotRule(args.rule)
    return rule, 10_000 if args.max_iter is None else args.max_iter


def _load_problem(path: str, fmt: str) -> GeneralLP:
    if fmt == "auto":
        fmt = "mps" if path.lower().endswith((".mps", ".sif")) else "json"
    if fmt == "mps":
        p = mps.read_mps(path)
        for warning in p.names["warnings"]:
            print(f"warning: {path}: {warning}", file=sys.stderr)
        return p
    return load_general_lp(path)


def _run_solver(
    p: GeneralLP,
    solver: str,
    rule: PivotRule,
    max_iter: int,
    tol_feas: float | None,
    collect_trace: bool,
) -> SolveOutcome:
    if solver == "facet":
        sp = to_standard_general(p)
        return solve(
            sp, rule=rule, max_iter=max_iter,
            collect_trace=collect_trace, tol_feas=tol_feas,
        )
    if solver == "dantzig":
        return dantzig_solve(to_standard_form(p), max_iter=max_iter)
    if solver == "oracle":
        return brute_force_optimal(to_standard_general(p))
    raise ValueError(f"unknown solver {solver!r}")


@contextlib.contextmanager
def _float_warnings_reported(prefix: str = ""):
    """Record numpy's floating-point RuntimeWarnings (overflow, invalid
    value, divide by zero) while the block runs, and print one ``warning:``
    line of the CLI's own for them, ``prefix`` first, to stderr, also when
    the block raises. Other warnings are shown as they would have been."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            yield
    finally:
        floating = set()
        for w in caught:
            if issubclass(w.category, RuntimeWarning):
                floating.add(str(w.message))
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        if floating:
            print(f"warning: {prefix}floating-point trouble in the solve, its result may be "
                  f"unreliable: {'; '.join(sorted(floating))}", file=sys.stderr)


def _format_objective(objective: float | None) -> str:
    return "" if objective is None else format(objective, ".10g")


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        p = _load_problem(args.path, args.format)
    except (FacetLPError, OSError) as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if _ignored_flag(args, [args.solver], ("rule", "max_iter", "tol_feas", "trace")):
        return EXIT_INPUT_ERROR

    rule, max_iter = _rule_and_max_iter(args)
    # the trace file opens before the solve, so that a bad path fails first
    trace = contextlib.nullcontext() if args.trace is None else open(args.trace, "w")
    with trace:
        with _float_warnings_reported():
            out = _run_solver(
                p, args.solver, rule, max_iter, args.tol_feas,
                collect_trace=args.trace is not None,
            )
        for record in out.trace or ():
            trace.write(json.dumps(record.to_json_dict()) + "\n")

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
    return _STATUS_EXIT[out.status]


def cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "km1":
        p = generators.klee_minty_v1(args.d)
    elif args.family == "km2":
        p = generators.klee_minty_v2(args.d)
    elif args.family == "cycling":
        p = generators.cycling_fixture(args.fixture)
    else:
        p = generators.random_instance(args.seed, args.d, args.m, args.n, args.kind)
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
            yield path.stem, (lambda path=path: _load_problem(str(path), "mps"))
    else:
        raise FacetLPError(f"unknown suite {args.suite!r}")


def cmd_bench(args: argparse.Namespace) -> int:
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not solvers or not set(solvers) <= set(SOLVERS):
        print(f"error: --solvers takes a list from {','.join(SOLVERS)}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if _ignored_flag(args, solvers):
        return EXIT_INPUT_ERROR
    rule, max_iter = _rule_and_max_iter(args)
    rows = []
    instances = list(_bench_instances(args))
    if not instances:
        print(f"error: suite {args.suite} has no instances", file=sys.stderr)
        return EXIT_INPUT_ERROR

    # the CSV file opens before the suite runs, so that a bad path fails first
    with open(args.csv, "w") if args.csv else contextlib.nullcontext() as fh:
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
                        with _float_warnings_reported(f"{name} ({solver}): "):
                            out = _run_solver(
                                p, solver, rule, max_iter, args.tol_feas,
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
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
            fh.write(f"# suite={args.suite} rule={rule.value} max_iter={max_iter}")
            fh.write(f" tol_feas={args.tol_feas}\n")
            writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # --rule and --max-iter steer the facet solves; the oracle reads no flag
    if _ignored_flag(args, ["facet", "oracle"], flags=("tol_feas",)):
        return EXIT_INPUT_ERROR
    rule, max_iter = _rule_and_max_iter(args)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if not kinds or not set(kinds) <= set(generators.RANDOM_KINDS):
        print(f"error: --kinds takes a list from {','.join(generators.RANDOM_KINDS)}",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return EXIT_INPUT_ERROR
    mismatches: list[tuple[str, int, str]] = []
    checked = 0
    for kind in kinds:
        for seed in range(args.count):
            m = 0 if kind == "unbounded" else args.m
            p = generators.random_instance(seed, args.d, m, args.n, kind)
            sp = to_standard_general(p)
            got = solve(sp, rule=rule, max_iter=max_iter)
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


class _Parser(argparse.ArgumentParser):
    """Exits 5 on a usage error, not argparse's 2, which is the exit code of
    an infeasible solve. Subcommand parsers take the same class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="facetlp",
        description="Facet pivot LP solver and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(sp_):
        sp_.add_argument("--rule", default=None,
                         choices=[r.value for r in PivotRule],
                         help="facet pivot entering rule (default max-dev)")
        sp_.add_argument("--max-iter", type=int, default=None,
                         help="pivot limit of the facet and dantzig solvers (default 10000)")
        sp_.add_argument("--tol-feas", type=float, default=None,
                         help="absolute feasibility tolerance override (facet only)")

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
    p_gen.add_argument("--kind", default="feasible", choices=generators.RANDOM_KINDS)
    p_gen.add_argument("--fixture", default="beale",
                       choices=list(generators.CYCLING_FIXTURE_IDS),
                       help="cycling fixture (default beale)")
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
    except NumericalBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FacetLPError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
