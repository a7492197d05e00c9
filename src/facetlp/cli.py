"""Command-line front end: solve single instances, generate families, run
benchmark suites, and fuzz the solver against the brute-force oracle.

Exit codes: 0 optimal/success, 2 infeasible, 3 unbounded, 4 iteration limit,
5 input/parse error, 6 verify mismatch, 7 numerical breakdown, 1 internal error.
Exit 5 also covers files that cannot be read, are malformed or cannot be
written. Only ``main`` turns exceptions into exit codes: the commands raise
``FacetLPError`` for an input error, ``solve`` with the path before a load
error's text, and ``bench`` records a failed instance in its row.
"""

from __future__ import annotations

import argparse
import collections
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
    save_general_lp,
    to_standard_general,
)
from facetlp.reference import brute_force_optimal, dantzig_solve, to_standard_form

NETLIB_DIR_ENV = "FACETLP_NETLIB_DIR"
_MPS_SUFFIXES = (".mps", ".sif")  # files read as MPS, in either case

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
_DEFAULT_RULE, _DEFAULT_MAX_ITER = PivotRule.MAX_DEVIATION, 10_000

# each solver's flags and its run on a GeneralLP given (rule, max_iter,
# collect_trace); a solver flag given with a solver that does not read it is
# refused, not ignored
_SOLVERS = {
    "facet": (("rule", "max_iter", "trace"), lambda p, rule, max_iter, trace: solve(
        to_standard_general(p), rule=rule, max_iter=max_iter, collect_trace=trace)),
    "dantzig": (("max_iter",), lambda p, rule, max_iter, trace: dantzig_solve(
        to_standard_form(p), max_iter=max_iter)),
    "oracle": ((), lambda p, *_: brute_force_optimal(to_standard_general(p))),
}
SOLVERS = tuple(_SOLVERS)

# the cube families and their builders, looked up in ``generators`` per call
_CUBES = {
    "km1": lambda d: generators.klee_minty_v1(d),
    "km2": lambda d: generators.klee_minty_v2(d),
}


def _solver_flags(args: argparse.Namespace, solvers: list[str]) -> tuple[PivotRule, int]:
    """``--rule`` and ``--max-iter`` with their defaults applied. A solver
    flag given with a solver that would ignore it, or a negative
    ``--max-iter``, raises ``FacetLPError``; the parser leaves the flags None
    so that this sees whether they were given."""
    for flag in dict.fromkeys(f for reads, _ in _SOLVERS.values() for f in reads):
        others = [s for s in solvers if flag not in _SOLVERS[s][0]]
        if getattr(args, flag, None) is not None and others:
            readers = [s for s, (reads, _) in _SOLVERS.items() if flag in reads]
            raise FacetLPError(
                f"--{flag.replace('_', '-')} applies to the {' and '.join(readers)} "
                f"solver{'s' * (len(readers) > 1)} only, not {','.join(others)}")
    if args.max_iter is not None and args.max_iter < 0:
        raise FacetLPError(f"--max-iter must be nonnegative, got {args.max_iter}")
    rule = _DEFAULT_RULE if args.rule is None else PivotRule(args.rule)
    return rule, _DEFAULT_MAX_ITER if args.max_iter is None else args.max_iter


def _load_problem(path: str, fmt: str) -> GeneralLP:
    if fmt == "auto":
        fmt = "mps" if path.lower().endswith(_MPS_SUFFIXES) else "json"
    if fmt == "mps":
        p = mps.read_mps(path)
        for warning in p.names["warnings"]:
            print(f"warning: {path}: {warning}", file=sys.stderr)
        return p
    return load_general_lp(path)


def _run_solver(p: GeneralLP, solver: str, rule: PivotRule, max_iter: int,
                collect_trace: bool) -> SolveOutcome:
    return _SOLVERS[solver][1](p, rule, max_iter, collect_trace)


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
        raise FacetLPError(f"{args.path}: {exc}") from exc
    rule, max_iter = _solver_flags(args, [args.solver])
    # the trace file opens before the solve, so that a bad path fails first
    trace = contextlib.nullcontext() if args.trace is None else open(args.trace, "w")
    with trace:
        with _float_warnings_reported():
            out = _run_solver(p, args.solver, rule, max_iter,
                              collect_trace=args.trace is not None)
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
    if args.family in _CUBES:
        p = _CUBES[args.family](args.d)
    elif args.family == "cycling":
        p = generators.cycling_fixture(args.fixture)
    else:
        p = generators.random_instance(args.seed, args.d, args.m, args.n, args.kind)
    if args.output:
        save_general_lp(p, args.output)
    else:
        print(json.dumps(general_lp_to_dict(p), indent=1))
    return 0


def _bench_instances(args: argparse.Namespace):
    """Yield (name, loader) pairs; loaders run inside the per-row guard so a
    broken instance is recorded in its row and the suite continues."""
    if args.suite in _CUBES:
        lo, hi = args.sizes
        for d in range(lo, hi + 1):
            yield f"{args.suite}_d{d}", (lambda d=d: _CUBES[args.suite](d))
    elif args.suite == "cycling":
        for fid in generators.CYCLING_FIXTURE_IDS:
            yield fid, (lambda fid=fid: generators.cycling_fixture(fid))
    else:  # netlib
        directory = args.netlib_dir or os.environ.get(NETLIB_DIR_ENV)
        if not directory:
            raise FacetLPError(f"netlib suite needs --netlib-dir or ${NETLIB_DIR_ENV}")
        if not Path(directory).is_dir():
            raise FacetLPError(f"{directory} is not a directory")
        paths = sorted(path for path in Path(directory).glob("*")
                       if path.suffix.lower() in _MPS_SUFFIXES)
        if not paths:
            raise FacetLPError(f"no {' or '.join(_MPS_SUFFIXES)} files under {directory}")
        # a stem shared by two files, as a.mps and a.SIF, would name two rows alike
        stems = collections.Counter(path.stem for path in paths)
        for path in paths:
            name = path.stem if stems[path.stem] == 1 else path.name
            yield name, (lambda path=path: _load_problem(str(path), "mps"))


def cmd_bench(args: argparse.Namespace) -> int:
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not solvers or not set(solvers) <= set(SOLVERS):
        raise FacetLPError(f"--solvers takes a list from {','.join(SOLVERS)}")
    rule, max_iter = _solver_flags(args, solvers)
    rows = []
    instances = list(_bench_instances(args))
    if not instances:
        raise FacetLPError(f"suite {args.suite} has no instances")

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
                            out = _run_solver(p, solver, rule, max_iter,
                                              collect_trace=False)
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
            fh.write(f"# suite={args.suite} rule={rule.value} max_iter={max_iter}\n")
            writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # --rule and --max-iter steer the facet solves; the oracle reads no flag
    rule, max_iter = _solver_flags(args, ["facet"])
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if not kinds or not set(kinds) <= set(generators.RANDOM_KINDS):
        raise FacetLPError(f"--kinds takes a list from {','.join(generators.RANDOM_KINDS)}")
    if args.count < 1:
        raise FacetLPError("--count must be at least 1")
    mismatches: list[tuple[str, int, str]] = []
    checked = 0
    for kind in kinds:
        for seed in range(args.count):
            p = generators.random_instance(seed, args.d, args.m, args.n, kind)
            got = _run_solver(p, "facet", rule, max_iter, collect_trace=False)
            want = _run_solver(p, "oracle", rule, max_iter, collect_trace=False)
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
                         help=f"facet pivot entering rule (default {_DEFAULT_RULE.value})")
        sp_.add_argument("--max-iter", type=int, default=None,
                         help="pivot limit of the facet and dantzig solvers "
                              f"(default {_DEFAULT_MAX_ITER})")

    p_solve = sub.add_parser("solve", help="solve one instance from a file")
    p_solve.add_argument("path")
    p_solve.add_argument("--format", default="auto", choices=["auto", "json", "mps"])
    p_solve.add_argument("--solver", default="facet", choices=SOLVERS)
    add_solver_flags(p_solve)
    p_solve.add_argument("--trace", default=None, metavar="FILE",
                         help="write per-iteration JSONL trace (facet only)")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("generate", help="emit a generated instance as JSON")
    p_gen.add_argument("family", choices=[*_CUBES, "cycling", "random"])
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
                         choices=[*_CUBES, "cycling", "netlib"])
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
