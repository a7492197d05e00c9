"""One JSON line per facet solve and oracle call, to compare two builds.

The first line names the build: numpy's and scipy's versions and the
build string of each OpenBLAS the process loaded, which names the CPU
kernels it picked. Each later line holds what a change to the solver's
numerics can move: status, iterations, the objective as a float hex, a
hash of the bytes of x_opt, the final base rows, the rows found
redundant, a hash of the certificate's repr, a hash of the trace's repr
(entering and leaving rows, objective and violation per pivot), the audit
(violations, base repeats, pivots checked) and, as ``factor_calls``, the
solve's ``SolveOutcome.factorizations``: the number of its ``linalg.factor``
rebuilds. Every solve runs with ``audit=True`` and ``collect_trace=True``.
Two builds whose digests are byte-identical gave bit-identical outcomes on
every solve. The sweep:

- under each pivot rule: km1 d=3..16, km2 d=3..19, the cycling fixtures,
  the MPS fixtures under ``tests/fixtures``, and seeds 0..149 of each
  shape and kind of the benchmark's ``oracle`` deck;
- under the default rule: the benchmark's ``dense`` decks of seeds 1..3,
  and its ``dense_lp`` at d=20..31 (three each) and d=250/300/400 (two
  each).

After the facet lines come the oracle lines, one per
``reference.brute_force_optimal`` call on seeds 0..49 of the random
instances above: status, iterations, objective hex, a hash of x_opt's
bytes, the base rows and the certificate (an artificial row or null).

Last come the Dantzig lines, one per ``reference.dantzig_solve`` call with
at most 20,000 pivots: km1 d=3..12, km2 d=3..19, the MPS fixtures and the
oracle's random instances under the most-negative rule, and the cycling
fixtures under it and under Bland's rule. Each holds the status, the
phase-1 and phase-2 pivot counts, the objective hex and a hash of x_opt's
bytes.

Run it on two checkouts on one host with BLAS pinned to one thread, then
compare:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/outcome_digest.py -o a.jsonl
    cmp a.jsonl b.jsonl

Where they differ, ``--against a.jsonl -o b.jsonl`` writes b.jsonl and
prints what moved: per field, the number of lines whose value changed;
every change of status, iteration count, final base, redundant rows or
audit violations; and the largest relative move of an objective. It exits
1 when any line moved, and 0 when none did. It compares the solves' lines
only, so it also reads a digest with no build line; where both digests
name a build and the two differ, a line naming both comes first.

``--quick`` runs a small subset of each part. Tier-1 regenerates the quick
digest and compares it with the one recorded in
``tests/fixtures/outcome_digest_quick.jsonl``, written by

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/outcome_digest.py \
        --quick -o tests/fixtures/outcome_digest_quick.jsonl

Its largest base is d=20, below the d where LAPACK's LU gives bits that
depend on the BLAS thread count, so the thread count is not in the build
line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402
from facetlp import facet, generators, model, mps, reference  # noqa: E402

FIXTURE_DIR = ROOT / "tests" / "fixtures"


def random_instances(seeds: int):
    """Yield (name, problem) for seeds 0..seeds-1 of each shape and kind of
    the benchmark's ``oracle`` deck."""
    for d, m, n in workloads.ORACLE_SHAPES:
        for kind in workloads.ORACLE_KINDS:
            for seed in range(seeds):
                lp = generators.random_instance(seed, d, m, n, kind)
                yield f"{kind}-d{d}m{m}n{n}-s{seed}", lp


def oracle_cases(quick: bool):
    """Yield (name, problem in the facet form) for every oracle call."""
    for name, lp in random_instances(2 if quick else 50):
        yield name, model.to_standard_general(lp)


def dantzig_cases(quick: bool):
    """Yield (name, problem, bland) for every Dantzig call."""
    km1_top, km2_top, seeds = (5, 5, 2) if quick else (12, 19, 50)
    for d in range(3, km1_top + 1):
        yield f"km1-d{d}", generators.klee_minty_v1(d), False
    for d in range(3, km2_top + 1):
        yield f"km2-d{d}", generators.klee_minty_v2(d), False
    for fid in generators.CYCLING_FIXTURE_IDS:
        for bland in (False, True):
            yield f"cycling-{fid}", generators.cycling_fixture(fid), bland
    for path in sorted(FIXTURE_DIR.glob("*.mps")):
        yield f"mps-{path.stem}", mps.read_mps(path), False
    for name, lp in random_instances(seeds):
        yield name, lp, False


def cases(quick: bool):
    """Yield (name, problem in the facet form, pivot rule) for every solve."""
    km1_top, km2_top, seeds = (5, 5, 2) if quick else (16, 19, 150)
    shared = [(f"km1-d{d}", generators.klee_minty_v1(d)) for d in range(3, km1_top + 1)]
    shared += [(f"km2-d{d}", generators.klee_minty_v2(d)) for d in range(3, km2_top + 1)]
    shared += [(f"cycling-{fid}", generators.cycling_fixture(fid))
               for fid in generators.CYCLING_FIXTURE_IDS]
    shared += [(f"mps-{path.stem}", mps.read_mps(path))
               for path in sorted(FIXTURE_DIR.glob("*.mps"))]
    shared += list(random_instances(seeds))
    for name, lp in shared:
        sp = model.to_standard_general(lp)
        for rule in facet.PivotRule:
            yield name, sp, rule

    default = facet.PivotRule.MAX_DEVIATION
    for seed in (1,) if quick else (1, 2, 3):
        deck = workloads.build("dense", seed, "tiny" if quick else "full")
        for inst in deck.instances:
            yield f"dense-s{seed}-{inst.name}", inst.sp, default
    sizes = [(20, 1)] if quick else [(d, 3) for d in range(20, 32)] + [
        (d, 2) for d in (250, 300, 400)]
    for d, count in sizes:
        for j in range(count):
            lp = workloads.dense_lp(np.random.default_rng([9001, d, j]), d)
            yield f"dense_lp-d{d}-{j}", model.to_standard_general(lp), default


def _hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digest(name: str, sp: model.StandardGeneralLP, rule: facet.PivotRule) -> dict:
    """Solve once with the audit and trace on."""
    out = facet.solve(sp, rule, audit=True, collect_trace=True)
    x_opt = None if out.x_opt is None else np.asarray(out.x_opt, dtype=float)
    return {
        "name": name,
        "rule": rule.value,
        "status": out.status.value,
        "iterations": out.iterations,
        "objective": None if out.objective is None else float(out.objective).hex(),
        "x_opt": None if x_opt is None else _hash(x_opt.tobytes()),
        "basis_rows": list(out.basis_rows),
        "redundant_rows": sorted(out.redundant_rows),
        "certificate": _hash(repr(out.certificate).encode()),
        "trace": _hash(repr(out.trace).encode()),
        "violations": out.audit.violations,
        "base_repeated": out.audit.base_repeated,
        "pivots_checked": out.audit.pivots_checked,
        "factor_calls": out.factorizations,
    }


def oracle_digest(name: str, sp: model.StandardGeneralLP) -> dict:
    """One ``brute_force_optimal`` call's outcome."""
    out = reference.brute_force_optimal(sp)
    return {
        "name": name,
        "solver": "oracle",
        "status": out.status.value,
        "iterations": out.iterations,
        "objective": None if out.objective is None else float(out.objective).hex(),
        "x_opt": None if out.x_opt is None else _hash(np.asarray(out.x_opt, float).tobytes()),
        "basis_rows": None if out.basis_rows is None else list(out.basis_rows),
        "certificate": out.certificate,
    }


def dantzig_digest(name: str, lp: model.GeneralLP, bland: bool) -> dict:
    """One ``dantzig_solve`` call's outcome; the cycling fixtures that cycle
    without Bland's rule stop at the pivot limit."""
    out = reference.dantzig_solve(reference.to_standard_form(lp), max_iter=20_000, bland=bland)
    return {
        "name": name,
        "solver": "dantzig",
        "bland": bland,
        "status": out.status.value,
        "phase1": out.phase1_iterations,
        "phase2": out.phase2_iterations,
        "objective": None if out.objective is None else float(out.objective).hex(),
        "x_opt": None if out.x_opt is None else _hash(np.asarray(out.x_opt, float).tobytes()),
    }


def build() -> dict:
    """The build the digest's bits come from: numpy's and scipy's versions
    and, per OpenBLAS library loaded, its file name and build string."""
    env = worker.environment()
    return {"numpy": env["numpy"], "scipy": env["scipy"],
            "openblas": [[lib["library"], lib.get("config")] for lib in env["openblas"]]}


def sweep(quick: bool):
    """Every line of the digest, in order: the facet solves, the oracle
    calls, then the Dantzig calls."""
    for case in cases(quick):
        yield digest(*case)
    for case in oracle_cases(quick):
        yield oracle_digest(*case)
    for case in dantzig_cases(quick):
        yield dantzig_digest(*case)


# the fields whose every change the comparison lists: the Dantzig lines
# count their pivots in phase1 and phase2
LISTED = ("status", "iterations", "phase1", "phase2", "basis_rows", "redundant_rows",
          "violations")
MOVED_SHOWN = 20


def _key(line: dict) -> tuple:
    return line["name"], line.get("rule"), line.get("solver"), line.get("bland")


def _label(line: dict) -> str:
    return " ".join([line["name"], line.get("rule") or line["solver"]]
                    + ["bland"] * bool(line.get("bland")))


def compare(old: list[dict], new: list[dict]) -> list[str]:
    """The report of what moved from the digest ``old`` to ``new``, whose
    lines must name the same solves in the same order. It ends with the
    first ``MOVED_SHOWN`` moved lines, each with the fields that moved."""
    if [_key(line) for line in old] != [_key(line) for line in new]:
        raise SystemExit("the two digests do not list the same solves")
    moved: dict[str, int] = {}
    changes, worst, worst_at, lines_moved = [], 0.0, "", []
    for a, b in zip(old, new):
        fields = sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))
        if fields:
            lines_moved.append(f"  moved: {_label(a)} ({', '.join(fields)})")
        for field in fields:
            moved[field] = moved.get(field, 0) + 1
            if field in LISTED:
                changes.append(f"  {_label(a)}: {field} {a.get(field)} -> {b.get(field)}")
        if a.get("objective") and b.get("objective"):
            x, y = float.fromhex(a["objective"]), float.fromhex(b["objective"])
            rel = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
            if rel > worst:
                worst, worst_at = rel, f" ({_label(a)})"
    report = [f"{len(new)} lines, {sum(a != b for a, b in zip(old, new))} moved"]
    report += [f"  {field}: {count}" for field, count in sorted(moved.items())]
    report.append(f"changes of {', '.join(LISTED)}: {len(changes)}")
    report += changes
    report.append(f"largest relative objective move: {worst:.3g}{worst_at}")
    report.append("linalg.factor calls: " + " -> ".join(
        str(sum(line.get("factor_calls", 0) for line in lines)) for lines in (old, new)))
    report += lines_moved[:MOVED_SHOWN]
    if len(lines_moved) > MOVED_SHOWN:
        report.append(f"  and {len(lines_moved) - MOVED_SHOWN} more moved lines")
    return report


def build_note(old: dict | None, new: dict | None) -> list[str]:
    """One line naming both builds when two digests name different ones,
    for moved lines may then mean another host rather than another result;
    none when they agree or either names no build."""
    if old is None or new is None or old == new:
        return []
    return [f"the builds differ: {json.dumps(old)} -> {json.dumps(new)}"]


def read(path) -> tuple[dict | None, list[dict]]:
    """The build a digest file names on its first line, or None if it names
    none, and the lines of its solves."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    if lines and "build" in lines[0]:
        return lines[0]["build"], lines[1:]
    return None, lines


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="a small subset of the sweep")
    ap.add_argument("-o", "--output", default="-", help="JSON lines file (default stdout)")
    ap.add_argument("--against", metavar="OLD.jsonl",
                    help="print what moved from this digest to the one written to -o")
    args = ap.parse_args(argv)
    if args.against and args.output == "-":
        ap.error("--against needs -o")
    out = sys.stdout if args.output == "-" else open(args.output, "w")
    try:
        out.write(json.dumps({"build": build()}) + "\n")
        for line in sweep(args.quick):
            out.write(json.dumps(line) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if args.against:
        (old_build, old), (new_build, new) = read(args.against), read(args.output)
        print("\n".join(build_note(old_build, new_build) + compare(old, new)))
        if old != new:
            raise SystemExit(1)


if __name__ == "__main__":
    main()
