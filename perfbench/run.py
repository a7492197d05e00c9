"""facetlp benchmark: seeded workloads, end-to-end metrics and a traced
per-layer split.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Each workload runs in its own process with BLAS pinned to one thread.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; ``--workload all`` runs the three workloads in turn.
The last line of the output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md in this directory for
the workloads, the metrics and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dense", "oracle", "cubes")
SETUP_REPEATS = 5
# every run must end within 180 s; leave room to print and exit
DEADLINE_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SPANS_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "facet_pivots_per_s": "1/s",
    "facet_solve_ms_p50": "ms",
    "facet_solve_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("gflops_computed"):
        return "GFLOP/s"
    if name.endswith("_per_s"):
        return "1/s"
    return "count"


def _child(argv: list[str], deadline: float) -> dict:
    """Run the workload process and return the JSON object it printed last."""
    env = dict(os.environ, **PINNED_ENV)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "facetlp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = out.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def measure(workload: str, args, deadline: float) -> tuple[dict, dict, list[str]]:
    """Run one workload; return (metrics, run record, printable lines)."""
    base = ["--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--size", args.size]
    lines = []
    if args.trace:
        spans_file = SPANS_DIR / f"spans-{workload}-seed{args.seed}.csv"
        out = _child(base + ["--trace", "1", "--spans", str(spans_file)], deadline)
        metrics = {name: {"value": v, "unit": _layer_unit(name)}
                   for name, v in out["layer"].items()}
        inside, total = out["closure_ms"]
        lines.append(f"{workload}: {out['passes']} traced passes; self times of facet and "
                     f"linalg spans sum to {inside:.3f} ms, facet.solve took {total:.3f} ms; "
                     f"spans of the first pass in {spans_file.relative_to(ROOT)}")
        for name, m in metrics.items():
            lines.append(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    else:
        runs = [_child(base + ["--setup-only"], deadline) for _ in range(SETUP_REPEATS - 1)]
        out = _child(base, deadline)
        runs.append(out)
        values = dict(setup_s=statistics.median(r["setup_s"] for r in runs), **out["values"])
        samples = dict(setup_s=f"median of {len(runs)} set-ups; raw "
                               f"{statistics.median(r['raw_setup_s'] for r in runs):.6g}",
                       **out["samples"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        for name, m in metrics.items():
            lines.append(f"{workload}: {name} = {m['value']:.6g} {m['unit']} ({samples[name]})")
        lines.append(f"{workload}: fail_frac = {out['failed'] / out['attempted']:.6g} ratio "
                     f"({out['failed']} of {out['attempted']} instances failed)")
    lines.extend(f"{workload}: FAILED {reason}" for reason in out["reasons"])
    record = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "attempted": out["attempted"], "failed": out["failed"],
              "environment": out["environment"]}
    return metrics, record, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small instances, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "facetlp" / "__init__.py").is_file():
        print(f"facetlp sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    source = _source_record()
    for workload in names:
        try:
            got, record, lines = measure(workload, args, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{workload}: benchmark run failed: {exc}", file=sys.stderr)
            return 1
        for line in lines:
            print(line)
        print("record: " + json.dumps(dict(record, **source)))
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = "" if len(names) == 1 else workload + "."
        metrics.update({prefix + k: v for k, v in got.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
