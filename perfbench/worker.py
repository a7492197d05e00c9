"""The workload process: set-up, timed loop, traced passes and output checks.

``run.py`` starts this script with BLAS pinned to one thread and reads the
JSON object it prints as its last line. Run it directly only to debug:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/worker.py --workload cubes --seed 1 --seconds 2
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

# a p90 needs at least ten samples beyond it
MIN_SOLVES = 100
# The host's speed drifts by up to half over seconds, for whole runs at a
# time, and CPU time drifts with it. Every timing is therefore scaled by
# REF_KERNEL_S over the time of a fixed calibration kernel measured around it,
# which reads each timing as if taken on a host where the kernel takes 2 ms.
REF_KERNEL_S = 0.002
CALIBRATE_EVERY_S = 0.5


def kernel_s() -> float:
    """Best of three timings of the calibration kernel: interpreter work,
    small numpy calls and an 80x80 LU factorization, none of it facetlp."""
    import numpy as np
    import scipy.linalg

    m = np.eye(80) * 4.0 + 0.01
    v0 = np.arange(2000.0)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(10_000):
            x += i * i
        v = v0
        for _ in range(200):
            v = np.abs(v - 1.0)
        for _ in range(10):
            scipy.linalg.lu_factor(m)
        best = min(best, time.perf_counter() - t0)
    return best


def run_passes(deck, order: list[int], seconds: float, min_solves: int = MIN_SOLVES) -> dict:
    """Closed loop: whole passes over ``order``, one instance at a time. Runs
    at least one pass, and more until ``min_solves`` facet solves were timed
    and while another pass can be expected to end within ``seconds``.

    Between instances, at most every CALIBRATE_EVERY_S, the calibration
    kernel runs; each visit's timings carry the scale from the kernel times
    just before and just after it.
    """
    calibrations = [(time.perf_counter(), kernel_s())]
    visits, timings, pass_walls = [], [], []
    solves = 0
    start = time.perf_counter()
    while not pass_walls or solves < min_solves or (
            time.perf_counter() - start + sum(pass_walls) / len(pass_walls) <= seconds):
        t0 = time.perf_counter()
        for idx in order:
            if time.perf_counter() - calibrations[-1][0] >= CALIBRATE_EVERY_S:
                calibrations.append((time.perf_counter(), kernel_s()))
            got, wall, facet_runs = _run_pipeline(deck.instances[idx])
            visits.append((idx, got))
            timings.append((len(calibrations) - 1, wall, facet_runs))
            solves += len(facet_runs)
        pass_walls.append(time.perf_counter() - t0)
    calibrations.append((time.perf_counter(), kernel_s()))
    scale = [2.0 * REF_KERNEL_S / (a[1] + b[1]) for a, b in zip(calibrations, calibrations[1:])]
    return {
        "visits": visits,
        # (scale, pipeline seconds, [(facet.solve seconds, pivots), ...]) per visit
        "timings": [(scale[k], wall, runs) for k, wall, runs in timings],
        "passes": len(pass_walls),
    }


def end_to_end(run: dict) -> tuple[dict, dict]:
    """Scaled end-to-end values, and the samples and raw value behind each."""
    timings = run["timings"]
    wall = sum(s * w for s, w, _ in timings)
    raw_wall = sum(w for _, w, _ in timings)
    lat_ms = [s * t * 1e3 for s, _, runs in timings for t, _ in runs]
    raw_ms = [t * 1e3 for _, _, runs in timings for t, _ in runs]
    pivots = sum(p for _, _, runs in timings for _, p in runs)
    n = len(timings)

    def quantiles(ms):
        return statistics.median(ms), statistics.quantiles(ms, n=10)[8]

    (p50, p90), (raw_p50, raw_p90) = quantiles(lat_ms), quantiles(raw_ms)
    values = {
        "instances_per_s": n / wall,
        "facet_pivots_per_s": pivots / (sum(lat_ms) / 1e3),
        "facet_solve_ms_p50": p50,
        "facet_solve_ms_p90": p90,
    }
    passes = f"{run['passes']} passes"
    samples = {
        "instances_per_s": f"{n} instances, {passes}; raw {n / raw_wall:.6g}",
        "facet_pivots_per_s": f"{pivots} pivots, {passes}; raw "
                              f"{pivots / (sum(raw_ms) / 1e3):.6g}",
        "facet_solve_ms_p50": f"{len(lat_ms)} solves; raw {raw_p50:.6g}",
        "facet_solve_ms_p90": f"{len(lat_ms)} solves, {sum(t > p90 for t in lat_ms)} "
                              f"beyond p90; raw {raw_p90:.6g}",
    }
    return values, samples


def _run_pipeline(inst) -> tuple[dict | str, float, list[tuple[float, int]]]:
    """Run every step of one instance. Returns the step summaries (or the
    error that stopped the pipeline), its wall time, and the time and pivot
    count of each facet.solve call."""
    from workloads import Summary

    got, facet_runs = {}, []
    start = time.perf_counter()
    try:
        for label, call in inst.steps:
            t0 = time.perf_counter()
            out = call()
            t1 = time.perf_counter()
            if label.startswith("facet"):
                facet_runs.append((t1 - t0, out.iterations))
            got[label] = Summary.of(out)
    except Exception as exc:  # a failed operation is counted, not fatal
        got = f"{label}: {type(exc).__name__}: {exc}"
    return got, time.perf_counter() - start, facet_runs


def count_failures(deck, visits, want: dict[int, dict] | None = None) -> tuple[int, list[str]]:
    """Check every visit against its instance's expected answers, computing
    those that ``want`` lacks. Returns the number of failed visits and the
    first few reasons."""
    import workloads

    want = {} if want is None else want
    failed, reasons = 0, []
    for idx, got in visits:
        inst = deck.instances[idx]
        if isinstance(got, str):
            errors = [got]
        else:
            if idx not in want:
                want[idx] = workloads.expected(inst)
            errors = workloads.check(got, want[idx])
        if errors:
            failed += 1
            if len(reasons) < 10:
                reasons.append(f"{inst.name}: {'; '.join(errors)}")
    return failed, reasons


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment() -> dict:
    """Interpreter, library and BLAS facts of this process."""
    import ctypes
    import os
    import platform

    import numpy
    import scipy

    blas = []
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("", "64_"):
            for prefix in ("scipy_openblas", "openblas"):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry["threads"] = threads()
                entry["config"] = config().decode()
        blas.append(entry)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_untraced(args) -> dict:
    t0 = time.perf_counter()
    import workloads

    deck = workloads.build(args.workload, args.seed, args.size)
    raw_setup_s = time.perf_counter() - t0
    setup_s = raw_setup_s * REF_KERNEL_S / kernel_s()
    if args.setup_only:
        return {"setup_s": setup_s, "raw_setup_s": raw_setup_s}

    run = run_passes(deck, deck.order, args.seconds)
    peak = _peak_rss_mb()
    values, samples = end_to_end(run)
    failed, reasons = count_failures(deck, run["visits"])
    return {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "values": dict(values, peak_rss_mb=peak),
        "samples": dict(samples, peak_rss_mb="workload process, when the timed loop ended"),
        "attempted": len(run["visits"]),
        "failed": failed,
        "reasons": reasons,
        "environment": environment(),
    }


def run_traced(args) -> dict:
    """Alternate untraced and traced passes over the deck's trace pass until
    ``seconds`` have passed. Counts come from one traced pass and must repeat
    on every other; layer times are raw means over the traced passes; the
    overhead compares scaled pass times."""
    import workloads
    from spans import COUNTS, Tracer, closure, pass_metrics, setup_metrics, write_spans

    tracer = Tracer()
    tracer.install()
    deck = workloads.build(args.workload, args.seed, args.size)
    layer = setup_metrics(tracer.take())
    tracer.uninstall()

    untraced, traced, passes, visits = [], [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        plain = run_passes(deck, deck.trace_pass, 0.0, min_solves=0)
        tracer.install()
        with_spans = run_passes(deck, deck.trace_pass, 0.0, min_solves=0)
        tracer.uninstall()
        passes.append(tracer.take())
        untraced.append(sum(s * w for s, w, _ in plain["timings"]))
        traced.append(sum(s * w for s, w, _ in with_spans["timings"]))
        visits += plain["visits"] + with_spans["visits"]

    per_pass = [pass_metrics(s) for s in passes]
    first = per_pass[0]
    repeats = all(all(m[k] == first[k] for k in COUNTS) for m in per_pass)
    for name in first:
        if name in COUNTS:
            layer[name] = first[name]
        else:
            layer[name] = sum(m[name] for m in per_pass) / len(per_pass)
    mean_untraced = sum(untraced) / len(untraced)
    mean_traced = sum(traced) / len(traced)
    layer["trace.untraced_pass_ms"] = mean_untraced * 1e3
    layer["trace.traced_pass_ms"] = mean_traced * 1e3
    layer["trace.overhead_frac"] = mean_traced / mean_untraced - 1.0

    inside, total = closure(passes[0])
    if args.spans:
        write_spans(passes[0], Path(args.spans))
    failed, reasons = count_failures(deck, visits)
    if not repeats:
        failed += 1
        reasons.append("per-layer counts differ between traced passes of the same inputs")
    return {
        "attempted": len(visits),
        "failed": failed,
        "reasons": reasons,
        "layer": layer,
        "passes": len(passes),
        "closure_ms": [inside * 1e3, total * 1e3],
        "environment": environment(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="CSV file for the first traced pass")
    args = parser.parse_args(argv)
    result = run_traced(args) if args.trace else run_untraced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
