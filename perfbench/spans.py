"""Outside-in tracing of facetlp's layers.

The tracer replaces module attributes of public functions with wrappers that
record one span per call: name, start, end, parent and an optional value read
from the arguments or result after the span has closed. Because facetlp calls
its own layers through module globals (``linalg.factor``, ``pivot``,
``fact.solve`` -> ``linalg.solve``), the wrappers see calls made inside
``facet.solve`` as well as the benchmark's own. Nothing under ``src/`` is
edited. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from facetlp import facet, generators, linalg, model, mps, reference


def _factor_extra(args, result):
    return (result.dimension, result.near_singular)


def _pivot_extra(args, result):
    """Whether the pivot raised the objective, by the stall rule's tolerance."""
    sp, state, new_state = args[0], args[2], result[1]
    c, offset = sp.c_original, sp.objective_offset
    before = float(c @ state.x) + offset
    after = float(c @ new_state.x) + offset
    tol = facet.TOL_OBJ_BASE * (1.0 + max(abs(before), abs(after)))
    return after > before + tol


def _iterations_extra(args, result):
    return result.iterations


# (module, attribute, span name, value recorded after the call)
WRAPPED = (
    (facet, "solve", "facet.solve", None),
    (facet, "select_entering", "facet.select_entering", None),
    (facet, "expand_entering", "facet.expand_entering", None),
    (facet, "check_infeasible", "facet.check_infeasible", None),
    (facet, "select_leaving", "facet.select_leaving", None),
    (facet, "detect_leaving_redundant", "facet.detect_leaving_redundant", None),
    (facet, "pivot", "facet.pivot", _pivot_extra),
    (linalg, "factor", "linalg.factor", _factor_extra),
    (linalg, "solve", "linalg.solve", None),
    (linalg, "solve_transpose", "linalg.solve_transpose", None),
    (reference, "brute_force_optimal", "reference.brute_force_optimal", _iterations_extra),
    (reference, "dantzig_solve", "reference.dantzig_solve", _iterations_extra),
    (mps, "parse_mps", "mps.parse", None),
    (model, "to_standard_general", "model.to_standard_general", None),
    (generators, "klee_minty_v1", "generators.build", None),
    (generators, "klee_minty_v2", "generators.build", None),
    (generators, "cycling_fixture", "generators.build", None),
    (generators, "random_instance", "generators.build", None),
)


class Tracer:
    """Installs the wrappers and keeps the spans they record.

    A span is a tuple (name, start, end, parent index, value); the parent of
    a root span is -1.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, extra in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, extra))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name, extra):
        tracer, stack = self, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if extra is not None:
                spans[idx] = (name, start, end, parent, extra(args, result))
            return result

        return wrapper


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def closure(spans: list[tuple]) -> tuple[float, float]:
    """(sum of self times of every facet and linalg span, total time of the
    root facet.solve spans). The two agree when every facet and linalg call
    ran inside a solve and nothing else did."""
    own = self_times(spans)
    inside = sum(t for s, t in zip(spans, own) if s[0].startswith(("facet.", "linalg.")))
    total = sum(s[2] - s[1] for s in spans if s[0] == "facet.solve" and s[3] < 0)
    return inside, total


COUNTS = (
    "linalg.factor.calls", "linalg.factor.near_singular",
    "linalg.solve.calls", "linalg.solve_transpose.calls", "facet.solve.calls",
    "facet.pivots", "facet.pivot.fallbacks", "facet.y_c_refreshes",
    "reference.brute_force_optimal.calls", "reference.dantzig_solve.calls",
    "reference.dantzig_solve.pivots",
)


def pass_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts and times (ms) of one traced pass."""
    own = self_times(spans)
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_ms: defaultdict = defaultdict(float)
    values: defaultdict = defaultdict(list)
    parent_of: Counter = Counter()
    for (name, start, end, parent, value), t in zip(spans, own):
        calls[name] += 1
        total[name] += (end - start) * 1e3
        self_ms[name] += t * 1e3
        if value is not None:
            values[name].append(value)
        if parent >= 0:
            parent_of[(name, spans[parent][0])] += 1

    factor_flops = sum(2.0 / 3.0 * d**3 for d, _ in values["linalg.factor"])
    pivots = calls["facet.pivot"]
    return {
        "linalg.factor.calls": calls["linalg.factor"],
        "linalg.factor.ms": total["linalg.factor"],
        "linalg.factor.gflops_computed": _rate(factor_flops / 1e9, total["linalg.factor"]),
        "linalg.factor.near_singular": sum(near for _, near in values["linalg.factor"]),
        "linalg.solve.calls": calls["linalg.solve"],
        "linalg.solve.ms": total["linalg.solve"],
        "linalg.solve_transpose.calls": calls["linalg.solve_transpose"],
        "linalg.solve_transpose.ms": total["linalg.solve_transpose"],
        "facet.solve.calls": calls["facet.solve"],
        "facet.solve.ms": total["facet.solve"],
        "facet.solve.self_ms": self_ms["facet.solve"],
        "facet.select_entering.ms": total["facet.select_entering"],
        "facet.expand_entering.ms": total["facet.expand_entering"],
        "facet.select_leaving.ms": total["facet.select_leaving"],
        "facet.detect_leaving_redundant.ms": total["facet.detect_leaving_redundant"],
        "facet.check_infeasible.ms": total["facet.check_infeasible"],
        "facet.pivot.self_ms": self_ms["facet.pivot"],
        "facet.pivots": pivots,
        # pivot solves once for the step direction; a second solve is the
        # direct-solve fallback after the residual check tripped
        "facet.pivot.fallbacks": parent_of[("linalg.solve", "facet.pivot")] - pivots,
        "facet.y_c_refreshes": parent_of[("linalg.solve_transpose", "facet.solve")],
        "facet.pivot.progress_frac": sum(values["facet.pivot"]) / pivots if pivots else 0.0,
        "reference.brute_force_optimal.calls": calls["reference.brute_force_optimal"],
        "reference.brute_force_optimal.ms": total["reference.brute_force_optimal"],
        "reference.brute_force_optimal.bases_per_s": _rate(
            sum(values["reference.brute_force_optimal"]),
            total["reference.brute_force_optimal"]),
        "reference.dantzig_solve.calls": calls["reference.dantzig_solve"],
        "reference.dantzig_solve.ms": total["reference.dantzig_solve"],
        "reference.dantzig_solve.pivots": sum(values["reference.dantzig_solve"]),
    }


def setup_metrics(spans: list[tuple]) -> dict[str, float]:
    """Times (ms) of the set-up layers while one deck was built."""
    total: defaultdict = defaultdict(float)
    for name, start, end, _, _ in spans:
        total[name] += (end - start) * 1e3
    return {name + ".ms": total[name]
            for name in ("mps.parse", "generators.build", "model.to_standard_general")}


def _rate(amount: float, ms: float) -> float:
    return amount / (ms / 1e3) if ms > 0 else 0.0


def write_spans(spans: list[tuple], path: Path) -> None:
    """One CSV row per span, times in seconds from the first span's start."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = spans[0][1] if spans else 0.0
    with path.open("w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["index", "name", "start_s", "end_s", "parent", "value"])
        for i, (name, start, end, parent, value) in enumerate(spans):
            out.writerow([i, name, repr(start - origin), repr(end - origin), parent,
                          "" if value is None else value])
