"""Seeded decks, timed pipelines and output checks for the three workloads.

A deck is a list of instances plus the order one pass visits them in. The
timed loop runs whole passes, so every pass does the same work and passes
can be compared. The benchmark's seed picks the inputs; the solvers only ever
see the generated problems.

Every solver call goes through a module attribute (``facet.solve``,
``reference.brute_force_optimal``, ...) so that the traced run, which swaps
those attributes for timing wrappers, sees each call.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from facetlp import facet, generators, model, mps, reference  # noqa: E402

WORKLOADS = ("dense", "oracle", "cubes")
SIZES = ("full", "tiny")

# criterion 3 of the acceptance suite, also used against HiGHS
REL_TOL = 1e-7
# the acceptance suite checks criterion 3 on these instance seeds
ORACLE_SEED_RANGE = 500
ORACLE_SHAPES = ((3, 1, 4), (4, 1, 6), (5, 2, 8))
ORACLE_KINDS = ("feasible", "infeasible", "unbounded")
FIXTURE_DIR = ROOT / "tests" / "fixtures"


@dataclass
class Instance:
    """One problem and the solver calls its pipeline makes, in order."""

    name: str
    lp: model.GeneralLP
    steps: list[tuple[str, Callable[[], facet.SolveOutcome]]]
    # closed-form expectations per step; steps missing here are checked
    # against a reference solver (see ``expected``)
    pins: dict[str, dict] = field(default_factory=dict)
    sp: model.StandardGeneralLP | None = None
    # the reference solver for unpinned steps: "highs" or "oracle"
    reference: str = "highs"


@dataclass
class Deck:
    instances: list[Instance]
    # instance indices in the order one pass visits them
    order: list[int]
    # indices visited by one traced pass: a fixed, balanced share of the deck
    trace_pass: list[int]


def build(workload: str, seed: int, size: str = "full") -> Deck:
    """Generate and convert every instance of a workload's deck."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return {"dense": _dense, "oracle": _oracle, "cubes": _cubes}[workload](
        seed, size == "tiny"
    )


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def dense_lp(rng: np.random.Generator, d: int) -> model.GeneralLP:
    """n = 2d >= rows with integer entries in [-9, 9], strictly satisfied at a
    planted integer point, inside the box [-20, 20]^d."""
    n = 2 * d
    A = rng.integers(-9, 10, size=(n, d)).astype(float)
    x0 = rng.integers(-3, 4, size=d).astype(float)
    slack = rng.integers(1, 7, size=n).astype(float)
    c = rng.integers(-9, 10, size=d).astype(float)
    return model.GeneralLP(
        c=c, A_ineq=A, b_ineq=A @ x0 - slack,
        lower=np.full(d, -20.0), upper=np.full(d, 20.0),
        names={"family": "dense", "d": d},
    )


# (size d, instances) per plateau. Latency quantiles land mid-plateau (p50
# among the d=100 solves, p90 among the d=180 ones), so they do not jump
# between sizes from one seed to the next; 100 solves leave ten beyond p90.
DENSE_PLATEAUS = ((60, 30), (100, 50), (180, 20))
DENSE_PLATEAUS_TINY = ((8, 3), (12, 3), (16, 2))


def _interleaved(plateaus) -> list[tuple[int, int]]:
    """(plateau, member) pairs with every plateau spread evenly over the
    order, so any prefix holds each size in proportion."""
    slots = [((j + 0.5) / count, p, j)
             for p, (_, count) in enumerate(plateaus) for j in range(count)]
    return [(p, j) for _, p, j in sorted(slots)]


def _dense(seed: int, tiny: bool) -> Deck:
    plateaus = DENSE_PLATEAUS_TINY if tiny else DENSE_PLATEAUS
    instances = []
    for p, j in _interleaved(plateaus):
        d = plateaus[p][0]
        lp = dense_lp(np.random.default_rng([seed, p, j]), d)
        sp = model.to_standard_general(lp)
        instances.append(Instance(
            name=f"dense-d{d}-{j}", lp=lp, sp=sp,
            steps=[("facet", lambda sp=sp: facet.solve(sp))],
        ))
    order = list(range(len(instances)))
    return Deck(instances, order, trace_pass=order[: 4 if tiny else 20])


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _oracle(seed: int, tiny: bool) -> Deck:
    # 12 of each shape and kind: one pass holds 108 facet solves, enough for
    # a p90 with ten samples beyond it, and is short enough to repeat
    per_group = 1 if tiny else 12
    rng = np.random.default_rng(seed)
    groups = [(shape, kind) for shape in ORACLE_SHAPES for kind in ORACLE_KINDS]
    seeds = [rng.choice(ORACLE_SEED_RANGE, per_group, replace=False) for _ in groups]
    instances: list[Instance] = []
    for r in range(per_group):
        for g in rng.permutation(len(groups)):
            (d, m, n), kind = groups[g]
            s = int(seeds[g][r])
            # unbounded plants have no equality rows, as ``facetlp verify`` builds them
            lp = generators.random_instance(s, d, 0 if kind == "unbounded" else m, n, kind)
            sp = model.to_standard_general(lp)
            instances.append(Instance(
                name=f"oracle-{kind}-d{d}m{m}n{n}-s{s}", lp=lp, sp=sp,
                steps=[
                    ("facet", lambda sp=sp: facet.solve(sp)),
                    ("oracle", lambda sp=sp: reference.brute_force_optimal(sp)),
                ],
                reference="oracle",
            ))
    order = list(range(len(instances)))
    return Deck(instances, order, trace_pass=order)


# ---------------------------------------------------------------------------
# cubes
# ---------------------------------------------------------------------------

def _cubes(seed: int, tiny: bool) -> Deck:
    km1_top, km2_top, dantzig_top = (6, 6, 5) if tiny else (16, 19, 12)
    instances: list[Instance] = []

    for d in range(3, km1_top + 1):
        lp = generators.klee_minty_v1(d)
        sp = model.to_standard_general(lp)
        steps = [("facet", lambda sp=sp: facet.solve(sp))]
        pins = {"facet": _optimal(-(5.0**d), 1e-12 * 5.0**d, iterations=d)}
        if d <= dantzig_top:
            sf = reference.to_standard_form(lp)
            steps.append(("dantzig", lambda sf=sf: reference.dantzig_solve(sf)))
            pins["dantzig"] = {"status": "Optimal", "phase2": 2**d - 1}
        instances.append(Instance(f"km1-d{d}", lp, steps, pins, sp))

    for d in range(3, km2_top + 1):
        lp = generators.klee_minty_v2(d)
        sp = model.to_standard_general(lp)
        instances.append(Instance(
            f"km2-d{d}", lp, [("facet", lambda sp=sp: facet.solve(sp))],
            {"facet": _optimal(-(2.0**d - 1.0), 0.0, iterations=d)}, sp,
        ))

    for fid in generators.CYCLING_FIXTURE_IDS:
        lp = generators.cycling_fixture(fid)
        sp = model.to_standard_general(lp)
        sf = reference.to_standard_form(lp)
        steps = [
            ("facet-least-index",
             lambda sp=sp: facet.solve(sp, facet.PivotRule.LEAST_INDEX)),
            ("facet-max-dev",
             lambda sp=sp: facet.solve(sp, facet.PivotRule.MAX_DEVIATION)),
            ("dantzig-bland",
             lambda sf=sf: reference.dantzig_solve(sf, bland=True)),
        ]
        instances.append(Instance(
            f"cycling-{fid}", lp, steps,
            {label: {"status": "Optimal"} for label, _ in steps}, sp,
        ))

    fixtures = sorted(FIXTURE_DIR.glob("*.mps"))
    if not fixtures:
        raise FileNotFoundError(f"no MPS fixtures under {FIXTURE_DIR}")
    for path in fixtures:
        lp = mps.to_general_lp(mps.parse_mps(path.read_text()))
        sp = model.to_standard_general(lp)
        instances.append(Instance(
            f"mps-{path.stem}", lp, [("facet", lambda sp=sp: facet.solve(sp))], sp=sp,
        ))

    order = [int(i) for i in np.random.default_rng(seed).permutation(len(instances))]
    return Deck(instances, order, trace_pass=order)


# ---------------------------------------------------------------------------
# expectations and checks
# ---------------------------------------------------------------------------

def _optimal(objective: float, abs_tol: float, iterations: int | None = None) -> dict:
    want = {"status": "Optimal", "objective": objective, "abs_tol": abs_tol}
    if iterations is not None:
        want["iterations"] = iterations
    return want


def _criterion3(status: str, objective: float | None) -> dict:
    if status != "Optimal":
        return {"status": status}
    return _optimal(objective, REL_TOL * (1.0 + abs(objective)))


_HIGHS_STATUS = {0: "Optimal", 2: "Infeasible", 3: "Unbounded"}


def highs_answer(lp: model.GeneralLP) -> dict:
    """Status and objective from HiGHS, the independent reference solver."""
    from scipy.optimize import linprog

    res = linprog(
        lp.c,
        A_ub=-lp.A_ineq if lp.num_ineq else None,
        b_ub=-lp.b_ineq if lp.num_ineq else None,
        A_eq=lp.A_eq if lp.num_eq else None,
        b_eq=lp.b_eq if lp.num_eq else None,
        bounds=[(None if np.isneginf(lo) else lo, None if np.isposinf(hi) else hi)
                for lo, hi in zip(lp.lower, lp.upper)],
        method="highs",
    )
    if res.status not in _HIGHS_STATUS:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    status = _HIGHS_STATUS[res.status]
    objective = float(res.fun) + lp.objective_offset if status == "Optimal" else None
    return _criterion3(status, objective)


def expected(inst: Instance) -> dict[str, dict]:
    """What each step of the instance must return. Computed outside every
    timed region: closed-form pins where the acceptance suite has them, the
    brute-force oracle for small random instances, HiGHS otherwise."""
    want = dict(inst.pins)
    unpinned = [label for label, _ in inst.steps if label not in want]
    if not unpinned:
        return want
    if inst.reference == "oracle":
        truth = reference.brute_force_optimal(inst.sp)
        answer = _criterion3(truth.status.value, truth.objective)
    else:
        answer = highs_answer(inst.lp)
    for label in unpinned:
        want[label] = answer
    return want


@dataclass(frozen=True)
class Summary:
    """The parts of a solver outcome the checks read."""

    status: str
    objective: float | None
    iterations: int
    phase2: int | None

    @classmethod
    def of(cls, out: facet.SolveOutcome) -> "Summary":
        return cls(out.status.value, out.objective, out.iterations, out.phase2_iterations)


def check(got: dict[str, Summary], want: dict[str, dict]) -> list[str]:
    """Every way the outcomes of one pipeline miss their expectations."""
    errors = []
    for label, w in want.items():
        g = got[label]
        if g.status != w["status"]:
            errors.append(f"{label}: status {g.status} != {w['status']}")
            continue
        if "objective" in w and not abs(g.objective - w["objective"]) <= w["abs_tol"]:
            errors.append(f"{label}: objective {g.objective!r} != {w['objective']!r}")
        if "iterations" in w and g.iterations != w["iterations"]:
            errors.append(f"{label}: {g.iterations} pivots != {w['iterations']}")
        if "phase2" in w and g.phase2 != w["phase2"]:
            errors.append(f"{label}: {g.phase2} phase-2 pivots != {w['phase2']}")
    return errors
