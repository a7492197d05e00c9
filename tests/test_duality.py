"""Strong duality as a check of the facet solver beyond the oracle's reach.

Each LP is solved together with its LP dual, and the two statuses must be a
pair that duality allows: both Optimal with objectives summing to zero, or
an Infeasible side facing an Unbounded or Infeasible one. Neither side
needs the brute-force oracle or an outside solver, so the check runs at any
d. The dual of the dual, in turn, must solve to the primal's status and
objective.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from facetlp.facet import PivotRule, Status, solve
from facetlp.generators import klee_minty_v1, klee_minty_v2, random_instance
from facetlp.model import GeneralLP, lp_dual, to_standard_general
from facetlp.mps import read_mps
from facetlp.reference import dantzig_solve, to_standard_form
import workloads  # perfbench/workloads.py, on pytest's pythonpath

FIXTURES = Path(__file__).parent / "fixtures"

OPTIMAL, INFEASIBLE, UNBOUNDED = Status.OPTIMAL, Status.INFEASIBLE, Status.UNBOUNDED
# (primal, dual) pairs that strong duality allows
ALLOWED = {(OPTIMAL, OPTIMAL), (INFEASIBLE, UNBOUNDED), (INFEASIBLE, INFEASIBLE),
           (UNBOUNDED, INFEASIBLE)}


def _oracle_deck():
    return [random_instance(seed, d, m, n, kind)
            for d, m, n in workloads.ORACLE_SHAPES for kind in workloads.ORACLE_KINDS
            for seed in range(50)]


def _cubes():
    return [cube(d) for cube in (klee_minty_v1, klee_minty_v2) for d in range(3, 13)]


def _dense():
    return [workloads.dense_lp(np.random.default_rng([9001, d, s]), d)
            for d in (20, 40, 60) for s in range(3)]


def _mps():
    return [read_mps(path) for path in sorted(FIXTURES.glob("*.mps"))]


# each family, and the (primal, dual) status pairs its LPs give
FAMILIES = {
    "oracle-deck": (_oracle_deck, {(OPTIMAL, OPTIMAL): 150, (INFEASIBLE, UNBOUNDED): 150,
                                   (UNBOUNDED, INFEASIBLE): 150}),
    "cubes": (_cubes, {(OPTIMAL, OPTIMAL): 20}),
    "dense": (_dense, {(OPTIMAL, OPTIMAL): 9}),
    "mps": (_mps, {(OPTIMAL, OPTIMAL): 6}),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_lp_and_its_dual_obey_strong_duality(family):
    build, want = FAMILIES[family]
    pairs = Counter()
    for i, p in enumerate(build()):
        primal = solve(to_standard_general(p))
        dual = solve(to_standard_general(lp_dual(p)))
        pair = primal.status, dual.status
        assert pair in ALLOWED, (family, i, pair)
        if pair == (OPTIMAL, OPTIMAL):
            gap = abs(primal.objective + dual.objective)
            scale = max(1.0, abs(primal.objective), abs(dual.objective))
            assert gap <= 1e-7 * scale, (family, i, primal.objective, dual.objective)
        pairs[pair] += 1
    assert pairs == want


@pytest.mark.parametrize("family", FAMILIES)
def test_the_dual_of_the_dual_solves_to_the_primal(family):
    build, _ = FAMILIES[family]
    for i, p in enumerate(build()):
        primal = solve(to_standard_general(p))
        again = solve(to_standard_general(lp_dual(lp_dual(p))))
        assert again.status == primal.status, (family, i, primal.status, again.status)
        if primal.status is OPTIMAL:
            scale = max(1.0, abs(primal.objective))
            assert abs(again.objective - primal.objective) <= 1e-7 * scale, (
                family, i, primal.objective, again.objective)


def test_dual_of_a_small_lp_by_hand():
    # min x1 + 2 x2 s.t. x1 + x2 = 1, x1 - x2 >= -3, 0 <= x1 <= 4, x2 >= 0:
    # its dual has variables (u free, v, w_l1, w_l2, w_u1) and rows
    # u + v + w_l1 - w_u1 = 1 and u - v + w_l2 = 2
    p = GeneralLP(c=[1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], A_ineq=[[1.0, -1.0]],
                  b_ineq=[-3.0], upper=[4.0, np.inf], objective_offset=0.5)
    q = lp_dual(p)
    np.testing.assert_array_equal(q.A_eq, [[1.0, 1.0, 1.0, 0.0, -1.0],
                                           [1.0, -1.0, 0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(q.b_eq, [1.0, 2.0])
    np.testing.assert_array_equal(q.c, [-1.0, 3.0, 0.0, 0.0, 4.0])
    np.testing.assert_array_equal(q.lower, [-np.inf, 0.0, 0.0, 0.0, 0.0])
    assert q.objective_offset == -0.5
    primal, dual = solve(to_standard_general(p)), solve(to_standard_general(q))
    assert primal.objective == pytest.approx(1.5) and dual.objective == pytest.approx(-1.5)


def _inequality_dual(p: GeneralLP) -> GeneralLP:
    """The dual of a cube posed as max c.x s.t. A x <= b, x >= 0, with
    A = -A_ineq, b = -b_ineq and c = -c: min b.y s.t. A^T y >= c, y >= 0.
    Unlike ``lp_dual``'s equality form, it keeps one row per primal
    variable and one variable per primal row."""
    A, b = -p.A_ineq, -p.b_ineq
    return GeneralLP(c=b, A_ineq=A.T, b_ineq=-p.c, lower=np.zeros(b.size))


@pytest.mark.parametrize("cube", [klee_minty_v1, klee_minty_v2])
def test_facet_pivots_on_the_dual_cubes_mirror_dantzig_on_the_primal(cube):
    fib = [1, 1]
    while len(fib) < 14:
        fib.append(fib[-1] + fib[-2])
    for d in range(3, 13):
        p = cube(d)
        sp = to_standard_general(_inequality_dual(p))
        max_dev, max_norm, least = (solve(sp, rule) for rule in PivotRule)
        most_negative = dantzig_solve(to_standard_form(p))
        bland = dantzig_solve(to_standard_form(p), bland=True)
        primal_optimum = -(5.0 ** d if cube is klee_minty_v1 else 2.0 ** d - 1)
        for out in (max_dev, max_norm, least):
            assert out.status is OPTIMAL and out.objective == -primal_optimum, (d, out)
        assert most_negative.objective == primal_optimum, d
        if cube is klee_minty_v1:
            assert max_dev.iterations == 2 ** d - 1, d
        assert max_dev.iterations == most_negative.phase2_iterations, d
        assert least.iterations == 2 * fib[d] - 1 == bland.phase2_iterations, d
        assert max_norm.iterations == 1, d
