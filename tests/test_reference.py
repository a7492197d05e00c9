import dataclasses
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from facetlp import reference
from facetlp.errors import NoLeavingCandidate, NumericalBreakdown, TooLarge
from facetlp.facet import PivotRule, SolveOutcome, Status, solve
from facetlp.generators import (
    CYCLING_FIXTURE_IDS,
    RANDOM_KINDS,
    cycling_fixture,
    klee_minty_v1,
    klee_minty_v2,
    random_instance,
)
from facetlp.model import (
    GeneralLP,
    StandardGeneralLP,
    objective_value,
    to_standard_general,
    violations,
)
from facetlp.mps import read_mps
from facetlp.reference import brute_force_optimal, dantzig_solve, to_standard_form
import workloads  # perfbench/workloads.py, on pytest's pythonpath

FIXTURES = Path(__file__).parent / "fixtures"


class TestToStandardForm:
    def test_bounded_variable_block_pattern(self):
        """One equality row plus a boxed variable yields the two-block
        system [A; I I] over (x', y): 2 rows, 2 columns. x' >= 0 is the
        column's sign, so no row states it."""
        p = GeneralLP(c=[1.0], A_eq=[[1.0]], b_eq=[1.0], lower=[0.0], upper=[2.0])
        sf = to_standard_form(p)
        assert sf.A.shape == (2, 2)
        np.testing.assert_array_equal(sf.A, [[1.0, 0.0],
                                             [1.0, 1.0]])
        np.testing.assert_array_equal(sf.b, [1.0, 2.0])
        np.testing.assert_array_equal(sf.c, [1.0, 0.0])

    def test_column_blocks_are_x_then_bound_slacks_then_surplus_then_split(self):
        # x0 free, x1 in [1, 4], x2 <= 3 (mirrored), x3 in [0, 2]; one >= row
        inf = np.inf
        p = GeneralLP(c=[1.0, 2.0, 3.0, 4.0], A_ineq=[[1.0, 1.0, 1.0, 1.0]], b_ineq=[5.0],
                      lower=[-inf, 1.0, -inf, 0.0], upper=[inf, 4.0, 3.0, 2.0])
        sf = to_standard_form(p)
        # rows: the >= row, then x1' + y0 = 3 and x3' + y1 = 2
        np.testing.assert_array_equal(sf.A, [
            [1.0, 1.0, -1.0, 1.0, 0.0, 0.0, -1.0, -1.0],
            [0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
        ])
        np.testing.assert_array_equal(sf.b, [5.0 - 1.0 - 3.0, 3.0, 2.0])
        np.testing.assert_array_equal(sf.c, [1.0, 2.0, -3.0, 4.0, 0.0, 0.0, 0.0, -1.0])
        x_std = np.array([7.0, 1.0, 2.0, 0.5, 2.0, 1.5, 0.0, 4.0])
        np.testing.assert_array_equal(sf.project(x_std), [3.0, 2.0, 1.0, 0.5])

    def test_boxed_lp_with_a_feasible_slack_start_skips_phase_1(self):
        cases = [
            GeneralLP(c=[1.0], A_ineq=[[-1.0]], b_ineq=[-2.0], lower=[0.0], upper=[5.0]),
            GeneralLP(c=[1.0, 2.0], A_ineq=[[-1.0, -1.0]], b_ineq=[-4.0],
                      lower=[0.0, 1.0], upper=[3.0, 5.0]),
        ]
        for p, objective in zip(cases, (0.0, 2.0)):
            for bland in (False, True):
                out = dantzig_solve(to_standard_form(p), bland=bland)
                assert out.status is Status.OPTIMAL
                assert out.phase1_iterations == 0
                assert out.objective == objective

    def test_cube_objective_survives_conversion(self):
        out = dantzig_solve(to_standard_form(klee_minty_v1(3)))
        assert out.status is Status.OPTIMAL
        assert out.objective == -125.0

    def test_solution_projects_back_into_original_constraints(self):
        for seed in range(15):
            p = random_instance(seed, 4, 1, 5, "feasible")
            sf = to_standard_form(p)
            out = dantzig_solve(sf, bland=True)
            assert out.status is Status.OPTIMAL
            sp = to_standard_general(p)
            assert violations(sp, out.x_opt).is_feasible

    def test_nonzero_lower_bounds_are_shifted_exactly(self):
        p = GeneralLP(c=[1.0, -1.0], A_ineq=[[1.0, 1.0]], b_ineq=[0.0],
                      lower=[-3.0, 2.0], upper=[4.0, 6.0])
        out = dantzig_solve(to_standard_form(p))
        want = brute_force_optimal(to_standard_general(p))
        assert out.status is want.status is Status.OPTIMAL
        assert out.objective == pytest.approx(want.objective, rel=1e-9)

    def test_infinite_lower_bounds_match_the_oracle(self):
        """A variable bounded above only is mirrored and a free one is split,
        and Dantzig's answer is the oracle's: bounded above only, free, free
        with an unbounded objective, and all kinds mixed."""
        inf = np.inf
        cases = [
            GeneralLP(c=[1.0, 2.0], A_ineq=[[1.0, 1.0]], b_ineq=[1.0],
                      lower=[-inf, 0.0], upper=[4.0, 5.0]),
            GeneralLP(c=[1.0, 0.0], A_ineq=[[1.0, -1.0], [1.0, 1.0]], b_ineq=[-2.0, 0.0],
                      lower=[-inf, 0.0], upper=[inf, 3.0]),
            GeneralLP(c=[1.0, 0.0], A_ineq=[[1.0, 1.0]], b_ineq=[1.0],
                      lower=[-inf, 0.0], upper=[inf, inf]),
            GeneralLP(c=[2.0, -1.0, 1.0, -3.0], A_eq=[[1.0, 1.0, 1.0, 1.0]], b_eq=[2.0],
                      A_ineq=[[1.0, -1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]],
                      b_ineq=[-3.0, -1.0],
                      lower=[-inf, -inf, -1.0, -inf], upper=[inf, 3.0, 4.0, 2.0]),
        ]
        statuses = []
        for p in cases:
            sp = to_standard_general(p)
            want = brute_force_optimal(sp)
            statuses.append(want.status)
            for bland in (False, True):
                got = dantzig_solve(to_standard_form(p), bland=bland)
                assert got.status is want.status
                if want.status is Status.OPTIMAL:
                    assert got.objective == pytest.approx(want.objective, rel=1e-12)
                    assert objective_value(p, got.x_opt) == pytest.approx(got.objective)
                    assert violations(sp, got.x_opt).is_feasible
        assert statuses == [Status.OPTIMAL, Status.OPTIMAL, Status.UNBOUNDED, Status.OPTIMAL]

        # free x0 with one >= row: columns x0', x1, the surplus, then x0''
        sf = to_standard_form(cases[2])
        np.testing.assert_array_equal(sf.A, [[1.0, 1.0, -1.0, -1.0]])
        np.testing.assert_array_equal(sf.c, [1.0, 0.0, 0.0, -1.0])
        np.testing.assert_array_equal(sf.project(np.array([2.0, 0.0, 0.0, 5.0])), [-3.0, 0.0])



class TestDantzigSolve:
    def test_km1_phase2_pivot_count(self):
        out = dantzig_solve(to_standard_form(klee_minty_v1(3)))
        assert out.status is Status.OPTIMAL
        assert out.phase1_iterations == 0
        assert out.phase2_iterations == 7

    def test_km2_objective_with_least_index_ties(self):
        out = dantzig_solve(to_standard_form(klee_minty_v2(4)))
        assert out.status is Status.OPTIMAL
        assert out.objective == -15.0
        # pivot count under the least-index tie rule; the exponential path
        # exists but requires tie choices this implementation does not make
        assert out.phase2_iterations == 9

    def test_already_optimal_basis_takes_zero_pivots(self):
        p = GeneralLP(c=[1.0], A_ineq=[[-1.0]], b_ineq=[-2.0],
                      lower=[0.0], upper=[np.inf])
        out = dantzig_solve(to_standard_form(p))
        assert out.status is Status.OPTIMAL
        assert out.iterations == 0
        assert out.objective == 0.0

    def test_unbounded_column_detected(self):
        p = GeneralLP(c=[-1.0, 0.0], A_ineq=[[0.0, -1.0]], b_ineq=[-5.0],
                      lower=[0.0, 0.0], upper=[np.inf, np.inf])
        out = dantzig_solve(to_standard_form(p))
        assert out.status is Status.UNBOUNDED

    def test_contradictory_equalities_fail_phase1(self):
        p = GeneralLP(c=[1.0, 1.0],
                      A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 3.0],
                      lower=[0.0, 0.0], upper=[10.0, 10.0])
        out = dantzig_solve(to_standard_form(p))
        assert out.status is Status.INFEASIBLE
        assert out.phase1_iterations > 0

    @pytest.mark.parametrize("bland, phases", [(False, (1, 0)), (True, (1, 1))],
                             ids=["most-negative", "bland"])
    def test_phase_1_drops_a_redundant_row(self, bland, phases):
        # row 2 repeats row 1: after phase 1 its artificial stays basic with
        # no column to pivot it out on, so the row is dropped for phase 2
        p = GeneralLP(c=[1.0, 1.0], A_eq=[[1.0, 2.0], [1.0, 2.0]], b_eq=[2.0, 2.0])
        out = dantzig_solve(to_standard_form(p), bland=bland)
        assert out.status is Status.OPTIMAL and out.objective == 1.0
        np.testing.assert_array_equal(out.x_opt, [0.0, 1.0])
        assert (out.phase1_iterations, out.phase2_iterations) == phases
        sp = to_standard_general(p)
        for other in (solve(sp), brute_force_optimal(sp)):
            assert other.status is Status.OPTIMAL and other.objective == 1.0
            np.testing.assert_array_equal(other.x_opt, [0.0, 1.0])

    def test_iteration_limit(self):
        out = dantzig_solve(to_standard_form(klee_minty_v1(6)), max_iter=5)
        assert out.status is Status.ITERATION_LIMIT
        assert out.iterations == 5

    def test_negative_zero_bound_leaves_no_negative_zero(self):
        # x0 <= -0.0 is mirrored, x0 = -0.0 - x0', so x0' = 0 projects to
        # 0 * -1 + -0.0 = -0.0 unless the output is cleared of it
        p = GeneralLP(c=[-1.0, 1.0], A_ineq=[[1.0, 1.0]], b_ineq=[-1.0],
                      lower=[-np.inf, -0.0], upper=[-0.0, 3.0])
        for bland in (False, True):
            out = dantzig_solve(to_standard_form(p), bland=bland)
            assert out.status is Status.OPTIMAL
            np.testing.assert_array_equal(out.x_opt, [0.0, 0.0])
            assert not np.signbit(out.x_opt).any()
            assert out.objective == 0.0 and not np.signbit(out.objective)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_ratio_test_is_no_leaving_candidate(self):
        # pivots overflow the tableau to inf and then NaN, so the ratio test
        # of the fourth pivot has a NaN least ratio, which ties with no row
        p = GeneralLP(c=[-1.0, 1e-300, 1e-300],
                      A_ineq=[[2.0, 1e300, 2.0], [1.0, 1e300, 1e300], [1e300, 2.0, 2.0]],
                      b_ineq=[1e300, 1.0, -1.0])
        with pytest.raises(NoLeavingCandidate, match="ratio test of column 3 is NaN"):
            dantzig_solve(to_standard_form(p))

    @pytest.mark.parametrize("bland", [False, True])
    def test_nan_least_ratio_raises_under_either_tie_pick(self, bland):
        # column 0 enters under both rules; row 1's NaN rhs makes the least
        # ratio NaN, so neither the first-row pick nor Bland's gather has a row
        T = np.array([[-1.0, 0.0, 0.0, 0.0],
                      [1.0, 1.0, 0.0, 2.0],
                      [2.0, 0.0, 1.0, np.nan]])
        t = reference._Tableau(T=T, basis=np.array([1, 2]))
        with pytest.raises(NoLeavingCandidate, match="ratio test of column 0 is NaN"):
            reference._run_simplex(t, bland, max_pivots=5, audit=None)
        assert np.array_equal(t.basis, [1, 2])


class TestBruteForceOracle:
    def test_km2_optimum_and_optimizer(self):
        out = brute_force_optimal(to_standard_general(klee_minty_v2(3)))
        assert out.status is Status.OPTIMAL
        assert out.objective == -7.0
        np.testing.assert_allclose(out.x_opt, [0.0, 0.0, 7.0], atol=1e-9)

    def test_km1_small_optima(self):
        out = brute_force_optimal(to_standard_general(klee_minty_v1(2)))
        assert out.objective == -25.0
        np.testing.assert_allclose(out.x_opt, [0.0, 25.0], atol=1e-9)
        out4 = brute_force_optimal(to_standard_general(klee_minty_v1(4)))
        assert out4.objective == -625.0

    def test_empty_feasible_set(self):
        p = GeneralLP(c=[1.0, 1.0],
                      A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 3.0],
                      lower=[0.0, 0.0], upper=[10.0, 10.0])
        out = brute_force_optimal(to_standard_general(p))
        assert out.status is Status.INFEASIBLE

    def test_agrees_with_facet_solver(self):
        for seed in range(30):
            p = random_instance(seed, 4, 0, 6, "feasible")
            sp = to_standard_general(p)
            want = brute_force_optimal(sp)
            got = solve(sp)
            assert got.status == want.status
            assert abs(got.objective - want.objective) <= 1e-7 * (1 + abs(want.objective))
            # only the facet solver counts its refactorizations
            assert want.factorizations is None and isinstance(got.factorizations, int)

    def test_row_permutation_invariance(self):
        p = random_instance(3, 4, 0, 6, "feasible")
        base_out = brute_force_optimal(to_standard_general(p))
        rng = np.random.default_rng(0)
        for _ in range(5):
            perm = rng.permutation(p.num_ineq)
            q = GeneralLP(c=p.c, A_ineq=p.A_ineq[perm], b_ineq=p.b_ineq[perm],
                          lower=p.lower, upper=p.upper)
            out = brute_force_optimal(to_standard_general(q))
            assert out.status == base_out.status
            assert out.objective == pytest.approx(base_out.objective, rel=1e-12)

    def test_enumeration_cap(self, monkeypatch):
        sp = to_standard_general(random_instance(0, 5, 2, 8, "feasible"))
        monkeypatch.setattr(reference, "ENUMERATION_CAP", 100)
        with pytest.raises(TooLarge):
            brute_force_optimal(sp)


def _verdict_cases():
    """(name, problem): km1 and km2 at d = 3..19, the MPS fixtures, the
    cycling fixtures, and seeds 0..49 of criterion 3's shapes."""
    for d in range(3, 20):
        yield f"km1-d{d}", klee_minty_v1(d)
        yield f"km2-d{d}", klee_minty_v2(d)
    for path in sorted(FIXTURES.glob("*.mps")):
        yield path.stem, read_mps(path)
    for fixture_id in CYCLING_FIXTURE_IDS:
        yield fixture_id, cycling_fixture(fixture_id)
    for d, m, n in workloads.ORACLE_SHAPES:
        for seed in range(50):
            yield f"random-d{d}-s{seed}", random_instance(seed, d, m, n, "feasible")


class TestOptimalAnswersAreFeasible:
    def test_every_solver_s_optimum_passes_violations(self):
        """An Optimal x_opt from the facet solver, Dantzig under Bland's rule
        or the oracle (where it enumerates at most 100,000 bases) is feasible
        at every row's own tolerance."""
        checked = dict.fromkeys(("facet", "dantzig", "oracle"), 0)
        for name, p in _verdict_cases():
            sp = to_standard_general(p)
            outs = {"facet": solve(sp),
                    "dantzig": dantzig_solve(to_standard_form(p), bland=True)}
            if math.comb(sp.num_rows, sp.d) <= 100_000:
                outs["oracle"] = brute_force_optimal(sp)
            for solver, out in outs.items():
                if out.status is Status.OPTIMAL:
                    assert violations(sp, out.x_opt).is_feasible, (name, solver)
                    checked[solver] += 1
        # every one of the 195 cases is Optimal under each solver that runs
        assert checked == {"facet": 195, "dantzig": 195, "oracle": 168}


# c.x of the optimum overflows to inf; the oracle's least objective over the
# feasible bases of the second is -inf
_OVERFLOWING_OPTIMUM = GeneralLP(
    c=[2.0, 1.0, 1e300], A_ineq=[[2.0, 1.0, -1.0], [1e-300, -1.0, 1.0], [1.0, 1e-300, -1.0]],
    b_ineq=[1.0, 1e300, 1e300])
_OVERFLOWING_LEAST_OBJECTIVE = GeneralLP(
    c=[-1e300, -1e-300, 1e-300],
    A_ineq=[[1e300, -1.0, 1e-300], [1e-300, 1.0, -1.0], [2.0, -1.0, 1.0]],
    b_ineq=[1.0, 1e300, 1e300])
# the one feasible point (1e10, 1e10) has objective 1e310 - 1e310: NaN, or
# +-inf where the dot product fuses a multiply and an add
_INF_MINUS_INF_OPTIMUM = GeneralLP(c=[1e300, -1e300], lower=[1e10, 1e10], upper=[1e10, 1e10])


def _overflow_prone_lp(seed):
    """Three variables and three >= rows, with c and A drawn from
    {1e-300, +-1, 2, 1e300}, c's signs at random, and b from {+-1, 1e300}."""
    rng = np.random.default_rng(seed)
    values = np.array([1e-300, 1.0, -1.0, 2.0, 1e300])
    c = rng.choice(values, 3) * rng.choice([-1.0, 1.0], 3)
    return GeneralLP(c=c, A_ineq=rng.choice(values, (3, 3)),
                     b_ineq=rng.choice([1.0, -1.0, 1e300], 3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOptimalAnswersAreFinite:
    def test_optimum_that_overflows_is_numerical_breakdown(self):
        p = _OVERFLOWING_OPTIMUM
        for bland in (False, True):
            with pytest.raises(NumericalBreakdown, match="objective inf is not finite"):
                dantzig_solve(to_standard_form(p), bland=bland)
        with pytest.raises(NumericalBreakdown, match="objective inf is not finite"):
            brute_force_optimal(to_standard_general(p))

    def test_optimum_of_inf_minus_inf_is_numerical_breakdown(self):
        p = _INF_MINUS_INF_OPTIMUM
        with pytest.raises(NumericalBreakdown, match="is not finite"):
            dantzig_solve(to_standard_form(p))
        # a NaN or -inf least objective once left the tie test empty: a bare
        # IndexError
        with pytest.raises(NumericalBreakdown, match="is not finite"):
            brute_force_optimal(to_standard_general(p))

    def test_oracle_least_objective_of_minus_inf_is_numerical_breakdown(self):
        with pytest.raises(NumericalBreakdown, match="objective -inf is not finite"):
            brute_force_optimal(to_standard_general(_OVERFLOWING_LEAST_OBJECTIVE))

    def test_no_solver_answers_optimal_with_a_nonfinite_objective(self):
        """Over 300 overflow-prone LPs every outcome of every solver is an
        Optimal one with a finite x and objective, one with no objective, or
        a numerical breakdown; each solver reaches the breakdown."""
        breakdowns = dict.fromkeys(("facet", "oracle", "dantzig", "bland"), 0)
        for seed in range(300):
            p = _overflow_prone_lp(seed)
            runs = {"facet": lambda: solve(to_standard_general(p)),
                    "oracle": lambda: brute_force_optimal(to_standard_general(p)),
                    "dantzig": lambda: dantzig_solve(to_standard_form(p)),
                    "bland": lambda: dantzig_solve(to_standard_form(p), bland=True)}
            for solver, run in runs.items():
                try:
                    out = run()
                except NumericalBreakdown:
                    breakdowns[solver] += 1
                    continue
                if out.status is Status.OPTIMAL:
                    assert math.isfinite(out.objective), (seed, solver)
                    assert np.isfinite(out.x_opt).all(), (seed, solver)
                else:
                    assert out.objective is None, (seed, solver)
        assert all(breakdowns.values()), breakdowns


def _scaled_km1_dual(L, d):
    """The LP dual of km1 with dual variable k scaled by L^k, boxed at 1e13:
    min (r*b).y s.t. (r*A)^T y >= -c, 0 <= y <= 1e13, for km1's <= rows
    A x <= b and objective c."""
    lp = klee_minty_v1(d)
    A, b, c = -lp.A_ineq, -lp.b_ineq, lp.c
    r = L ** np.arange(d)
    return GeneralLP(c=r * b, A_ineq=(r[:, None] * A).T, b_ineq=-c,
                     lower=np.zeros(d), upper=np.full(d, 1e13))


class TestOptimalBasicSolutionIsChecked:
    @pytest.mark.parametrize("L, d", [(0.05, 8), (0.02, 7), (0.01, 6), (0.1, 12), (0.01, 10)])
    def test_scaled_dual_cube_is_numerical_breakdown(self, L, d):
        # rounding in the tableau leaves a basic entry of -1 to -16: the
        # point Dantzig would call Optimal violates a row by as much
        p = _scaled_km1_dual(L, d)
        with pytest.raises(NumericalBreakdown, match="optimal basic solution is not feasible"):
            dantzig_solve(to_standard_form(p))


def _rowloop_pivot(self, row, col):
    """The tableau pivot as it was before the batched row update: one
    Python-level subtraction per row with a nonzero factor."""
    self.T[row + 1] /= self.T[row + 1, col]
    piv = self.T[row + 1]
    for i in range(self.T.shape[0]):
        if i != row + 1 and self.T[i, col] != 0.0:
            self.T[i] -= self.T[i, col] * piv
    self.basis[row] = col


def _rowloop_enter_column(t, bland):
    """The entering rule as it was, over the boolean mask the column count
    replaced."""
    mask = np.arange(t.num_cols) < t.num_cols
    costs = t.T[0, :-1]
    if bland:
        for j in np.flatnonzero(mask):
            if costs[j] < -reference.TOL:
                return int(j)
        return None
    masked = np.where(mask, costs, np.inf)
    j = int(np.argmin(masked))
    return j if masked[j] < -reference.TOL else None


def _rowloop_leave_row(t, col, bland):
    """The ratio test as it was, with ratios over every row."""
    column = t.T[1:, col]
    rhs = t.T[1:, -1]
    eligible = column > reference.TOL
    if not eligible.any():
        return None
    ratios = np.where(eligible, rhs / np.where(eligible, column, 1.0), np.inf)
    best = float(ratios.min())
    tau = 1e-12 * (1.0 + abs(best))
    tied = np.flatnonzero(ratios <= best + tau)
    if bland:
        return int(tied[np.argmin(t.basis[tied])])
    return int(tied[0])


def _rowloop_run_simplex(t, bland, max_pivots, audit):
    """The simplex loop as it was, one call per choice and per pivot: the
    row-loop entering rule, ratio test and pivot above."""
    pivots = 0
    while pivots < max_pivots:
        col = _rowloop_enter_column(t, bland)
        if col is None:
            return Status.OPTIMAL, pivots
        row = _rowloop_leave_row(t, col, bland)
        if row is None:
            return Status.UNBOUNDED, pivots
        _rowloop_pivot(t, row, col)
        pivots += 1
        if audit is not None:
            audit.record(t.basis)
    return Status.ITERATION_LIMIT, pivots


def _pivot_both(T, row, col):
    """The tableau after ``_Tableau.pivot`` and after the row loop, both from
    copies of ``T`` and under one errstate."""
    got = reference._Tableau(T=T.copy(), basis=np.arange(T.shape[0] - 1))
    want = reference._Tableau(T=T.copy(), basis=np.arange(T.shape[0] - 1))
    with np.errstate(all="ignore"):
        got.pivot(row, col)
        _rowloop_pivot(want, row, col)
    assert np.array_equal(got.basis, want.basis)
    return got.T, want.T


class TestTableauPivot:
    def test_values_match_row_loop_with_signed_zeros(self):
        nz = -0.0
        T = np.array([[1.0, nz, 2.0, 0.0, 5.0],
                      [2.0, 1.0, nz, 3.0, 4.0],   # pivot row 0, column 0
                      [0.0, 4.0, 1.0, nz, 2.0],   # factor +0
                      [nz, nz, 5.0, 1.0, nz],     # factor -0
                      [-3.0, 2.0, 0.0, nz, 7.0]])
        got, want = _pivot_both(T, 0, 0)
        assert np.array_equal(got, want)
        # the pivot row and the rows with a nonzero factor match bit for bit
        for r in (0, 1, 4):
            assert got[r].tobytes() == want[r].tobytes()
        # a zero-factor row keeps its values; only a zero may change sign
        assert np.array_equal(got[2:4], T[2:4])

    def test_nonfinite_pivot_row_leaves_zero_factor_rows_bit_identical(self):
        nz = -0.0
        T = np.array([[1.0, nz, 2.0, 3.0],
                      [0.5, 1.5e308, nz, 2.0],    # divides to +inf at column 1
                      [0.0, 4.0, nz, 2.0],        # factor +0
                      [nz, nz, 5.0, nz],          # factor -0
                      [-3.0, 2.0, 0.0, 7.0]])
        got, want = _pivot_both(T, 0, 0)
        assert np.isposinf(got[1, 1])
        assert np.array_equal(got, want, equal_nan=True)
        assert got[2:4].tobytes() == want[2:4].tobytes() == T[2:4].tobytes()
        assert not np.isnan(got[2:4]).any()

        T[1, 1] = np.nan
        got, want = _pivot_both(T, 0, 0)
        assert np.array_equal(got, want, equal_nan=True)
        assert got[2:4].tobytes() == want[2:4].tobytes() == T[2:4].tobytes()

    def test_finite_row_whose_sum_overflows_takes_the_row_update(self):
        nz = -0.0
        T = np.array([[1.0, nz, 2.0, 3.0],
                      [1.0, 1e308, 1e308, 2.0],   # finite, but sums to inf
                      [0.0, 4.0, nz, 2.0],
                      [nz, nz, 5.0, nz],
                      [-1e-300, 2.0, 0.0, 7.0]])
        got, want = _pivot_both(T, 0, 0)
        assert np.isfinite(got[1]).all()
        assert got.tobytes() == want.tobytes()

    def test_guard_raises_no_floating_point_warning(self):
        # under the suite's filter a RuntimeWarning fails the test; the rows'
        # factors are small, so only the guard could overflow
        nz = -0.0
        for piv_row in ([1.0, 1e200, -1e200, 2.0, 3.0],    # squares overflow
                        [1.0, 1e308, 1e308, 2.0, 3.0]):    # sum overflows
            T = np.array([[1e-300, nz, 2.0, 3.0, 1.0],
                          piv_row,
                          [0.0, nz, nz, 2.0, nz],          # factor +0
                          [nz, nz, 5.0, nz, nz],           # factor -0
                          [-1e-300, 2.0, 0.0, 7.0, 1.0]])
            got = reference._Tableau(T=T.copy(), basis=np.arange(4))
            got.pivot(0, 0)
            _, want = _pivot_both(T, 0, 0)
            assert np.isfinite(got.T).all()
            assert np.array_equal(got.T, want)


def _boxed(p, big_m):
    """``p`` with its infinite bounds replaced by -big_m and big_m, so that
    every variable is shifted and the planted rays are closed."""
    return dataclasses.replace(p, lower=np.where(np.isneginf(p.lower), -big_m, p.lower),
                               upper=np.where(np.isposinf(p.upper), big_m, p.upper))


def _dantzig_cases():
    for d in range(2, 13):
        yield to_standard_form(klee_minty_v1(d)), False
    for d in range(2, 12):
        yield to_standard_form(klee_minty_v2(d)), False
    for fixture_id in CYCLING_FIXTURE_IDS:
        for bland in (False, True):
            yield to_standard_form(cycling_fixture(fixture_id)), bland
    for seed in range(30):
        for (d, m, n) in workloads.ORACLE_SHAPES:
            for kind in workloads.ORACLE_KINDS:
                p = random_instance(seed, d, m, n, kind)
                yield to_standard_form(_boxed(p, 1e7)), seed % 2 == 0
                if kind == "unbounded":
                    # unboxed, the planted ray stays open: the Unbounded exit
                    yield to_standard_form(p), seed % 2 == 0
    # tableaux of 80, 120 and 160 rows, each with a phase 1
    for d in (20, 30, 40):
        yield to_standard_form(workloads.dense_lp(np.random.default_rng(d), d)), d == 30


class TestDantzigPivotUnchanged:
    def test_outcomes_match_row_loop_pivot(self, monkeypatch):
        # km1 at d=12 takes 4095 pivots; four cycling fixtures cycle without
        # Bland's rule and stop at this limit
        max_iter = 5000
        cases = list(_dantzig_cases())
        got = [dantzig_solve(sf, max_iter=max_iter, bland=b, audit=True) for sf, b in cases]
        # the phase-1 drive-out pivots outside the loop, so pivot is swapped too
        monkeypatch.setattr(reference._Tableau, "pivot", _rowloop_pivot)
        monkeypatch.setattr(reference, "_run_simplex", _rowloop_run_simplex)
        want = [dantzig_solve(sf, max_iter=max_iter, bland=b, audit=True) for sf, b in cases]

        statuses = set()
        for g, w in zip(got, want):
            statuses.add(g.status)
            assert g.status is w.status
            assert g.objective == w.objective
            assert (g.x_opt is None and w.x_opt is None) or (
                np.array_equal(g.x_opt, w.x_opt)
                and np.array_equal(np.signbit(g.x_opt), np.signbit(w.x_opt))
            )
            assert g.iterations == w.iterations
            assert g.phase1_iterations == w.phase1_iterations
            assert g.phase2_iterations == w.phase2_iterations
            assert g.audit.base_repeated == w.audit.base_repeated
            assert g.audit.pivots_checked == w.audit.pivots_checked
        assert statuses == {Status.OPTIMAL, Status.INFEASIBLE, Status.UNBOUNDED,
                            Status.ITERATION_LIMIT}
        # the unboxed unbounded plants, and only they, return Unbounded
        assert sum(g.status is Status.UNBOUNDED for g in got) == 90


class TestDantzigRevisitAudit:
    def test_cycling_fixtures_repeat_a_base_only_without_bland(self):
        cycling = {"beale", "beale_permuted", "beale_redundant", "chvatal"}
        assert cycling < set(CYCLING_FIXTURE_IDS)
        for fid in CYCLING_FIXTURE_IDS:
            sf = to_standard_form(cycling_fixture(fid))
            out = dantzig_solve(sf, max_iter=60, audit=True)
            if fid in cycling:
                assert out.status is Status.ITERATION_LIMIT, fid
                assert out.audit.base_repeated, fid
            else:
                assert out.status is Status.OPTIMAL and out.iterations == 5, fid
                assert not out.audit.base_repeated, fid
            assert out.audit.pivots_checked == out.iterations, fid

            out = dantzig_solve(sf, max_iter=60, bland=True, audit=True)
            assert out.status is Status.OPTIMAL, fid
            assert not out.audit.base_repeated, fid
            assert out.audit.pivots_checked == out.iterations, fid


class TestBaselineAgreement:
    def test_dantzig_matches_oracle_on_random_instances(self):
        """Every kind under both rules; the infeasible kind is boxed, so its
        verdict comes out of phase 1 over the bound rows."""
        for seed in range(40):
            for (d, m, n) in [(3, 1, 4), (5, 0, 6), (4, 1, 6)]:
                for kind in RANDOM_KINDS:
                    p = random_instance(seed, d, m, n, kind)
                    want = brute_force_optimal(to_standard_general(p))
                    for bland in (False, True):
                        got = dantzig_solve(to_standard_form(p), bland=bland)
                        assert got.status is want.status, (seed, d, kind, bland)
                        if want.status is Status.OPTIMAL:
                            rel = abs(got.objective - want.objective) / (1 + abs(want.objective))
                            assert rel <= 1e-7

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.mps")), ids=lambda p: p.stem)
    def test_dantzig_matches_facet_on_the_mps_fixtures(self, path):
        p = read_mps(path)
        want = solve(to_standard_general(p))
        for bland in (False, True):
            got = dantzig_solve(to_standard_form(p), bland=bland)
            assert got.status is want.status
            assert got.factorizations is None
            if want.status is Status.OPTIMAL:
                assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=0.0)


def _enumerate_every_subset(sp: StandardGeneralLP) -> SolveOutcome:
    """The oracle as it was before the cached, pair-free index array: every
    d-subset of rows from a fresh ``itertools.combinations`` list. An
    Unbounded outcome reports no objective, as the oracle's does now."""
    N, d = sp.num_rows, sp.d
    count = math.comb(N, d)
    combos = np.array(list(itertools.combinations(range(N), d)), dtype=int)
    A = sp.rows(np.arange(N))
    A_stack = A[combos]
    b_stack = sp.b[combos]

    dets = np.linalg.det(A_stack)
    row_norms = np.linalg.norm(A, axis=1)
    hadamard = np.prod(row_norms[combos], axis=1)
    nonsingular = np.abs(dets) > 1e-10 * np.maximum(hadamard, np.finfo(float).tiny)
    if not nonsingular.any():
        return SolveOutcome(status=Status.INFEASIBLE, x_opt=None, objective=None,
                            iterations=int(count))

    combos = combos[nonsingular]
    X = np.linalg.solve(A_stack[nonsingular], b_stack[nonsingular][..., None])[..., 0]

    sigma = X @ A.T - sp.b
    tols = sp.row_tolerances()
    feas = np.all(np.abs(sigma[:, : sp.m]) <= tols[: sp.m], axis=1)
    feas &= np.all(sigma[:, sp.m :] >= -tols[sp.m :], axis=1)
    if not feas.any():
        return SolveOutcome(status=Status.INFEASIBLE, x_opt=None, objective=None,
                            iterations=int(count))

    combos = combos[feas]
    X = X[feas]
    objectives = X @ sp.c_original + sp.objective_offset
    best = float(objectives.min())
    tie = objectives <= best + 1e-9 * (1.0 + abs(best))

    artificial = sp.artificial_rows
    winner = None
    for idx in np.flatnonzero(tie):
        if not (set(combos[idx].tolist()) & artificial):
            winner = idx
            break
    if winner is None:
        winner = int(np.flatnonzero(tie)[0])
        art_row = sorted(set(combos[winner].tolist()) & artificial)[0]
        return SolveOutcome(
            status=Status.UNBOUNDED, x_opt=X[winner], objective=None, iterations=int(count),
            certificate=int(art_row),
            basis_rows=tuple(int(r) for r in combos[winner]),
        )
    return SolveOutcome(
        status=Status.OPTIMAL, x_opt=X[winner],
        objective=float(objectives[winner]), iterations=int(count),
        basis_rows=tuple(int(r) for r in combos[winner]),
    )


def _oracle_cases():
    for seed in range(50):
        for (d, m, n) in workloads.ORACLE_SHAPES:
            for kind in workloads.ORACLE_KINDS:
                yield random_instance(seed, d, m, n, kind)
    for d in range(2, 6):
        yield klee_minty_v1(d)
        yield klee_minty_v2(d)
    for fixture_id in CYCLING_FIXTURE_IDS:
        yield cycling_fixture(fixture_id)


def _assert_same_oracle_outcome(got, want):
    assert got.status is want.status
    assert got.objective == want.objective
    assert (got.x_opt is None and want.x_opt is None) or np.array_equal(
        got.x_opt, want.x_opt
    )
    assert got.basis_rows == want.basis_rows
    assert got.certificate == want.certificate
    assert got.iterations == want.iterations


class TestOracleEnumeration:
    def test_outcomes_match_enumerating_every_subset(self, monkeypatch):
        # small blocks, so that (5, 2, 8), with 20 rows, spans 12 of them; a
        # block size bounds the oracle's memory, not its outcome
        monkeypatch.setattr(reference, "_BLOCK", 1000)
        statuses = set()
        for p in _oracle_cases():
            sp = to_standard_general(p)
            got = brute_force_optimal(sp)
            statuses.add(got.status)
            _assert_same_oracle_outcome(got, _enumerate_every_subset(sp))
        assert statuses == {Status.OPTIMAL, Status.INFEASIBLE, Status.UNBOUNDED}

    @pytest.mark.parametrize("N,d", [(2, 1), (4, 2), (11, 3), (15, 4), (20, 5), (22, 5)])
    def test_cached_index_array(self, N, d):
        bases = reference._bases(N, d)
        assert reference._bases(N, d) is bases
        assert bases.dtype == np.intp
        with pytest.raises(ValueError):
            bases[0, 0] = 0

        rows = [tuple(r) for r in bases.tolist()]
        assert all(list(r) == sorted(set(r)) for r in rows)
        assert rows == sorted(rows)
        e_row = N - 2 * d
        for i in range(d):
            both = np.any(bases == e_row + i, axis=1) & np.any(bases == e_row + d + i, axis=1)
            assert not both.any()
        # inclusion-exclusion over the d bound-row pairs
        with_pair = sum(
            (-1) ** (j + 1) * math.comb(d, j) * math.comb(N - 2 * j, d - 2 * j)
            for j in range(1, d // 2 + 1)
        )
        assert len(rows) == math.comb(N, d) - with_pair

    @pytest.mark.parametrize("N,d", [(2, 1), (6, 3), (7, 5), (11, 3), (16, 4), (22, 5)])
    def test_index_array_matches_an_itertools_build(self, N, d):
        count = math.comb(N, d)
        flat = itertools.chain.from_iterable(itertools.combinations(range(N), d))
        combos = np.fromiter(flat, dtype=np.intp, count=count * d).reshape(count, d)
        e_row = N - 2 * d
        pair = np.zeros(count, dtype=bool)
        for i in range(d):
            pair |= np.any(combos == e_row + i, axis=1) & np.any(combos == e_row + d + i, axis=1)
        bases = reference._bases(N, d)
        assert bases.dtype == combos.dtype
        assert np.array_equal(bases, combos[~pair])

    def test_cap_is_checked_before_enumerating(self, monkeypatch):
        def refuse(N, d):
            raise AssertionError("enumerated past the cap")

        sp = to_standard_general(random_instance(0, 5, 2, 8, "feasible"))
        monkeypatch.setattr(reference, "_bases", refuse)
        monkeypatch.setattr(reference, "ENUMERATION_CAP", 100)
        with pytest.raises(TooLarge):
            brute_force_optimal(sp)

    def test_iterations_count_every_subset(self):
        sp = to_standard_general(random_instance(0, 5, 2, 8, "feasible"))
        out = brute_force_optimal(sp)
        assert out.iterations == math.comb(sp.num_rows, sp.d)
        assert len(reference._bases(sp.num_rows, sp.d)) < out.iterations


class TestOracleBlocks:
    def test_singular_and_infeasible_blocks_are_skipped(self, monkeypatch):
        # one base per block: the two contradictory equality rows together
        # make a wholly singular block, every other block is infeasible
        monkeypatch.setattr(reference, "_BLOCK", 1)
        p = GeneralLP(c=[1.0, 1.0],
                      A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 3.0],
                      lower=[0.0, 0.0], upper=[10.0, 10.0])
        sp = to_standard_general(p)
        assert np.linalg.det(sp.rows([0, 1])) == 0.0
        got = brute_force_optimal(sp)
        assert got.status is Status.INFEASIBLE
        _assert_same_oracle_outcome(got, _enumerate_every_subset(sp))

        sp = to_standard_general(klee_minty_v2(3))
        _assert_same_oracle_outcome(brute_force_optimal(sp), _enumerate_every_subset(sp))


def _solve_gufunc(A, b):
    """The oracle's block solve: the gufunc that np.linalg.solve wraps,
    under the oracle's errstate."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        return reference._umath_linalg.solve(A, b[..., None])[..., 0]


class TestOracleSolveFirst:
    def test_gufunc_matches_public_solve_on_nonsingular_stack(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((200, 5, 5))
        b = rng.standard_normal((200, 5))
        want = np.linalg.solve(A, b[..., None])[..., 0]
        assert _solve_gufunc(A, b).tobytes() == want.tobytes()

    def test_singular_base_gives_nonfinite_row_and_leaves_the_rest(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 4, 4))
        # rows 0 and 3 are equal; with these entries elimination is exact, so
        # LU meets an exactly zero pivot (random duplicate rows need not)
        A[2] = [[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 3.0, 1.0], [2.0, 0.0, 1.0, 1.0],
                [1.0, 2.0, 0.0, 1.0]]
        assert np.linalg.det(A[2]) == 0.0
        b = rng.standard_normal((6, 4))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(A, b[..., None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = _solve_gufunc(A, b)
        assert not np.isfinite(X[2]).any()
        others = [0, 1, 3, 4, 5]
        want = np.linalg.solve(A[others], b[others][..., None])[..., 0]
        assert X[others].tobytes() == want.tobytes()

    def test_feasible_nearly_singular_base_is_never_kept(self):
        # rows 0 and 1 meet at the optimum (1, 0) at an angle of 1e-12: the
        # base (0, 1) solves to a feasible point and is lexicographically
        # first among the tied optimal bases, so only the determinant filter
        # keeps it from winning
        p = GeneralLP(c=[1.0, 1.0], A_ineq=[[1.0, 0.0], [1.0, 1e-12]], b_ineq=[1.0, 1.0],
                      lower=[0.0, 0.0], upper=[10.0, 10.0])
        sp = to_standard_general(p)
        base = [0, 1]
        A_B = sp.rows(base)
        det = np.linalg.det(A_B)
        hadamard = np.prod(np.linalg.norm(A_B, axis=1))
        assert 0.0 < abs(det) <= 1e-10 * hadamard
        x = _solve_gufunc(A_B[None], sp.b[base][None])[0]
        assert violations(sp, x).is_feasible

        got = brute_force_optimal(sp)
        assert got.status is Status.OPTIMAL
        assert got.basis_rows != tuple(base)
        _assert_same_oracle_outcome(got, _enumerate_every_subset(sp))


def test_oracle_split_script_prints_one_row_per_shape_and_block(capsys, load_script):
    script = load_script("split")
    block = reference._BLOCK
    script.main(["oracle", "--shapes", "3,1,4", "--blocks", "16", "200",
                 "--instances", "1", "--rounds", "1"])
    assert reference._BLOCK == block
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("| d | N | bases | block |") and len(lines) == 4
    bases = len(reference._bases(11, 3))
    for size, line in zip((16, 200), lines[2:]):
        cells = line.strip("|").split("|")
        assert [int(c) for c in cells[:5]] == [3, 11, bases, size, -(-bases // size)]
        assert float(cells[5]) > 0 and float(cells[6]) > 0
        assert all(float(c) >= 0 for c in cells[7:]) and float(cells[8]) > 0


def _freeze(obj):
    """Make every ndarray field of a problem object read-only."""
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    return obj


def _read_only_cases():
    """One oracle-deck instance per shape and kind, km1 and km2 at d = 3..6,
    the cycling fixtures, one dense LP and the MPS fixtures."""
    lps = [random_instance(0, d, m, n, kind)
           for d, m, n in workloads.ORACLE_SHAPES for kind in workloads.ORACLE_KINDS]
    lps += [cube(d) for cube in (klee_minty_v1, klee_minty_v2) for d in range(3, 7)]
    lps += [cycling_fixture(fid) for fid in CYCLING_FIXTURE_IDS]
    lps.append(workloads.dense_lp(np.random.default_rng(0), 20))
    lps += [read_mps(path) for path in sorted(FIXTURES.glob("*.mps"))]
    return lps


def test_no_solver_writes_to_a_problem():
    """Problem objects are pure values: with every array of a problem, its
    stacked form and its standard form read-only, each solver runs through,
    where a write would raise. The stacked form may share rows with the
    problem, so this holds for both."""
    for p in _read_only_cases():
        _freeze(p)
        sp = _freeze(to_standard_general(p))
        sf = _freeze(to_standard_form(p))
        for rule in PivotRule:
            out = solve(sp, rule, audit=True, collect_trace=True)
            if out.x_opt is not None:
                violations(sp, out.x_opt)
        if p.d <= 5:
            brute_force_optimal(sp)
        for bland in (False, True):
            # the most-negative rule cycles on the cycling fixtures, and a
            # cycle repeats its pivots long before the cap
            dantzig_solve(sf, max_iter=1_000, bland=bland)
