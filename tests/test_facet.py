import math

import numpy as np
import pytest

from facetlp import linalg
from facetlp.facet import (
    Base,
    PivotRule,
    SolverState,
    Status,
    check_infeasible,
    detect_leaving_redundant,
    detect_nonbase_redundant,
    expand_entering,
    initial_state,
    pivot,
    select_entering,
    select_leaving,
    solve,
)
from facetlp.generators import klee_minty_v1, klee_minty_v2, random_instance
from facetlp.model import GeneralLP, to_standard_general, violations
from facetlp.mps import read_mps
from facetlp.reference import brute_force_optimal


def _dummy_base(rows, is_eq):
    d = len(rows)
    return Base(
        indices=np.array(rows, dtype=int),
        is_eq=np.array(is_eq, dtype=bool),
        fact=linalg.factor(np.eye(d)),
    )


class TestInitialState:
    def test_cube_start_sits_at_artificial_corner(self):
        sp = to_standard_general(klee_minty_v2(3))
        base, state = initial_state(sp)
        np.testing.assert_array_equal(base.indices, [3, 4, 5])
        np.testing.assert_array_equal(state.x, [sp.big_M] * 3)
        np.testing.assert_array_equal(state.y_c, [1.0, 1.0, 1.0])

    def test_nonnegative_objective_starts_at_lower_bounds(self):
        p = GeneralLP(c=[1.0, 1.0], lower=[0.0, 0.0], upper=[5.0, 5.0])
        sp = to_standard_general(p)
        _, state = initial_state(sp)
        np.testing.assert_array_equal(state.x, [0.0, 0.0])
        np.testing.assert_array_equal(state.y_c, [1.0, 1.0])

    def test_feasible_start_is_optimal_in_zero_pivots(self):
        p = GeneralLP(c=[1.0, 1.0], A_ineq=[[1.0, 1.0]], b_ineq=[-1.0],
                      lower=[0.0, 0.0], upper=[5.0, 5.0])
        out = solve(to_standard_general(p))
        assert out.status is Status.OPTIMAL
        assert out.iterations == 0
        assert out.objective == 0.0


class TestSelectEntering:
    def test_none_when_feasible(self):
        sp = to_standard_general(klee_minty_v2(3))
        base, state = initial_state(sp)
        state.x = np.array([0.0, 0.0, 7.0])  # the optimizer: nothing violated
        assert select_entering(sp, base, state, PivotRule.MAX_DEVIATION) is None

    def test_equality_priority_is_absolute(self):
        # equality off by 0.1 must beat an inequality violated by 100
        p = GeneralLP(
            c=[0.0, 0.0],
            A_eq=[[1.0, 0.0]], b_eq=[0.1],
            A_ineq=[[0.0, 1.0]], b_ineq=[100.0],
            lower=[0.0, 0.0], upper=[200.0, 200.0],
        )
        sp = to_standard_general(p)
        base, state = initial_state(sp)  # x0 = (0, 0)
        p_row = select_entering(sp, base, state, PivotRule.MAX_DEVIATION)
        assert p_row == 0

    def test_max_deviation_picks_deepest_violation(self):
        p = GeneralLP(
            c=[0.0, 0.0],
            A_ineq=[[1.0, 0.0], [0.0, 1.0]], b_ineq=[3.0, 7.0],
            lower=[0.0, 0.0], upper=[20.0, 20.0],
        )
        sp = to_standard_general(p)
        base, state = initial_state(sp)  # x0 = (0,0): residuals -3 and -7
        assert select_entering(sp, base, state, PivotRule.MAX_DEVIATION) == 1
        assert select_entering(sp, base, state, PivotRule.LEAST_INDEX) == 0

    def test_normalized_rule_divides_by_row_norm(self):
        # row 0 violated by 4 with norm 4; row 1 violated by 3 with norm 1:
        # plain deviation picks row 0, normalized picks row 1
        p = GeneralLP(
            c=[0.0, 0.0],
            A_ineq=[[4.0, 0.0], [0.0, 1.0]], b_ineq=[4.0, 3.0],
            lower=[0.0, 0.0], upper=[20.0, 20.0],
        )
        sp = to_standard_general(p)
        base, state = initial_state(sp)
        assert select_entering(sp, base, state, PivotRule.MAX_DEVIATION) == 0
        assert select_entering(
            sp, base, state, PivotRule.MAX_NORMALIZED_DEVIATION
        ) == 1


class TestExpandEntering:
    def test_base_row_expands_to_unit_vector(self):
        sp = to_standard_general(klee_minty_v2(3))
        base, _ = initial_state(sp)
        y = expand_entering(base, sp.A[base.indices[1]])
        np.testing.assert_allclose(y, [0.0, 1.0, 0.0], atol=1e-12)

    def test_negated_identity_base(self):
        base = Base(indices=np.array([0, 1, 2]), is_eq=np.zeros(3, dtype=bool),
                    fact=linalg.factor(-np.eye(3)))
        y = expand_entering(base, np.array([2.0, 1.0, 0.0]))
        np.testing.assert_allclose(y, [-2.0, -1.0, 0.0])

    def test_reconstruction_property(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            m = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
            base = Base(indices=np.arange(4), is_eq=np.zeros(4, dtype=bool),
                        fact=linalg.factor(m))
            a_p = rng.normal(size=4)
            y = expand_entering(base, a_p)
            np.testing.assert_allclose(m.T @ y, a_p, atol=1e-10)


class TestCheckInfeasible:
    def test_positive_entry_on_inequality_member_blocks_certificate(self):
        sp = to_standard_general(klee_minty_v2(2))
        base, _ = initial_state(sp)
        y_p = np.array([0.5, -1.0])
        assert check_infeasible(sp, 0, -1.0, y_p, base) is None

    def test_case1_certificate_when_expansion_nonpositive(self):
        sp = to_standard_general(klee_minty_v2(2))
        base, _ = initial_state(sp)
        y_p = np.array([-0.5, 0.0])
        cert = check_infeasible(sp, 0, -1.0, y_p, base)
        assert cert is not None and cert.case == 1
        assert cert.entering_row == 0
        assert set(cert.y_by_row) == set(base.indices.tolist())

    def test_contradictory_equalities_detected_during_solve(self):
        p = GeneralLP(
            c=[1.0, 1.0],
            A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 3.0],
            lower=[0.0, 0.0], upper=[10.0, 10.0],
        )
        out = solve(to_standard_general(p))
        assert out.status is Status.INFEASIBLE
        cert = out.certificate
        assert cert is not None
        # the certificate must satisfy the sign conditions it claims
        assert (cert.case == 1 and cert.sigma < 0) or (cert.case == 2 and cert.sigma > 0)

    def test_feasible_cube_never_fires(self):
        out = solve(to_standard_general(klee_minty_v1(3)))
        assert out.status is Status.OPTIMAL


class TestSelectLeaving:
    def test_single_positive_entry_leaves_regardless_of_ratio(self):
        base = _dummy_base([4, 9], [False, False])
        y_p = np.array([0.0, 3.0])
        y_c = np.array([5.0, 17.0])
        assert select_leaving(0, -1.0, y_p, y_c, base) == 9

    def test_min_ratio_wins_in_case1(self):
        # ratios: 2.0 at row 7, 0.5 at row 3
        base = _dummy_base([7, 3], [False, False])
        y_p = np.array([1.0, 2.0])
        y_c = np.array([2.0, 1.0])
        assert select_leaving(0, -1.0, y_p, y_c, base) == 3

    def test_ratio_tie_breaks_to_least_row_index(self):
        base = _dummy_base([9, 5], [False, False])
        y_p = np.array([1.0, 1.0])
        y_c = np.array([1.0, 1.0])
        assert select_leaving(0, -1.0, y_p, y_c, base) == 5

    def test_case2_max_ratio_over_negative_entries(self):
        base = _dummy_base([2, 6], [False, False])
        y_p = np.array([-1.0, -4.0])
        y_c = np.array([2.0, 1.0])
        # ratios -2.0 (row 2) and -0.25 (row 6): case 2 takes the max
        assert select_leaving(0, +1.0, y_p, y_c, base) == 6

    def test_equality_members_never_leave(self):
        base = _dummy_base([2, 6], [True, False])
        y_p = np.array([5.0, 1.0])
        y_c = np.array([1.0, 3.0])
        assert select_leaving(0, -1.0, y_p, y_c, base) == 6


class TestPivot:
    def test_entering_duplicate_of_leaving_is_a_null_move(self):
        # rows 0 and 2 carry identical data; swapping one for the other
        # keeps the iterate and objective unchanged
        p = GeneralLP(
            c=[1.0, 1.0],
            A_ineq=[[1.0, 1.0]], b_ineq=[0.0],
            lower=[0.0, 0.0], upper=[9.0, 9.0],
        )
        sp = to_standard_general(p)
        base, state = initial_state(sp)
        dup = base.indices[0]
        a_dup = sp.A[dup]
        sp.A[0] = a_dup
        sp.b[0] = sp.b[dup]
        y_p = expand_entering(base, sp.A[0])
        x_before = state.x.copy()
        obj_before = float(sp.c_original @ state.x)
        new_base, new_state = pivot(sp, base, state, 0, int(dup), y_p)
        np.testing.assert_allclose(new_state.x, x_before, atol=1e-12)
        assert float(sp.c_original @ new_state.x) == pytest.approx(obj_before)

    def test_cube_solves_in_dimension_many_pivots(self):
        out = solve(to_standard_general(klee_minty_v2(3)))
        assert out.status is Status.OPTIMAL
        assert out.iterations == 3
        assert out.objective == -7.0

    def test_incremental_expansion_matches_from_scratch(self):
        """Walk the pivot loop manually; after each step the incrementally
        updated y_c must match a fresh transpose solve to 1e-9."""
        rng = np.random.default_rng(13)
        for seed in range(10):
            p = random_instance(seed, 3, 1, 4, "feasible")
            sp = to_standard_general(p)
            base, state = initial_state(sp)
            for _ in range(40):
                sigma = sp.A @ state.x - sp.b
                row = select_entering(
                    sp, base, state, PivotRule.MAX_DEVIATION, sigma=sigma
                )
                if row is None:
                    break
                y_p = expand_entering(base, sp.A[row])
                if check_infeasible(sp, row, float(sigma[row]), y_p, base):
                    break
                q = select_leaving(row, float(sigma[row]), y_p, state.y_c, base)
                base, state = pivot(sp, base, state, row, q, y_p)
                fresh = base.fact.solve_transpose(sp.c_original)
                np.testing.assert_allclose(state.y_c, fresh, atol=1e-9)


class TestRedundancyDetection:
    def test_sole_inequality_member_is_redundant_on_leaving(self):
        base = _dummy_base([3, 8], [True, False])
        y_p = np.array([4.0, 2.0])
        assert detect_leaving_redundant(8, y_p, base)

    def test_second_positive_entry_blocks_redundancy(self):
        base = _dummy_base([3, 8], [False, False])
        y_p = np.array([0.5, 2.0])
        assert not detect_leaving_redundant(8, y_p, base)

    def test_duplicate_equality_row_detected(self):
        # once one copy is in the base, its twin expands over equality
        # members only and is exactly satisfied
        p = GeneralLP(
            c=[1.0, 1.0],
            A_eq=[[1.0, 2.0], [1.0, 2.0]], b_eq=[2.0, 2.0],
            lower=[0.0, 0.0], upper=[9.0, 9.0],
        )
        sp = to_standard_general(p)
        base, state = initial_state(sp)
        sigma = sp.A @ state.x - sp.b
        row = select_entering(sp, base, state, PivotRule.MAX_DEVIATION, sigma=sigma)
        y_p = expand_entering(base, sp.A[row])
        q = select_leaving(row, float(sigma[row]), y_p, state.y_c, base)
        base, state = pivot(sp, base, state, row, q, y_p)
        redundant = detect_nonbase_redundant(sp, base, state)
        twin = 1 - row
        assert twin in redundant

    def test_dominated_inequality_detected(self):
        # same normal as a base inequality, strictly smaller rhs
        p = GeneralLP(
            c=[1.0, 0.0],
            A_ineq=[[1.0, 0.0], [1.0, 0.0]], b_ineq=[2.0, 1.0],
            lower=[0.0, 0.0], upper=[9.0, 9.0],
        )
        sp = to_standard_general(p)
        out = solve(to_standard_general(p), reduce=True)
        assert out.status is Status.OPTIMAL
        # solve again manually to inspect the scan at the optimum
        base, state = initial_state(sp)
        sigma = sp.A @ state.x - sp.b
        row = select_entering(sp, base, state, PivotRule.MAX_DEVIATION, sigma=sigma)
        y_p = expand_entering(base, sp.A[row])
        q = select_leaving(row, float(sigma[row]), y_p, state.y_c, base)
        base, state = pivot(sp, base, state, row, q, y_p)
        assert 1 in detect_nonbase_redundant(sp, base, state)

    def test_binding_row_not_flagged(self):
        p = GeneralLP(
            c=[-1.0, -1.0],
            A_ineq=[[-1.0, -1.0]], b_ineq=[-4.0],
            lower=[0.0, 0.0], upper=[9.0, 9.0],
        )
        sp = to_standard_general(p)
        out = solve(sp, reduce=True)
        assert out.status is Status.OPTIMAL
        assert 0 not in out.redundant_rows

    def test_over_violated_equality_entering_mirrors_the_test(self):
        # an entering equality violated from above used to prove a binding
        # inequality redundant and end Optimal at an infeasible point
        sp = to_standard_general(random_instance(820, 4, 1, 6, "feasible"))
        got = solve(sp)
        want = brute_force_optimal(sp)
        assert got.status is Status.OPTIMAL
        assert violations(sp, got.x_opt).is_feasible
        assert got.objective == pytest.approx(want.objective, rel=1e-9)
        assert got.objective == pytest.approx(-11.835294117647, rel=1e-9)


class TestSolveOutcomes:
    def test_km1_matches_published_size_and_value(self):
        out = solve(to_standard_general(klee_minty_v1(3)))
        assert out.status is Status.OPTIMAL
        assert out.iterations == 3
        assert out.objective == -125.0
        np.testing.assert_allclose(out.x_opt, [0.0, 0.0, 125.0], atol=1e-9)

    def test_km2_d10(self):
        out = solve(to_standard_general(klee_minty_v2(10)))
        assert out.status is Status.OPTIMAL
        assert out.iterations == 10
        assert out.objective == -1023.0

    def test_unbounded_certified_by_artificial_row(self):
        p = GeneralLP(c=[-1.0], A_ineq=[[1.0]], b_ineq=[0.0],
                      lower=[0.0], upper=[np.inf])
        sp = to_standard_general(p)
        out = solve(sp)
        assert out.status is Status.UNBOUNDED
        assert out.certificate in sp.artificial_rows
        assert out.certificate in out.basis_rows

    def test_rank_deficient_equality_block(self):
        p = GeneralLP(c=[1.0, 1.0], A_eq=np.eye(2), b_eq=[1.0, 2.0],
                      lower=[0.0, 0.0], upper=[9.0, 9.0])
        out = solve(to_standard_general(p))
        assert out.status is Status.RANK_DEFICIENT_EQUALITY

    def test_iteration_limit(self):
        out = solve(to_standard_general(klee_minty_v1(5)), max_iter=1)
        assert out.status is Status.ITERATION_LIMIT
        assert out.iterations == 1

    def test_optimal_iterate_is_feasible(self):
        for seed in range(20):
            p = random_instance(seed, 4, 1, 5, "feasible")
            sp = to_standard_general(p)
            out = solve(sp)
            assert out.status is Status.OPTIMAL
            assert violations(sp, out.x_opt).is_feasible

    def test_equality_rows_never_leave_the_base(self):
        for seed in range(20):
            p = random_instance(seed, 4, 2, 5, "feasible")
            out = solve(to_standard_general(p), collect_trace=True)
            m = p.num_eq
            for record in out.trace:
                assert record.leaving >= m


class TestSolveOptions:
    def test_stall_switches_to_least_index_and_still_terminates(self):
        # the flat-objective stretch at the start of the cube solve trips a
        # stall threshold of one pivot
        sp = to_standard_general(klee_minty_v2(10))
        out = solve(sp, PivotRule.MAX_DEVIATION, stall_iterations=1,
                    collect_trace=True, audit=True)
        assert out.status is Status.OPTIMAL
        assert out.objective == -1023.0
        assert {r.rule for r in out.trace} == {"max-dev", "least-index"}
        assert not out.audit.base_repeated

    def test_tol_feas_override_short_circuits(self):
        sp = to_standard_general(klee_minty_v2(3))
        out = solve(sp, tol_feas=1e99)
        assert out.iterations == 0

    def test_dependent_equality_note_reaches_certificate_and_trace(self):
        p = GeneralLP(c=[1.0, 1.0],
                      A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 3.0],
                      lower=[0.0, 0.0], upper=[10.0, 10.0])
        out = solve(to_standard_general(p), collect_trace=True)
        assert out.status is Status.INFEASIBLE
        assert "equalit" in out.certificate.note
        assert out.trace[-1].note == out.certificate.note

    def test_solve_general_wrapper(self):
        from facetlp.facet import solve_general

        out = solve_general(klee_minty_v2(4))
        assert out.objective == -15.0


class TestTerminationAndAgreement:
    def test_least_index_rule_never_revisits_a_base(self):
        for (d, m, n) in [(4, 1, 6), (6, 1, 8)]:
            for seed in range(30):
                p = random_instance(seed, d, m, n, "feasible")
                sp = to_standard_general(p)
                out = solve(sp, PivotRule.LEAST_INDEX, audit=True)
                assert not out.audit.base_repeated
                assert out.iterations <= math.comb(sp.num_rows, sp.d)

    def test_agrees_with_enumeration_oracle(self):
        for seed in range(40):
            p = random_instance(seed, 4, 1, 6, "feasible")
            sp = to_standard_general(p)
            got = solve(sp)
            want = brute_force_optimal(sp)
            assert got.status == want.status
            rel = abs(got.objective - want.objective) / (1 + abs(want.objective))
            assert rel <= 1e-7

    def test_audit_invariants_hold_on_random_instances(self):
        for seed in range(25):
            p = random_instance(seed, 5, 2, 8, "feasible")
            out = solve(to_standard_general(p), audit=True)
            assert out.audit.violations == []


def _dense_lp(seed, d):
    """2d integer rows in [-9, 9], strictly satisfied at a planted integer
    point inside the box [-20, 20]^d."""
    rng = np.random.default_rng(seed)
    A = rng.integers(-9, 10, size=(2 * d, d)).astype(float)
    x0 = rng.integers(-3, 4, size=d).astype(float)
    slack = rng.integers(1, 7, size=2 * d).astype(float)
    return GeneralLP(
        c=rng.integers(-9, 10, size=d).astype(float), A_ineq=A, b_ineq=A @ x0 - slack,
        lower=np.full(d, -20.0), upper=np.full(d, 20.0),
    )


class TestBaseFactorizationPaths:
    """Bases below linalg.QR_UPDATE_MIN_D are refactored as an LU per pivot;
    larger ones run on updated QR factors."""

    @pytest.mark.parametrize("d", [40, 80])
    def test_dense_lps_audit_clean_and_match_highs(self, d):
        from scipy.optimize import linprog

        for seed in range(3):
            p = _dense_lp(seed, d)
            out = solve(to_standard_general(p), audit=True)
            assert out.audit.violations == []
            ref = linprog(p.c, A_ub=-p.A_ineq, b_ub=-p.b_ineq,
                          bounds=list(zip(p.lower, p.upper)), method="highs")
            assert ref.status == 0
            assert out.status is Status.OPTIMAL
            assert abs(out.objective - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))

    def test_kb2_shaped_fixture_keeps_its_pivot_count(self, fixtures_dir):
        sp = to_standard_general(read_mps(fixtures_dir / "kb2_shape.mps"))
        assert sp.d >= linalg.QR_UPDATE_MIN_D
        out = solve(sp)
        assert out.status is Status.OPTIMAL
        assert out.iterations == 31
