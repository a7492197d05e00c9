import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from facetlp import facet, linalg
from facetlp.facet import (
    Base,
    PivotRule,
    SolverState,
    Status,
    check_infeasible,
    detect_leaving_redundant,
    expand_entering,
    initial_state,
    pivot,
    select_entering,
    select_leaving,
    solve,
)
from facetlp.errors import SingularMatrix
from facetlp.generators import (
    CYCLING_FIXTURE_IDS,
    cycling_fixture,
    klee_minty_v1,
    klee_minty_v2,
    random_instance,
)
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
        state.sigma = sp.A @ state.x - sp.b
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

    def test_base_and_removed_rows_never_enter(self):
        # at x0 = (0, 0) the equality row 0 and inequality rows 1 and 2 are
        # all violated; a row in the base or removed is passed over
        p = GeneralLP(
            c=[0.0, 0.0],
            A_eq=[[1.0, 0.0]], b_eq=[0.1],
            A_ineq=[[0.0, 1.0], [1.0, 1.0]], b_ineq=[100.0, 50.0],
            lower=[0.0, 0.0], upper=[200.0, 200.0],
        )
        sp = to_standard_general(p)
        base, state = initial_state(sp)
        assert select_entering(sp, base, state, PivotRule.MAX_DEVIATION) == 0
        base.indices[0] = 0
        assert select_entering(sp, base, state, PivotRule.MAX_DEVIATION) == 1
        state.removed_rows = {1}
        assert select_entering(sp, base, state, PivotRule.MAX_DEVIATION) == 2
        state.removed_rows = {1, 2}
        assert select_entering(sp, base, state, PivotRule.MAX_DEVIATION) is None

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_violated_zero_row_enters_first_and_proves_infeasibility(self):
        # 0 >= 1: its normalized deviation is infinite, without a divide
        # warning, and as it enters its expansion is all zero
        p = GeneralLP(
            c=[1.0, 1.0],
            A_ineq=[[0.0, 0.0], [1.0, 1.0]], b_ineq=[1.0, 1.0],
            lower=[0.0, 0.0], upper=[5.0, 5.0],
        )
        sp = to_standard_general(p)
        for rule in PivotRule:
            out = solve(sp, rule)
            assert out.status is Status.INFEASIBLE, rule
            assert out.certificate.entering_row == 0, rule


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


def _leaving_row(p, sigma_p, y_p, y_c, base):
    slot, _ = select_leaving(p, sigma_p, y_p, y_c, base)
    return base.indices[slot]


class TestSelectLeaving:
    def test_single_positive_entry_leaves_regardless_of_ratio(self):
        base = _dummy_base([4, 9], [False, False])
        y_p = np.array([0.0, 3.0])
        y_c = np.array([5.0, 17.0])
        assert _leaving_row(0, -1.0, y_p, y_c, base) == 9

    def test_min_ratio_wins_in_case1(self):
        # ratios: 2.0 at row 7, 0.5 at row 3
        base = _dummy_base([7, 3], [False, False])
        y_p = np.array([1.0, 2.0])
        y_c = np.array([2.0, 1.0])
        assert _leaving_row(0, -1.0, y_p, y_c, base) == 3

    def test_ratio_tie_breaks_to_least_row_index(self):
        base = _dummy_base([9, 5], [False, False])
        y_p = np.array([1.0, 1.0])
        y_c = np.array([1.0, 1.0])
        assert _leaving_row(0, -1.0, y_p, y_c, base) == 5

    def test_case2_max_ratio_over_negative_entries(self):
        base = _dummy_base([2, 6], [False, False])
        y_p = np.array([-1.0, -4.0])
        y_c = np.array([2.0, 1.0])
        # ratios -2.0 (row 2) and -0.25 (row 6): case 2 takes the max
        assert _leaving_row(0, +1.0, y_p, y_c, base) == 6

    def test_equality_members_never_leave(self):
        base = _dummy_base([2, 6], [True, False])
        y_p = np.array([5.0, 1.0])
        y_c = np.array([1.0, 3.0])
        assert _leaving_row(0, -1.0, y_p, y_c, base) == 6

    def test_none_exactly_when_no_inequality_member_is_eligible(self):
        base = _dummy_base([2, 6], [True, False])
        y_c = np.array([1.0, 3.0])
        assert select_leaving(0, -1.0, np.array([5.0, 1e-9]), y_c, base) is None
        assert select_leaving(0, +1.0, np.array([5.0, -1e-9]), y_c, base) is None
        assert select_leaving(0, +1.0, np.array([5.0, -2e-9]), y_c, base) == (1, True)


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
        new_base, new_state = pivot(sp, base, state, 0, 0, y_p)
        np.testing.assert_allclose(new_state.x, x_before, atol=1e-12)
        assert float(sp.c_original @ new_state.x) == pytest.approx(obj_before)

    def test_singular_pivot_leaves_the_last_base_intact(self):
        # entering a copy of the base row in slot 1 for the one in slot 0
        # makes two equal rows; y_p is forced to a nonzero entry at slot 0
        sp = to_standard_general(klee_minty_v2(3))
        base, state = initial_state(sp)
        sp.A[0] = sp.A[base.indices[1]]
        sp.b[0] = sp.b[base.indices[1]]
        indices, A_B, b_B = base.indices.copy(), state.A_B.copy(), state.b_B.copy()
        with pytest.raises(SingularMatrix):
            pivot(sp, base, state, 0, 0, np.array([1.0, 1.0, 0.0]))
        np.testing.assert_array_equal(base.indices, indices)
        assert state.A_B.tobytes() == A_B.tobytes() == sp.A[indices].tobytes()
        assert state.b_B.tobytes() == b_B.tobytes() == sp.b[indices].tobytes()

    def test_audit_flags_owned_rows_that_drift_from_the_indices(self, monkeypatch):
        real_pivot = facet.pivot

        def pivot_losing_a_row_write(*args, **kwargs):
            base, state = real_pivot(*args, **kwargs)
            state.b_B[0] += 1.0
            return base, state

        monkeypatch.setattr(facet, "pivot", pivot_losing_a_row_write)
        out = solve(to_standard_general(klee_minty_v2(3)), audit=True, max_iter=20)
        assert any("owned base rows" in v for v in out.audit.violations)

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
                row = select_entering(sp, base, state, PivotRule.MAX_DEVIATION)
                if row is None:
                    break
                y_p = expand_entering(base, sp.A[row])
                if check_infeasible(sp, row, float(sigma[row]), y_p, base):
                    break
                slot, _ = select_leaving(row, float(sigma[row]), y_p, state.y_c, base)
                base, state = pivot(sp, base, state, row, slot, y_p)
                np.testing.assert_array_equal(state.sigma, sp.A @ state.x - sp.b)
                fresh = base.fact.solve_transpose(sp.c_original)
                np.testing.assert_allclose(state.y_c, fresh, atol=1e-9)


class TestRedundancyDetection:
    def test_sole_inequality_member_is_redundant_on_leaving(self):
        base = _dummy_base([3, 8], [True, False])
        y_p = np.array([4.0, 2.0])
        assert detect_leaving_redundant(8, y_p, base)
        assert select_leaving(0, -1.0, y_p, np.ones(2), base) == (1, True)

    def test_second_positive_entry_blocks_redundancy(self):
        base = _dummy_base([3, 8], [False, False])
        y_p = np.array([0.5, 2.0])
        assert not detect_leaving_redundant(8, y_p, base)
        assert select_leaving(0, -1.0, y_p, np.array([1.0, 0.1]), base) == (1, False)

    def test_binding_row_not_flagged(self):
        p = GeneralLP(
            c=[-1.0, -1.0],
            A_ineq=[[-1.0, -1.0]], b_ineq=[-4.0],
            lower=[0.0, 0.0], upper=[9.0, 9.0],
        )
        sp = to_standard_general(p)
        out = solve(sp)
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

    def test_equalities_that_pin_x_are_solved(self):
        # equality blocks of full column rank fix x; they are well posed
        from scipy.optimize import linprog

        def lp(A_eq, b_eq):
            return GeneralLP(c=[1.0, 1.0], A_eq=A_eq, b_eq=b_eq,
                             lower=[0.0, 0.0], upper=[9.0, 9.0])

        pinned = lp(np.eye(2), [1.0, 2.0])
        inconsistent = lp([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 4.0])
        outside_box = lp(np.eye(2), [1.0, 12.0])
        for rule in PivotRule:
            out = solve(to_standard_general(pinned), rule, audit=True)
            assert out.status is Status.OPTIMAL, rule
            np.testing.assert_array_equal(out.x_opt, [1.0, 2.0])
            assert out.objective == 3.0
            assert out.audit.violations == []
            out = solve(to_standard_general(inconsistent), rule)
            assert out.status is Status.INFEASIBLE, rule
            assert out.certificate.note == (
                "entering equality depends only on base equalities, rhs inconsistent"
            )
            out = solve(to_standard_general(outside_box), rule)
            assert out.status is Status.INFEASIBLE, rule
        # HiGHS agrees: status 0 is optimal, 2 infeasible
        for p, status in ((pinned, 0), (inconsistent, 2), (outside_box, 2)):
            ref = linprog(p.c, A_eq=p.A_eq, b_eq=p.b_eq,
                          bounds=list(zip(p.lower, p.upper)), method="highs-ipm")
            assert ref.status == status
            if status == 0:
                assert ref.fun == pytest.approx(3.0)

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
    """Bases below linalg.INVERSE_MIN_D are refactored as an LU per pivot;
    larger ones keep an explicit inverse, updated in place per pivot."""

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

    def test_checks_refresh_a_corrupted_inverse(self, monkeypatch):
        # the inverse returned by the 100th update (of 261) is shifted by
        # 1e-6 or 1e-9 times max|inv| in every entry: the next pivot's
        # iterate fails the residual check, so the factors and y_c are
        # rebuilt and the solve ends where the clean one does. The 1e-9 drift
        # of y_c stays below the drift check's trigger but above the audit's
        # tolerance, so only the fallback's own y_c refresh clears it
        sp = to_standard_general(_dense_lp(0, 80))
        factor, replace_row = linalg.factor, linalg.replace_row
        calls = {"factor": 0, "replace_row": 0}

        def counting_factor(m):
            calls["factor"] += 1
            return factor(m)

        def corrupting_replace_row(*args):
            f = replace_row(*args)
            calls["replace_row"] += 1
            if calls["replace_row"] == 100:
                f.inv[:] += shift * np.abs(f.inv).max()
            return f

        monkeypatch.setattr(linalg, "factor", counting_factor)
        clean = solve(sp, audit=True)
        clean_factors = calls["factor"]
        monkeypatch.setattr(linalg, "replace_row", corrupting_replace_row)
        for shift in (1e-6, 1e-9):
            calls.update(factor=0, replace_row=0)
            out = solve(sp, audit=True)
            assert calls["replace_row"] > 100, shift
            assert calls["factor"] > clean_factors, shift
            assert out.status is clean.status is Status.OPTIMAL, shift
            assert abs(out.objective - clean.objective) <= 1e-9 * (1.0 + abs(clean.objective))
            assert out.audit.violations == [] and not out.audit.base_repeated, shift

    def test_kb2_shaped_fixture_keeps_its_pivot_count(self, fixtures_dir):
        sp = to_standard_general(read_mps(fixtures_dir / "kb2_shape.mps"))
        assert sp.d >= linalg.INVERSE_MIN_D
        out = solve(sp)
        assert out.status is Status.OPTIMAL
        assert out.iterations == 31


# Test-local copies of the pivot loop as it was before the base rows were
# owned and written in place: every pivot gathers A[indices] and b[indices],
# copies the base, and select_entering builds its masks from a full-length
# candidate array. The new loop must reproduce them bit for bit.


@dataclass
class _GatherState:
    x: np.ndarray
    y_c: np.ndarray
    iteration: int = 0
    removed_rows: set = field(default_factory=set)
    trace: list | None = None


def _gather_initial_state(sp):
    d = sp.d
    rows = np.arange(sp.m + sp.n, sp.m + sp.n + d)
    fact = linalg.factor(sp.A[rows])
    x0 = fact.solve(sp.b[rows])
    base = Base(indices=rows, is_eq=np.zeros(d, dtype=bool), fact=fact)
    return base, _GatherState(x=x0, y_c=sp.c_bar.astype(float).copy())


def _gather_select_entering(sp, base, state, rule, sigma, row_tols, row_norms):
    candidate = np.ones(sp.num_rows, dtype=bool)
    candidate[base.indices] = False
    if state.removed_rows:
        candidate[list(state.removed_rows)] = False
    eq_violated = candidate.copy()
    eq_violated[sp.m:] = False
    eq_violated &= np.abs(sigma) > row_tols
    if eq_violated.any():
        pool = np.flatnonzero(eq_violated)
    else:
        ineq_violated = candidate
        ineq_violated[: sp.m] = False
        ineq_violated &= sigma < -row_tols
        if not ineq_violated.any():
            return None
        pool = np.flatnonzero(ineq_violated)
    if rule is PivotRule.LEAST_INDEX:
        return int(pool[0])
    deviation = np.abs(sigma[pool])
    if rule is PivotRule.MAX_NORMALIZED_DEVIATION:
        deviation = deviation / row_norms[pool]
    return int(pool[int(np.argmax(deviation))])


def _gather_pivot(sp, base, state, p, q, y_p, tol_lin=facet.TOL_LIN):
    s = base.slot_of(q)
    ratio = state.y_c[s] / y_p[s]
    unit = np.zeros(sp.d)
    unit[s] = 1.0
    w = base.fact.solve(unit)
    a_p = sp.A[p]
    step = (sp.b[p] - a_p @ state.x) / y_p[s]
    x_new = state.x + step * w
    indices = base.indices.copy()
    is_eq = base.is_eq.copy()
    indices[s] = p
    is_eq[s] = p < sp.m
    m_new = sp.A[indices]
    fact = linalg.replace_row(base.fact, s, y_p, m_new)
    assert not fact.singular
    b_new = sp.b[indices]
    residual = np.abs(m_new @ x_new - b_new)
    if np.any(residual > tol_lin * (1.0 + np.abs(b_new))):
        fact = linalg.refactor(fact, m_new)
        x_new = fact.solve(b_new)
    y_c = state.y_c - y_p * ratio
    y_c[s] = ratio
    return Base(indices=indices, is_eq=is_eq, fact=fact), _GatherState(
        x=x_new, y_c=y_c, iteration=state.iteration + 1,
        removed_rows=state.removed_rows, trace=state.trace,
    )


def _gather_residual(sp, base, y_c):
    return float(np.max(np.abs(sp.A[base.indices].T @ y_c - sp.c_original)))


def _gather_audit(sp, base, state, prev_objective, objective, c_scale, log, seen):
    k = state.iteration
    log.pivots_checked += 1
    y_ineq = state.y_c[~base.is_eq]
    if y_ineq.size and float(y_ineq.min()) < -facet.TOL_SIGN:
        log.violations.append(f"iter {k}: sign maintenance broken, min y_c={y_ineq.min():.3e}")
    drift = _gather_residual(sp, base, state.y_c)
    if drift > facet.TOL_LIN * c_scale:
        log.violations.append(f"iter {k}: expansion residual {drift:.3e} exceeds tolerance")
    b_base = sp.b[base.indices]
    res = float(np.max(np.abs(sp.A[base.indices] @ state.x - b_base)))
    allowed = facet.TOL_LIN * (1.0 + float(np.max(np.abs(b_base), initial=0.0)))
    if res > allowed:
        log.violations.append(
            f"iter {k}: basic-solution residual {res:.3e} exceeds {allowed:.3e}")
    tol_obj = facet.TOL_OBJ_BASE * (1.0 + max(abs(objective), abs(prev_objective)))
    if objective < prev_objective - tol_obj:
        log.violations.append(
            f"iter {k}: objective decreased {prev_objective!r} -> {objective!r}")
    key = frozenset(int(r) for r in base.indices)
    if key in seen:
        log.base_repeated = True
    seen.add(key)


def _gather_solve(sp, rule, max_iter=10_000, *, collect_trace=False, audit=False):
    c = sp.c_original
    c_scale = 1.0 + float(np.max(np.abs(c), initial=0.0))
    row_tols = sp.row_tolerances(facet.TOL_FEAS_BASE)
    row_norms = np.linalg.norm(sp.A, axis=1)
    base, state = _gather_initial_state(sp)
    if collect_trace:
        state.trace = []
    audit_log = facet.SolveAudit() if audit else None
    seen = {frozenset(base.indices.tolist())}
    active_rule = rule
    offset = sp.objective_offset
    objective = float(c @ state.x) + offset
    best_objective = objective
    stall = 0

    def outcome(status, x_opt, objective, certificate=None):
        return facet.SolveOutcome(
            status=status, x_opt=x_opt, objective=objective,
            iterations=state.iteration, certificate=certificate,
            redundant_rows=frozenset(state.removed_rows),
            basis_rows=tuple(int(r) for r in base.indices),
            trace=state.trace, audit=audit_log,
        )

    while True:
        sigma = sp.A @ state.x - sp.b
        p = _gather_select_entering(sp, base, state, active_rule, sigma, row_tols, row_norms)
        if p is None:
            x_final = base.fact.solve(sp.b[base.indices]) + 0.0
            objective = float(c @ x_final) + offset
            artificial = sorted(set(base.indices.tolist()) & sp.artificial_rows)
            if artificial:
                return outcome(Status.UNBOUNDED, x_final, objective, int(artificial[0]))
            return outcome(Status.OPTIMAL, x_final, objective)
        if state.iteration >= max_iter:
            return outcome(Status.ITERATION_LIMIT, state.x, None)
        y_p = expand_entering(base, sp.A[p])
        certificate = check_infeasible(sp, p, float(sigma[p]), y_p, base)
        leaving = select_leaving(p, float(sigma[p]), y_p, state.y_c, base)
        assert (leaving is None) == (certificate is not None)
        if certificate is not None:
            if state.trace is not None:
                state.trace.append(facet.TraceRecord(
                    k=state.iteration, entering=p, leaving=-1, objective=objective,
                    max_violation=float(abs(sigma[p])), rule=active_rule.value,
                    note=certificate.note or "infeasible",
                ))
            return outcome(Status.INFEASIBLE, state.x, None, certificate)
        slot, sole = leaving
        q = int(base.indices[slot])
        redundant = detect_leaving_redundant(q, y_p if sigma[p] < 0 else -y_p, base)
        assert sole == redundant
        if redundant:
            state.removed_rows.add(q)
        prev_objective = objective
        base, state = _gather_pivot(sp, base, state, p, q, y_p)
        drift = _gather_residual(sp, base, state.y_c)
        if drift > facet.YC_DRIFT_FACTOR * facet.TOL_LIN * c_scale:
            base.fact = linalg.refactor(base.fact, sp.A[base.indices])
            state.y_c = base.fact.solve_transpose(sp.c_original)
        objective = float(c @ state.x) + offset
        if state.trace is not None:
            state.trace.append(facet.TraceRecord(
                k=state.iteration - 1, entering=p, leaving=q, objective=objective,
                max_violation=facet._max_violation(sp, sigma), rule=active_rule.value,
            ))
        if audit_log is not None:
            _gather_audit(sp, base, state, prev_objective, objective, c_scale,
                          audit_log, seen)
        tol_obj = facet.TOL_OBJ_BASE * (1.0 + max(abs(objective), abs(best_objective)))
        if objective > best_objective + tol_obj:
            best_objective = objective
            stall = 0
        else:
            stall += 1
            if stall >= facet.STALL_ITERATIONS and active_rule is not PivotRule.LEAST_INDEX:
                active_rule = PivotRule.LEAST_INDEX
                stall = 0


def _bit_identity_cases():
    # the second copy of an equality is redundant once the first is in the base
    twin = GeneralLP(
        c=[1.0, 1.0], A_eq=[[1.0, 2.0], [1.0, 2.0]], b_eq=[2.0, 2.0],
        lower=[0.0, 0.0], upper=[9.0, 9.0],
    )
    yield "twin-equalities", to_standard_general(twin), 10_000
    for d in range(3, 9):
        yield f"km1-{d}", to_standard_general(klee_minty_v1(d)), 10_000
        yield f"km2-{d}", to_standard_general(klee_minty_v2(d)), 10_000
    yield "km1-8-limit", to_standard_general(klee_minty_v1(8)), 10
    for fid in CYCLING_FIXTURE_IDS:
        yield fid, to_standard_general(cycling_fixture(fid)), 10_000
    for seed in range(30):
        for d, m, n in [(3, 1, 4), (4, 1, 6), (5, 2, 8)]:
            for kind in ("feasible", "infeasible", "unbounded"):
                p = random_instance(seed, d, 0 if kind == "unbounded" else m, n, kind)
                yield f"{kind}-{seed}-{d}", to_standard_general(p), 10_000
    for d in (40, 80):
        yield f"dense-{d}", to_standard_general(_dense_lp(0, d)), 10_000


def _bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


class TestOwnedBaseRowsBitIdentical:
    """The in-place base rows, the sliced entering masks and the single exit
    path give exactly the outcomes of the gathering loop."""

    def test_outcomes_match_gathering_loop(self):
        modes = [{}, {"audit": True, "collect_trace": True}]
        statuses = set()
        for name, sp, max_iter in _bit_identity_cases():
            for rule in PivotRule:
                for mode in modes:
                    got = solve(sp, rule, max_iter, **mode)
                    want = _gather_solve(sp, rule, max_iter, **mode)
                    where = (name, rule, mode)
                    statuses.add(got.status)
                    assert got.status is want.status, where
                    assert _bits(got.objective) == _bits(want.objective), where
                    assert _bits(got.x_opt) == _bits(want.x_opt), where
                    assert got.iterations == want.iterations, where
                    assert got.basis_rows == want.basis_rows, where
                    assert repr(got.certificate) == repr(want.certificate), where
                    assert got.redundant_rows == want.redundant_rows, where
                    assert repr(got.trace) == repr(want.trace), where
                    if mode.get("audit"):
                        assert got.audit.violations == want.audit.violations, where
                        assert got.audit.base_repeated == want.audit.base_repeated, where
                        assert got.audit.pivots_checked == want.audit.pivots_checked, where
        assert statuses == {
            Status.OPTIMAL, Status.INFEASIBLE, Status.UNBOUNDED, Status.ITERATION_LIMIT,
        }
