import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetlp import facet, linalg
from facetlp.facet import (
    TOL_SIGN,
    Base,
    PivotRule,
    SolverState,
    Status,
    check_infeasible,
    detect_leaving_redundant,
    expand_entering,
    final_status,
    initial_state,
    pivot,
    select_entering,
    select_leaving,
    solve,
)
from facetlp.errors import NoLeavingCandidate, NumericalBreakdown, SingularMatrix
from facetlp.generators import (
    CYCLING_FIXTURE_IDS,
    KM1_MAX_D,
    RANDOM_KINDS,
    cycling_fixture,
    klee_minty_v1,
    klee_minty_v2,
    random_instance,
)
from facetlp.model import (
    GeneralLP,
    default_big_m,
    residuals,
    to_standard_general,
    violations,
)
from facetlp.mps import read_mps
from facetlp.reference import brute_force_optimal
import workloads  # perfbench/workloads.py, on pytest's pythonpath


def _dummy_base(rows):
    d = len(rows)
    return Base(indices=np.array(rows, dtype=int), fact=linalg.factor(np.eye(d)))


def _pricing_tols(sp, base):
    """The row tolerances pricing reads in ``solve`` when no row has been
    found redundant: each row's own, and infinite on the base rows."""
    row_tols = sp.row_tolerances()
    row_tols[base.indices] = np.inf
    return row_tols


def _eq_below(m):
    """A stand-in problem for the ratio test, which reads only ``m``: a base
    slot holds an equality row exactly when its index is below m."""
    return SimpleNamespace(m=m)


def _oracle_shape_lps(seeds):
    """Seeds 0..seeds-1 of each shape and kind of the benchmark's oracle deck."""
    return [random_instance(seed, d, m, n, kind)
            for d, m, n in workloads.ORACLE_SHAPES for kind in workloads.ORACLE_KINDS
            for seed in range(seeds)]


@st.composite
def _pricing_cases(draw):
    """(m, sigma, tols, norms) as lists: residuals drawn from few values, so
    that ties are common, NaN and infinities among them; tolerances zero,
    finite or infinite; row norms zero or not."""
    size = draw(st.integers(1, 12))
    values = [-3.0, -2.0, -1.0, -1e-9, 0.0, 1e-9, 1.0, 2.0, math.nan, -math.inf, math.inf]
    sigma = draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
    tols = draw(st.lists(st.sampled_from([0.0, 1e-8, 0.5, 1.5, math.inf]),
                         min_size=size, max_size=size))
    norms = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=size, max_size=size))
    return draw(st.integers(0, size)), sigma, tols, norms


def _reference_pick(m, sigma, tols, norms, rule):
    """``select_entering``'s contract as a masked scan: the violated
    equality rows if any, else the violated inequality rows; then the
    least index, or the first largest deviation, plain or divided by the
    row norm (infinite for a zero row)."""
    pool = [i for i in range(m) if abs(sigma[i]) > tols[i]]
    pool = pool or [i for i in range(len(sigma)) if sigma[i] < -tols[i]]
    if not pool:
        return None
    if rule is PivotRule.LEAST_INDEX:
        return pool[0]
    best, pick = -1.0, None
    for i in pool:
        deviation = abs(sigma[i])
        if rule is PivotRule.MAX_NORMALIZED_DEVIATION:
            deviation = deviation / norms[i] if norms[i] else math.inf
        if deviation > best:
            best, pick = deviation, i
    return pick


def _start_cases():
    """The cubes, the cycling fixtures, oracle-shape instances, one dense
    LP and one whose start has zero bounds of either sign, in the facet
    form."""
    lps = [GeneralLP(c=[1.0, -1.0, 0.0], lower=[-0.0, -1.0, 0.0], upper=[2.0, 0.0, 1.0])]
    lps += [klee_minty_v1(d) for d in range(3, 17)]
    lps += [klee_minty_v2(d) for d in range(3, 20)]
    lps += [cycling_fixture(fid) for fid in CYCLING_FIXTURE_IDS]
    lps += _oracle_shape_lps(10)
    lps.append(workloads.dense_lp(np.random.default_rng(0), 60))
    return [to_standard_general(lp) for lp in lps]


class TestInitialState:
    def test_cube_start_sits_at_artificial_corner(self):
        p = klee_minty_v2(3)
        base, state = initial_state(to_standard_general(p))
        np.testing.assert_array_equal(base.indices, [3, 4, 5])
        np.testing.assert_array_equal(state.x, [default_big_m(p)] * 3)
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

    def test_start_is_the_factored_bound_block_bit_for_bit(self):
        """The start read off the signs of E is what factors of E and the
        solves from them give: the same inverse by value (getri writes -0.0
        off the diagonal) and the same iterate bit for bit."""
        for sp in _start_cases():
            base, state = initial_state(sp)
            g = sp.m + sp.n
            np.testing.assert_array_equal(base.indices, np.arange(g, g + sp.d))
            fact = linalg.factor(sp.rows(base.indices))
            start = base.fact
            assert (start.dimension, start.near_singular) == (sp.d, False)
            assert (start.inv == fact.inv).all()
            want = facet._iterate(sp, Base(base.indices.copy(), fact))
            assert state.x.tobytes() == want.x.tobytes()
            assert state.y_c.tobytes() == want.y_c.tobytes()
            assert state.sigma.tobytes() == want.sigma.tobytes()

    def test_first_pivot_updates_the_start_inverse_in_place(self):
        sp = to_standard_general(klee_minty_v2(5))
        base, state = initial_state(sp)
        fact, inv = base.fact, base.fact.inv
        assert inv.flags.f_contiguous
        p = select_entering(sp, state, PivotRule.MAX_DEVIATION, _pricing_tols(sp, base))
        y_p = expand_entering(sp, base, p)
        s, _ = select_leaving(sp, float(state.sigma[p]), y_p, state.y_c, base)
        base, state = pivot(sp, base, state, p, s, y_p)
        assert base.fact is fact and base.fact.inv is inv
        assert not (inv == linalg.signed_identity(sp.e_diag).inv).all()

    @pytest.mark.parametrize("rule", list(PivotRule))
    def test_a_solve_that_never_refactors_calls_no_factor(self, monkeypatch, rule):
        def no_factor(m):
            raise AssertionError("linalg.factor called")

        monkeypatch.setattr(linalg, "factor", no_factor)
        lps = [klee_minty_v1(16), klee_minty_v2(19)] + _oracle_shape_lps(3)
        statuses = set()
        for lp in lps:
            out = solve(to_standard_general(lp), rule, audit=True)
            assert out.audit.violations == []
            statuses.add(out.status)
        assert statuses == {Status.OPTIMAL, Status.INFEASIBLE, Status.UNBOUNDED}


class TestSelectEntering:
    def test_none_when_feasible(self):
        sp = to_standard_general(klee_minty_v2(3))
        base, state = initial_state(sp)
        state.x = np.array([0.0, 0.0, 7.0])  # the optimizer: nothing violated
        state.sigma = residuals(sp, state.x)
        row_tols = sp.row_tolerances()
        assert select_entering(sp, state, PivotRule.MAX_DEVIATION, row_tols) is None

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
        p_row = select_entering(sp, state, PivotRule.MAX_DEVIATION, sp.row_tolerances())
        assert p_row == 0

    def test_base_and_removed_rows_never_enter(self):
        # at x0 = (0, 0) the equality row 0 and inequality rows 1 and 2 are
        # all violated; a row in the base or removed, which solve gives an
        # infinite tolerance, is passed over
        p = GeneralLP(
            c=[0.0, 0.0],
            A_eq=[[1.0, 0.0]], b_eq=[0.1],
            A_ineq=[[0.0, 1.0], [1.0, 1.0]], b_ineq=[100.0, 50.0],
            lower=[0.0, 0.0], upper=[200.0, 200.0],
        )
        sp = to_standard_general(p)
        base, state = initial_state(sp)
        row_tols = _pricing_tols(sp, base)
        assert select_entering(sp, state, PivotRule.MAX_DEVIATION, row_tols) == 0
        base.indices[0] = 0
        row_tols = _pricing_tols(sp, base)
        assert select_entering(sp, state, PivotRule.MAX_DEVIATION, row_tols) == 1
        row_tols[1] = np.inf
        assert select_entering(sp, state, PivotRule.MAX_DEVIATION, row_tols) == 2
        row_tols[2] = np.inf
        assert select_entering(sp, state, PivotRule.MAX_DEVIATION, row_tols) is None

    def test_max_deviation_picks_deepest_violation(self):
        p = GeneralLP(
            c=[0.0, 0.0],
            A_ineq=[[1.0, 0.0], [0.0, 1.0]], b_ineq=[3.0, 7.0],
            lower=[0.0, 0.0], upper=[20.0, 20.0],
        )
        sp = to_standard_general(p)
        base, state = initial_state(sp)  # x0 = (0,0): residuals -3 and -7
        row_tols = sp.row_tolerances()
        assert select_entering(sp, state, PivotRule.MAX_DEVIATION, row_tols) == 1
        assert select_entering(sp, state, PivotRule.LEAST_INDEX, row_tols) == 0

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
        row_tols, row_norms = sp.row_tolerances(), sp.row_norms()
        assert select_entering(sp, state, PivotRule.MAX_DEVIATION, row_tols) == 0
        assert select_entering(
            sp, state, PivotRule.MAX_NORMALIZED_DEVIATION, row_tols, row_norms
        ) == 1

    @pytest.mark.parametrize("rule", list(PivotRule))
    @pytest.mark.parametrize("with_equality", [False, True])
    def test_rows_with_infinite_tolerance_never_enter(self, rule, with_equality):
        # at x0 = (0, 0) every general row is violated: the equality, if
        # any, comes first, then max-dev and max-norm-dev prefer x2 >= 100
        # and least-index 4 x1 >= 8; for every set of them given an infinite
        # tolerance, the pick is a violated row outside the set, and None
        # once the set holds them all
        eq = dict(A_eq=[[1.0, 0.0]], b_eq=[0.1]) if with_equality else {}
        p = GeneralLP(
            c=[0.0, 0.0], **eq,
            A_ineq=[[4.0, 0.0], [0.0, 1.0], [1.0, 1.0]], b_ineq=[8.0, 100.0, 50.0],
            lower=[0.0, 0.0], upper=[200.0, 200.0],
        )
        sp = to_standard_general(p)
        assert sp.m == int(with_equality)
        base, state = initial_state(sp)
        violated = list(range(sp.m + sp.n))
        for size in range(len(violated) + 1):
            for removed in itertools.combinations(violated, size):
                row_tols = sp.row_tolerances()
                row_tols[list(removed)] = np.inf
                got = select_entering(sp, state, rule, row_tols, sp.row_norms())
                if size == len(violated):
                    assert got is None
                else:
                    assert got in violated and got not in removed, (removed, got)

    @pytest.mark.parametrize("with_equality", [False, True])
    def test_equal_deviations_go_to_the_least_row(self, with_equality):
        # at x0 = (0, 0), which satisfies the equality if there is one, the
        # rows x2 >= 2, 2 x1 >= 4, x1 >= 2 and x2 >= 2 deviate by 2, 4, 2, 2
        # and all by 2 when normalized
        eq = dict(A_eq=[[1.0, 1.0]], b_eq=[0.0]) if with_equality else {}
        p = GeneralLP(
            c=[0.0, 0.0], **eq,
            A_ineq=[[0.0, 1.0], [2.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            b_ineq=[2.0, 4.0, 2.0, 2.0],
            lower=[0.0, 0.0], upper=[9.0, 9.0],
        )
        sp = to_standard_general(p)
        base, state = initial_state(sp)
        m = sp.m
        row_tols, row_norms = sp.row_tolerances(), sp.row_norms()
        assert select_entering(sp, state, PivotRule.MAX_DEVIATION, row_tols) == m + 1
        assert select_entering(
            sp, state, PivotRule.MAX_NORMALIZED_DEVIATION, row_tols, row_norms
        ) == m
        row_tols[m + 1] = np.inf
        assert select_entering(sp, state, PivotRule.MAX_DEVIATION, row_tols) == m

    def test_equal_equality_deviations_of_either_sign_go_to_the_least_row(self):
        # at x = (0, 0) the equalities are off by +2 and -2: argmin of sigma
        # would pick row 1
        p = GeneralLP(
            c=[0.0, 0.0], A_eq=[[1.0, 0.0], [0.0, 1.0]], b_eq=[-2.0, 2.0],
            lower=[-9.0, -9.0], upper=[9.0, 9.0],
        )
        sp = to_standard_general(p)
        base, state = initial_state(sp)
        state.x = np.zeros(2)
        state.sigma = residuals(sp, state.x)
        np.testing.assert_array_equal(state.sigma[:2], [2.0, -2.0])
        for rule in (PivotRule.MAX_DEVIATION, PivotRule.MAX_NORMALIZED_DEVIATION):
            assert select_entering(
                sp, state, rule, sp.row_tolerances(), sp.row_norms()) == 0

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

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=_pricing_cases(), rule=st.sampled_from(PivotRule))
    def test_pick_is_the_masked_reference_pick(self, case, rule):
        """On residuals with ties, NaN and infinities, and tolerances with
        infinite entries, with and without equality rows, the pick is the
        one a plain masked scan over Python lists makes."""
        m, sigma, tols, norms = case
        state = SimpleNamespace(sigma=np.array(sigma))
        got = select_entering(_eq_below(m), state, rule, np.array(tols), np.array(norms))
        assert got == _reference_pick(m, sigma, tols, norms, rule)

    @pytest.mark.parametrize("workload", ["cubes", "oracle"])
    def test_no_pivot_enters_a_row_of_its_base(self, workload):
        """Replayed from the trace of every facet solve of the benchmark
        deck, under each rule: each entering row lies outside the base its
        pivot starts from, and the replay ends on the solve's final base."""
        pivots = 0
        for inst in workloads.build(workload, 1).instances:
            sp = inst.sp
            g = sp.m + sp.n
            for rule in PivotRule:
                out = solve(sp, rule, collect_trace=True)
                base = set(range(g, g + sp.d))
                for record in out.trace:
                    assert record.entering not in base, (inst.name, rule, record.k)
                    if record.leaving >= 0:
                        base.remove(record.leaving)
                        base.add(record.entering)
                        pivots += 1
                assert base == set(out.basis_rows), (inst.name, rule)
        assert pivots > 0

    @pytest.mark.parametrize("rule", list(PivotRule))
    def test_base_rows_never_enter_whatever_their_residuals(self, monkeypatch, rule):
        """Every row of the base, the start's included, reads as violated by
        1e6 at every iterate, yet the solve takes the same pivots to the
        same outcome: pricing passes the base over by its tolerances."""
        real_start, real_pivot = facet.initial_state, facet.pivot

        def pushed(base, state):
            state.sigma = state.sigma.copy()
            state.sigma[base.indices] = -1e6
            return base, state

        lps = [klee_minty_v1(8), klee_minty_v2(8)]
        lps += [random_instance(seed, 4, 1, 6, kind) for seed in range(5)
                for kind in ("feasible", "infeasible")]
        for lp in lps:
            sp = to_standard_general(lp)
            with monkeypatch.context() as patch:
                clean = solve(sp, rule, collect_trace=True)
                patch.setattr(facet, "initial_state", lambda sp: pushed(*real_start(sp)))
                patch.setattr(facet, "pivot", lambda *args: pushed(*real_pivot(*args)))
                out = solve(sp, rule, collect_trace=True)
            assert (out.status, out.iterations, out.basis_rows) == (
                clean.status, clean.iterations, clean.basis_rows)
            assert [(r.entering, r.leaving) for r in out.trace] == [
                (r.entering, r.leaving) for r in clean.trace]
            assert _bits(out.objective) == _bits(clean.objective)


class TestExpandEntering:
    def test_base_row_expands_to_unit_vector(self):
        sp = to_standard_general(klee_minty_v2(3))
        base, _ = initial_state(sp)
        y = expand_entering(sp, base, int(base.indices[1]))
        np.testing.assert_allclose(y, [0.0, 1.0, 0.0], atol=1e-12)

    def test_negated_identity_base(self):
        # the base of the upper-bound rows -e_i is -I: the general row
        # (2, 1, 0) and the lower-bound row +e_0 expand to their negations
        sp = to_standard_general(GeneralLP(
            c=[1.0, 1.0, 1.0], A_ineq=[[2.0, 1.0, 0.0]], b_ineq=[0.0],
            lower=[0.0, 0.0, 0.0], upper=[1.0, 1.0, 1.0]))
        rows = np.array([4, 5, 6])
        base = Base(indices=rows, fact=linalg.factor(sp.rows(rows)))
        np.testing.assert_array_equal(sp.rows(rows), -np.eye(3))
        np.testing.assert_allclose(expand_entering(sp, base, 0), [-2.0, -1.0, 0.0])
        np.testing.assert_allclose(expand_entering(sp, base, 1), [-1.0, 0.0, 0.0])

    def test_reconstruction_property(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            m = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
            a_p = rng.normal(size=4)
            sp = to_standard_general(GeneralLP(
                c=rng.normal(size=4), A_ineq=[a_p], b_ineq=[0.0], upper=np.ones(4)))
            base = Base(indices=np.arange(4), fact=linalg.factor(m))
            # the general row 0, and every bound row
            for p in range(sp.num_rows):
                y = expand_entering(sp, base, p)
                np.testing.assert_allclose(m.T @ y, sp.rows([p])[0], atol=1e-10)

    @pytest.mark.parametrize("lp", [
        klee_minty_v1(16), klee_minty_v2(19),
        workloads.dense_lp(np.random.default_rng([9001, 20, 0]), 20),
    ], ids=["km1-16", "km2-19", "dense_lp-20"])
    def test_bound_row_expansion_is_the_transpose_solve_bit_for_bit(self, monkeypatch, lp):
        """At every base of a solve, each bound row's expansion, read off
        the inverse, has the bytes of the transpose solve of the row it
        names, in an array of its own: E and F rows, of either sign (the
        cubes' E rows are -e_i, the mirror of a bound above), and zero
        entries, -0.0 among them, which the solve's sum writes as +0.0. The
        start base is also checked with the inverse ``factor`` gives, whose
        getri writes -0.0 off the diagonal."""
        sp = to_standard_general(lp)
        g, d = sp.m + sp.n, sp.d
        assert {-1.0} <= set(sp.e_diag.tolist())
        seen = {"bases": 0, "zeros": 0, "-0.0 read": 0}

        def check(base):
            seen["bases"] += 1
            inv = base.fact.inv
            for p in range(g, g + 2 * d):
                y = expand_entering(sp, base, p)
                want = linalg.solve_transpose(base.fact, sp.rows([p])[0])
                assert y.tobytes() == want.tobytes(), (seen["bases"], p)
                assert not np.shares_memory(y, inv)
                row = inv[(p - g) % d]
                seen["-0.0 read"] += int((np.signbit(row) & (row == 0.0)).sum())
                seen["zeros"] += int((y == 0.0).sum())

        base, _ = initial_state(sp)
        check(base)
        check(Base(base.indices, linalg.factor(sp.rows(base.indices))))
        real_pivot = facet.pivot

        def checked_pivot(*args):
            base, state = real_pivot(*args)
            check(base)
            return base, state

        monkeypatch.setattr(facet, "pivot", checked_pivot)
        out = solve(sp)
        assert out.status is Status.OPTIMAL
        assert seen["bases"] == out.iterations + 2 and out.iterations >= d
        assert seen["zeros"] > 0 and seen["-0.0 read"] > 0, seen


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

    @pytest.mark.parametrize("d, n", [(3, 6), (4, 8)])
    def test_a_planted_contradiction_is_certified_on_inequality_facets(self, d, n):
        # n - 1 integer rows hold at a planted x0 in the box [-12, 12]^d; the
        # last is minus a positive combination of k of them, its rhs raised
        # by delta, so no x satisfies all k + 1. Every rule must certify
        # that by case 1 on the inequality facets: a_p = sum y_i a_i over
        # the base, y <= 0 on its inequality slots, and b_p > sum y_i b_i
        for k, seed in itertools.product(range(2, d + 2), range(8)):
            rng = np.random.default_rng([d, k, seed])
            x0 = rng.integers(-12, 13, size=d).astype(float)
            A = rng.integers(-9, 10, size=(n - 1, d)).astype(float)
            b = A @ x0 - rng.integers(0, 7, size=n - 1)
            rows, lam = rng.choice(n - 1, k, replace=False), rng.integers(1, 4, size=k)
            p = GeneralLP(
                c=rng.integers(-9, 10, size=d).astype(float),
                A_ineq=np.vstack([A, -lam @ A[rows]]),
                b_ineq=np.append(b, -lam @ b[rows] + rng.integers(1, 6)),
                lower=np.full(d, -12.0), upper=np.full(d, 12.0),
            )
            sp = to_standard_general(p)
            assert brute_force_optimal(sp).status is Status.INFEASIBLE, (k, seed)
            for rule in PivotRule:
                out = solve(sp, rule)
                cert = out.certificate
                assert out.status is Status.INFEASIBLE, (k, seed, rule)
                assert (cert.case, cert.note) == (1, None), (k, seed, rule)
                base = np.array(list(cert.y_by_row))
                y = np.array(list(cert.y_by_row.values()))
                a_p = sp.rows([cert.entering_row])[0]
                err = np.abs(y @ sp.rows(base) - a_p).max()
                assert err <= 1e-9 * (1.0 + np.abs(a_p).max()), (k, seed, rule)
                assert (y[base >= sp.m] <= TOL_SIGN).all(), (k, seed, rule)
                assert sp.b[cert.entering_row] > y @ sp.b[base], (k, seed, rule)


def _leaving_row(sp, sigma_p, y_p, y_c, base):
    slot, _ = select_leaving(sp, sigma_p, y_p, y_c, base)
    return base.indices[slot]


class TestSelectLeaving:
    def test_single_positive_entry_leaves_regardless_of_ratio(self):
        sp, base = _eq_below(0), _dummy_base([4, 9])
        y_p = np.array([0.0, 3.0])
        y_c = np.array([5.0, 17.0])
        assert _leaving_row(sp, -1.0, y_p, y_c, base) == 9

    def test_min_ratio_wins_in_case1(self):
        # ratios: 2.0 at row 7, 0.5 at row 3
        sp, base = _eq_below(0), _dummy_base([7, 3])
        y_p = np.array([1.0, 2.0])
        y_c = np.array([2.0, 1.0])
        assert _leaving_row(sp, -1.0, y_p, y_c, base) == 3

    def test_ratio_tie_breaks_to_least_row_index(self):
        sp, base = _eq_below(0), _dummy_base([9, 5])
        y_p = np.array([1.0, 1.0])
        y_c = np.array([1.0, 1.0])
        assert _leaving_row(sp, -1.0, y_p, y_c, base) == 5

    def test_three_way_tie_goes_to_the_least_row_not_the_first_slot(self):
        # ratios 1, 1, 2, 1 in slots holding rows 9, 2, 1, 5
        sp, base = _eq_below(0), _dummy_base([9, 2, 1, 5])
        y_p = np.array([1.0, 2.0, 1.0, 4.0])
        y_c = np.array([1.0, 2.0, 2.0, 4.0])
        assert select_leaving(sp, -1.0, y_p, y_c, base) == (1, False)

    @pytest.mark.parametrize("gap, slot", [(3.9e-12, 1), (4.1e-12, 0)])
    def test_ties_are_ratios_within_the_relative_tolerance(self, gap, slot):
        # best ratio 3 at row 7; tolerance 1e-12 * (1 + 3)
        sp, base = _eq_below(0), _dummy_base([7, 3])
        y_p = np.ones(2)
        y_c = np.array([3.0, 3.0 + gap])
        assert select_leaving(sp, -1.0, y_p, y_c, base) == (slot, False)

    def test_case2_max_ratio_over_negative_entries(self):
        sp, base = _eq_below(0), _dummy_base([2, 6])
        y_p = np.array([-1.0, -4.0])
        y_c = np.array([2.0, 1.0])
        # ratios -2.0 (row 2) and -0.25 (row 6): case 2 takes the max
        assert _leaving_row(sp, +1.0, y_p, y_c, base) == 6

    def test_equality_members_never_leave(self):
        sp, base = _eq_below(3), _dummy_base([2, 6])
        y_p = np.array([5.0, 1.0])
        y_c = np.array([1.0, 3.0])
        assert _leaving_row(sp, -1.0, y_p, y_c, base) == 6

    def test_none_exactly_when_no_inequality_member_is_eligible(self):
        sp, base = _eq_below(3), _dummy_base([2, 6])
        y_c = np.array([1.0, 3.0])
        assert select_leaving(sp, -1.0, np.array([5.0, 1e-9]), y_c, base) is None
        assert select_leaving(sp, +1.0, np.array([5.0, -1e-9]), y_c, base) is None
        assert select_leaving(sp, +1.0, np.array([5.0, -2e-9]), y_c, base) == (1, True)

    def test_a_nan_least_ratio_is_a_numerical_breakdown(self):
        # a NaN least ratio ties with no slot
        sp = to_standard_general(GeneralLP(c=[1, 1, 1], A_ineq=[[1, 1, 1]], b_ineq=[1]))
        base, _ = initial_state(sp)
        y_c = np.array([np.nan, 1.0, 2.0])
        with pytest.raises(NoLeavingCandidate, match="ratio test is NaN"):
            select_leaving(sp, -1.0, np.ones(3), y_c, base)
        assert issubclass(NoLeavingCandidate, NumericalBreakdown)

    @pytest.mark.parametrize("p, sigma_p, y_p", [
        (3, -1.0, [np.nan, -1.0]),  # a violated inequality
        (0, +1.0, [1.0, np.nan]),   # an over-violated equality
    ])
    def test_a_nan_expansion_entry_leaves_neither_a_slot_nor_a_certificate(
            self, p, sigma_p, y_p):
        # no slot is eligible, yet the NaN fails the Farkas test too: the
        # case where solve raises NoLeavingCandidate
        sp, base = _eq_below(1), _dummy_base([4, 9])
        y_p = np.array(y_p)
        assert select_leaving(sp, sigma_p, y_p, np.ones(2), base) is None
        assert check_infeasible(sp, p, sigma_p, y_p, base) is None
        # with the NaN made a sign-consistent number, that test certifies
        y_p[np.isnan(y_p)] = sigma_p
        assert select_leaving(sp, sigma_p, y_p, np.ones(2), base) is None
        assert check_infeasible(sp, p, sigma_p, y_p, base) is not None

    def test_solve_raises_when_a_nan_expansion_entry_leaves_nothing(self, monkeypatch):
        # the case above reached through solve: every slot but one expands
        # to -1 and that one to NaN, on a problem of inequality rows only
        sp = to_standard_general(klee_minty_v2(3))
        entering = []

        def nan_expansion(sp, base, p):
            entering.append(p)
            y_p = -np.ones(sp.d)
            y_p[1] = np.nan
            return y_p

        monkeypatch.setattr(facet, "expand_entering", nan_expansion)
        with pytest.raises(NoLeavingCandidate) as raised:
            solve(sp)
        assert entering and sp.m == 0
        assert str(raised.value) == f"no positive expansion entry for facet {entering[-1]}"


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
        sp.G[0] = sp.rows([dup])[0]
        sp.b[0] = sp.b[dup]
        y_p = expand_entering(sp, base, 0)
        x_before = state.x.copy()
        obj_before = float(sp.c_original @ state.x)
        new_base, new_state = pivot(sp, base, state, 0, 0, y_p)
        np.testing.assert_allclose(new_state.x, x_before, atol=1e-12)
        assert float(sp.c_original @ new_state.x) == pytest.approx(obj_before)

    def test_singular_pivot_leaves_the_last_base_intact(self):
        # entering a copy of the base row in slot 1 for the one in slot 0
        # makes two equal rows: its expansion is e_1, so y_p[0] = 0 makes
        # replace_row decline and factor raise
        sp = to_standard_general(klee_minty_v2(3))
        base, state = initial_state(sp)
        sp.G[0] = sp.rows(base.indices[1:2])[0]
        sp.b[0] = sp.b[base.indices[1]]
        indices, fact = base.indices.copy(), base.fact
        inv = fact.inv.tobytes()
        q = base.indices[0]
        y_p = expand_entering(sp, base, 0)
        assert y_p[0] == 0.0
        with pytest.raises(SingularMatrix, match=rf"^pivot 0<->{q} produced a singular base"):
            pivot(sp, base, state, 0, 0, y_p)
        np.testing.assert_array_equal(base.indices, indices)
        assert base.fact is fact and fact.inv.tobytes() == inv

    def test_audit_flags_indices_that_disagree_with_the_factors(self, monkeypatch):
        # the first pivot hands back slot 0 naming the non-base row farthest
        # from binding at the new iterate, so the factors and the iterate no
        # longer stand for the rows the indices name
        real_pivot = facet.pivot

        def pivot_misnaming_slot_0(*args):
            base, state = real_pivot(*args)
            base.indices[0] = int(np.abs(state.sigma).argmax())
            return base, state

        monkeypatch.setattr(facet, "pivot", pivot_misnaming_slot_0)
        out = solve(to_standard_general(klee_minty_v2(3)), audit=True, max_iter=1)
        assert out.iterations == 1
        assert out.audit.violations
        assert all(v.startswith("iter 1: ") and (
            "expansion residual" in v or "basic-solution residual" in v
        ) for v in out.audit.violations)

    def test_audit_flags_a_broken_sign_and_a_falling_objective(self):
        # the base of the upper-bound rows -e_i is a true base with an exact
        # iterate, x = upper and y_c = -c, so only the negative y_c and the
        # objective handed in below the one before it are flagged
        sp = to_standard_general(
            GeneralLP(c=[1.0, 2.0], lower=[0.0, 0.0], upper=[5.0, 9.0]))
        rows = np.arange(sp.m + sp.n + sp.d, sp.m + sp.n + 2 * sp.d)
        fact = linalg.factor(sp.rows(rows))
        x = linalg.solve(fact, sp.b[rows])
        y_c = linalg.solve_transpose(fact, sp.c_original)
        np.testing.assert_array_equal(y_c, [-1.0, -2.0])
        base = Base(rows, fact)
        state = SolverState(x, y_c, residuals(sp, x))
        objective = float(sp.c_original @ x)
        log = facet.SolveAudit()
        facet._audit_pivot(sp, base, state, 7, objective + 1.0, objective, 3.0, log)
        assert log.violations == [
            "iter 7: sign maintenance broken, min y_c=-2.000e+00",
            f"iter 7: objective decreased {objective + 1.0!r} -> {objective!r}",
        ]
        assert log.pivots_checked == 1 and not log.base_repeated

    def test_cube_solves_in_dimension_many_pivots(self):
        out = solve(to_standard_general(klee_minty_v2(3)))
        assert out.status is Status.OPTIMAL
        assert out.iterations == 3
        assert out.objective == -7.0

    @pytest.mark.parametrize("cube, d", [(klee_minty_v1, 16), (klee_minty_v2, 19)])
    def test_iterate_is_the_one_solve_of_its_base(self, monkeypatch, cube, d):
        """Each pivot makes exactly one plain solve, and the new iterate is
        the basic solution and objective expansion of the new base's
        factors, bit for bit."""
        sp = to_standard_general(cube(d))
        base, state = initial_state(sp)
        solve_rhs = []
        real_solve = linalg.solve

        def recording_solve(f, r):
            solve_rhs.append(r)
            return real_solve(f, r)

        monkeypatch.setattr(linalg, "solve", recording_solve)
        pivots = 0
        while (p := select_entering(sp, state, PivotRule.MAX_DEVIATION,
                                    _pricing_tols(sp, base))) is not None:
            y_p = expand_entering(sp, base, p)
            s, _ = select_leaving(sp, float(state.sigma[p]), y_p, state.y_c, base)
            solve_rhs.clear()
            base, state = pivot(sp, base, state, p, s, y_p)
            pivots += 1
            assert len(solve_rhs) == 1, pivots
            b_B = sp.b[base.indices]
            assert state.x.tobytes() == linalg.solve(base.fact, b_B).tobytes(), pivots
            y_c = linalg.solve_transpose(base.fact, sp.c_original)
            assert state.y_c.tobytes() == y_c.tobytes(), pivots
        assert pivots == d

    def test_incremental_expansion_matches_from_scratch(self):
        """Walk the pivot loop manually; after each step the residuals are
        those of x, and y_c is the transpose solve of the new factors."""
        rng = np.random.default_rng(13)
        for seed in range(10):
            p = random_instance(seed, 3, 1, 4, "feasible")
            sp = to_standard_general(p)
            base, state = initial_state(sp)
            for _ in range(40):
                sigma = residuals(sp, state.x)
                row = select_entering(sp, state, PivotRule.MAX_DEVIATION,
                                      _pricing_tols(sp, base))
                if row is None:
                    break
                y_p = expand_entering(sp, base, row)
                if check_infeasible(sp, row, float(sigma[row]), y_p, base):
                    break
                slot, _ = select_leaving(sp, float(sigma[row]), y_p, state.y_c, base)
                base, state = pivot(sp, base, state, row, slot, y_p)
                np.testing.assert_array_equal(state.sigma, residuals(sp, state.x))
                fresh = linalg.solve_transpose(base.fact, sp.c_original)
                np.testing.assert_array_equal(state.y_c, fresh)


class TestRedundancyDetection:
    def test_sole_inequality_member_is_redundant_on_leaving(self):
        sp, base = _eq_below(4), _dummy_base([3, 8])
        y_p = np.array([4.0, 2.0])
        assert detect_leaving_redundant(sp, 1, y_p, base)
        assert select_leaving(sp, -1.0, y_p, np.ones(2), base) == (1, True)

    def test_sole_among_equality_members_with_larger_entries(self):
        sp, base = _eq_below(7), _dummy_base([3, 8, 6])
        y_p = np.array([5.0, 2.0, 7.0])
        y_c = np.array([0.1, 9.0, 0.1])
        assert detect_leaving_redundant(sp, 1, y_p, base)
        assert select_leaving(sp, -1.0, y_p, y_c, base) == (1, True)

    def test_second_positive_entry_blocks_redundancy(self):
        sp, base = _eq_below(0), _dummy_base([3, 8])
        y_p = np.array([0.5, 2.0])
        assert not detect_leaving_redundant(sp, 1, y_p, base)
        assert select_leaving(sp, -1.0, y_p, np.array([1.0, 0.1]), base) == (1, False)

    def test_a_row_found_redundant_never_enters_again(self):
        # under least-index, row 0 leaves the base as the sole eligible
        # slot and is violated again at the last iterate: with a finite
        # tolerance it would enter there and certify in place of row 1
        p = GeneralLP(
            c=[-1.0, -1.0],
            A_ineq=[[-2.0, 2.0], [-1.0, 1.0], [-2.0, -2.0], [2.0, 1.0]],
            b_ineq=[1.0, 2.0, 2.0, 0.0],
            lower=[-3.0, -3.0], upper=[3.0, 3.0],
        )
        out = solve(to_standard_general(p), PivotRule.LEAST_INDEX, collect_trace=True)
        assert out.status is Status.INFEASIBLE
        assert out.redundant_rows == {0, 4, 5}
        assert [(r.entering, r.leaving) for r in out.trace] == [
            (0, 4), (1, 0), (2, 1), (3, 5), (1, -1)]
        assert out.certificate.entering_row == 1

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
        # the objective at the artificial bound is a function of M, not an answer
        assert out.objective is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("p", [
        # c.x of the optimum overflows to inf
        GeneralLP(c=[2.0, 1.0, 1e300],
                  A_ineq=[[2.0, 1.0, -1.0], [1e-300, -1.0, 1.0], [1.0, 1e-300, -1.0]],
                  b_ineq=[1.0, 1e300, 1e300]),
        # the one feasible point's objective is 1e310 - 1e310: NaN, or +-inf
        # where the dot product fuses a multiply and an add
        GeneralLP(c=[1e300, -1e300], lower=[1e10, 1e10], upper=[1e10, 1e10]),
    ], ids=["inf", "inf-minus-inf"])
    def test_optimum_that_is_not_finite_is_numerical_breakdown(self, p):
        # it was once returned as an Optimal answer
        sp = to_standard_general(p)
        for rule in PivotRule:
            with pytest.raises(NumericalBreakdown, match="is not finite"):
                solve(sp, rule)

    def test_final_status_names_the_least_artificial_row(self):
        # c < 0 flips both bound pairs: E row 0 carries x0 <= M, F row 3
        # carries x1 >= -M
        p = GeneralLP(c=[-1.0, -1.0], lower=[0.0, -np.inf], upper=[np.inf, 1.0])
        sp = to_standard_general(p)
        assert sp.artificial_rows == frozenset({0, 3})
        assert final_status(sp, np.array([3, 0])) == (Status.UNBOUNDED, 0)
        assert final_status(sp, np.array([1, 3])) == (Status.UNBOUNDED, 3)
        assert final_status(sp, np.array([1, 2])) == (Status.OPTIMAL, None)

    @pytest.mark.parametrize("rule", list(PivotRule), ids=lambda r: r.value)
    @pytest.mark.parametrize("d", range(20, KM1_MAX_D + 1))
    def test_km1_is_solved_up_to_its_largest_size(self, d, rule):
        out = solve(to_standard_general(klee_minty_v1(d)), rule)
        assert out.status is Status.OPTIMAL
        assert out.objective == -(5.0**d)

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
    def test_stall_switches_to_least_index_and_still_terminates(self, monkeypatch):
        # the flat-objective stretch at the start of the cube solve trips a
        # stall threshold of one pivot
        monkeypatch.setattr(facet, "STALL_ITERATIONS", 1)
        sp = to_standard_general(klee_minty_v2(10))
        out = solve(sp, PivotRule.MAX_DEVIATION, collect_trace=True, audit=True)
        assert out.status is Status.OPTIMAL
        assert out.objective == -1023.0
        assert {r.rule for r in out.trace} == {"max-dev", "least-index"}
        assert not out.audit.base_repeated

    def test_dependent_equality_note_reaches_certificate_and_trace(self):
        p = GeneralLP(c=[1.0, 1.0],
                      A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 3.0],
                      lower=[0.0, 0.0], upper=[10.0, 10.0])
        out = solve(to_standard_general(p), collect_trace=True)
        assert out.status is Status.INFEASIBLE
        assert "equalit" in out.certificate.note
        assert out.trace[-1].note == out.certificate.note


class TestTerminationAndAgreement:
    def test_least_index_rule_never_revisits_a_base(self):
        for (d, m, n) in [(4, 1, 6), (6, 1, 8)]:
            for seed in range(30):
                p = random_instance(seed, d, m, n, "feasible")
                sp = to_standard_general(p)
                out = solve(sp, PivotRule.LEAST_INDEX, audit=True)
                assert not out.audit.base_repeated
                assert out.iterations <= math.comb(sp.num_rows, sp.d)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        rule=st.sampled_from(PivotRule),
        shape=st.sampled_from(workloads.ORACLE_SHAPES),
        kind=st.sampled_from(RANDOM_KINDS),
        seed=st.integers(0, 499),
        transform_seed=st.integers(0, 2**32 - 1),
    )
    def test_status_and_objective_survive_row_permutation_and_scaling(
        self, rule, shape, kind, seed, transform_seed
    ):
        # the equality rows and the inequality rows are each permuted, or
        # each scaled by 2^k, |k| <= 6, which is exact. An Optimal objective
        # must agree to criterion 3's 1e-7; an Unbounded one is not
        # compared, since big-M follows the data's magnitude. The sign and
        # pivot tolerances are not per row, so far wider scalings (|k| >= 15)
        # do move outcomes
        d, m, n = shape
        p = random_instance(seed, d, m, n, kind)
        rng = np.random.default_rng(transform_seed)
        eq, ineq = rng.permutation(p.A_eq.shape[0]), rng.permutation(p.A_ineq.shape[0])
        permuted = GeneralLP(
            c=p.c, A_eq=p.A_eq[eq], b_eq=p.b_eq[eq], A_ineq=p.A_ineq[ineq],
            b_ineq=p.b_ineq[ineq], lower=p.lower, upper=p.upper,
        )
        s_eq = np.ldexp(1.0, rng.integers(-6, 7, size=p.A_eq.shape[0]))
        s_ineq = np.ldexp(1.0, rng.integers(-6, 7, size=p.A_ineq.shape[0]))
        scaled = GeneralLP(
            c=p.c, A_eq=p.A_eq * s_eq[:, None], b_eq=p.b_eq * s_eq,
            A_ineq=p.A_ineq * s_ineq[:, None], b_ineq=p.b_ineq * s_ineq,
            lower=p.lower, upper=p.upper,
        )
        want = solve(to_standard_general(p), rule)
        for q in (permuted, scaled):
            got = solve(to_standard_general(q), rule)
            assert got.status is want.status
            if want.status is Status.OPTIMAL:
                rel = abs(got.objective - want.objective) / (1 + abs(want.objective))
                assert rel <= 1e-7

    def test_translation_keeps_the_path(self):
        # x -> x + t with t integral moves each rhs and bound by an integer,
        # so every rule takes the same pivots to the same base at any d, and
        # an Optimal objective moves by c.t
        lps = _oracle_shape_lps(10)
        lps += [cube(d) for cube in (klee_minty_v1, klee_minty_v2) for d in range(3, 13)]
        lps += [workloads.dense_lp(np.random.default_rng(j), d) for d in (20, 40)
                for j in range(2)]
        for i, p in enumerate(lps):
            t = np.random.default_rng(i).integers(-3, 4, size=p.c.size).astype(float)
            moved = GeneralLP(
                c=p.c, A_eq=p.A_eq, b_eq=p.b_eq + p.A_eq @ t, A_ineq=p.A_ineq,
                b_ineq=p.b_ineq + p.A_ineq @ t, lower=p.lower + t, upper=p.upper + t,
                objective_offset=p.objective_offset,
            )
            sp, sp_moved = to_standard_general(p), to_standard_general(moved)
            for rule in PivotRule:
                want, got = solve(sp, rule), solve(sp_moved, rule)
                assert (got.status, got.iterations, got.basis_rows) == \
                    (want.status, want.iterations, want.basis_rows), (i, rule)
                if want.status is Status.OPTIMAL:
                    assert got.objective == pytest.approx(
                        want.objective + p.c @ t, rel=1e-12, abs=0.0), (i, rule)


class TestBaseFactorizationPaths:
    """Every base keeps an explicit inverse, updated in place per pivot and
    factored afresh when a tiny pivot element or the residual check asks."""

    @pytest.mark.parametrize("d", [8, 20, 31, 40, 80])
    def test_dense_lps_audit_clean_and_match_highs(self, d):
        # the interior-point solver, as the dual simplex's point has been
        # seen to violate a row of a dense LP by 3.9e-6
        from scipy.optimize import linprog

        for seed in range(3):
            p = workloads.dense_lp(np.random.default_rng(seed), d)
            out = solve(to_standard_general(p), audit=True)
            assert out.audit.violations == []
            ref = linprog(p.c, A_ub=-p.A_ineq, b_ub=-p.b_ineq,
                          bounds=list(zip(p.lower, p.upper)), method="highs-ipm")
            assert ref.status == 0
            assert out.status is Status.OPTIMAL
            assert abs(out.objective - ref.fun) <= 1e-9 * (1.0 + abs(ref.fun))

    def test_checks_refresh_a_corrupted_inverse(self, monkeypatch):
        # the inverse returned by the 100th update (of 261) is shifted by
        # 1e-6 or 1e-9 times max|inv| in every entry: the x solved from it
        # fails the residual check, so that pivot factors the base afresh
        # and solves y_c and x again, and the solve ends where the clean one
        # does. The y_c solved from the shifted inverse is off c by about
        # 2.6e4 times the audit's tolerance at 1e-9, so a clean audit shows
        # that the rebuild replaced it too
        sp = to_standard_general(workloads.dense_lp(np.random.default_rng(0), 80))
        replace_row, calls = linalg.replace_row, [0]

        def corrupting_replace_row(f, slot, y):
            updated = replace_row(f, slot, y)
            calls[0] += 1
            if calls[0] == 100:
                f.inv[:] += shift * np.abs(f.inv).max()
            return updated

        clean = solve(sp, audit=True)
        monkeypatch.setattr(linalg, "replace_row", corrupting_replace_row)
        for shift in (1e-6, 1e-9):
            calls[0] = 0
            out = solve(sp, audit=True)
            assert calls[0] > 100, shift
            assert out.factorizations > clean.factorizations, shift
            assert out.status is clean.status is Status.OPTIMAL, shift
            assert abs(out.objective - clean.objective) <= 1e-9 * (1.0 + abs(clean.objective))
            assert out.audit.violations == [] and not out.audit.base_repeated, shift

    def test_singular_rebuild_names_both_rows(self, monkeypatch):
        # the first pivot's updated inverse is shifted by 1e-6 times
        # max|inv|, so its x fails the residual check, and the fresh
        # factorization of the rebuild finds the base singular: the error
        # names both rows, and the base keeps p and its updated inverse
        sp = to_standard_general(klee_minty_v2(6))
        base, state = initial_state(sp)
        p = select_entering(sp, state, PivotRule.MAX_DEVIATION, _pricing_tols(sp, base))
        y_p = expand_entering(sp, base, p)
        s, _ = select_leaving(sp, float(state.sigma[p]), y_p, state.y_c, base)
        q = int(base.indices[s])
        replace_row = linalg.replace_row
        updated = []

        def corrupting_replace_row(f, slot, y):
            assert replace_row(f, slot, y)
            f.inv[:] += 1e-6 * np.abs(f.inv).max()
            updated.append(f)
            return True

        def singular_factor(m):
            raise SingularMatrix("matrix is singular (pivot 2)", 2)

        monkeypatch.setattr(linalg, "replace_row", corrupting_replace_row)
        monkeypatch.setattr(linalg, "factor", singular_factor)
        with pytest.raises(SingularMatrix,
                           match=rf"^pivot {p}<->{q} produced a singular base") as exc:
            pivot(sp, base, state, p, s, y_p)
        assert exc.value.pivot_index == 2
        assert base.indices[s] == p and base.fact is updated[0]

    @pytest.mark.parametrize(
        "lp", [klee_minty_v1(16), workloads.dense_lp(np.random.default_rng(0), 40)],
        ids=["km1-16", "dense-40"],
    )
    def test_pushed_y_c_is_not_carried_into_the_next_pivot(self, monkeypatch, lp):
        # one pivot mid-solve hands back y_c with A_B^T y_c off c by 1e-6 *
        # c_scale; the next pivot solves y_c from its factors afresh, so the
        # error ends there without a rebuild
        sp = to_standard_general(lp)
        c = sp.c_original
        c_scale = 1.0 + float(np.max(np.abs(c)))
        real_pivot = facet.pivot
        # entry k - 1 counts the factorizations of pivot k
        factors_per_pivot, fresh_y_c = [], []

        def pivot_pushing_once(sp, base, *args):
            before = base.factorizations
            base, state = real_pivot(sp, base, *args)
            factors_per_pivot.append(base.factorizations - before)
            fresh = linalg.solve_transpose(base.fact, c)
            fresh_y_c.append(state.y_c.tobytes() == fresh.tobytes())
            if len(factors_per_pivot) == push_at:
                i = int(((base.indices >= sp.m) & (state.y_c > 0)).nonzero()[0][0])
                state.y_c[i] += 1e-6 * c_scale / np.abs(sp.rows(base.indices[i:i + 1])).max()
            return base, state

        monkeypatch.setattr(facet, "pivot", pivot_pushing_once)
        push_at = 0
        clean = solve(sp, audit=True)
        clean_factors = factors_per_pivot
        push_at, factors_per_pivot, fresh_y_c = clean.iterations // 2, [], []
        out = solve(sp, audit=True)
        assert 0 < push_at < out.iterations
        assert len(fresh_y_c) == out.iterations and all(fresh_y_c)
        assert factors_per_pivot == clean_factors
        assert out.audit.violations
        assert all(v.startswith(f"iter {push_at}: expansion residual")
                   for v in out.audit.violations)
        assert out.status is clean.status is Status.OPTIMAL
        assert out.iterations == clean.iterations
        assert out.basis_rows == clean.basis_rows
        assert _bits(out.objective) == _bits(clean.objective)

    def test_kb2_shaped_fixture_keeps_its_pivot_count(self, fixtures_dir):
        sp = to_standard_general(read_mps(fixtures_dir / "kb2_shape.mps"))
        out = solve(sp)
        assert out.status is Status.OPTIMAL
        assert out.iterations == 31


def _step_cases():
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
        for d, m, n in workloads.ORACLE_SHAPES:
            for kind in workloads.ORACLE_KINDS:
                p = random_instance(seed, d, m, n, kind)
                yield f"{kind}-{seed}-{d}", to_standard_general(p), 10_000
    for d in (40, 80):
        p = workloads.dense_lp(np.random.default_rng(0), d)
        yield f"dense-{d}", to_standard_general(p), 10_000


def _bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


def test_steps_agree_at_every_pivot(monkeypatch):
    """While ``solve`` runs, each entering row is the masked reference's
    pick, ``select_leaving`` finds no row exactly when ``check_infeasible``
    certifies, and its ``sole`` flag is ``detect_leaving_redundant``'s test.
    The reference's tolerances are infinite on the base rows and on the rows
    found redundant, which it tracks itself, so a redundant row that
    re-entered would show too."""
    real_entering, real_leaving = facet.select_entering, facet.select_leaving
    real_start = facet.initial_state
    removed, seen = set(), {"sole": 0, "not sole": 0, "certified": 0}
    entering, bases = [], []

    def recorded_start(sp):
        # each pivot writes the base it is given in place and returns it
        base, state = real_start(sp)
        bases.append(base)
        return base, state

    def checked_entering(sp, state, rule, row_tols, row_norms=None):
        got = real_entering(sp, state, rule, row_tols, row_norms)
        tols = _pricing_tols(sp, bases[-1])
        tols[list(removed)] = np.inf
        assert got == _reference_pick(sp.m, state.sigma, tols, sp.row_norms(), rule)
        entering.append(got)
        return got

    def checked_leaving(sp, sigma_p, y_p, y_c, base):
        got = real_leaving(sp, sigma_p, y_p, y_c, base)
        certificate = check_infeasible(sp, entering[-1], sigma_p, y_p, base)
        assert (got is None) == (certificate is not None)
        if got is None:
            seen["certified"] += 1
            return got
        s, sole = got
        assert sole == detect_leaving_redundant(sp, s, y_p if sigma_p < 0 else -y_p, base)
        seen["sole" if sole else "not sole"] += 1
        if sole:
            removed.add(int(base.indices[s]))
        return got

    monkeypatch.setattr(facet, "initial_state", recorded_start)
    monkeypatch.setattr(facet, "select_entering", checked_entering)
    monkeypatch.setattr(facet, "select_leaving", checked_leaving)
    statuses = set()
    for name, sp, max_iter in _step_cases():
        for rule in PivotRule:
            removed.clear()
            out = solve(sp, rule, max_iter, audit=True, collect_trace=True)
            statuses.add(out.status)
            assert out.redundant_rows == removed, (name, rule)
            assert out.audit.violations == [], (name, rule)
    assert statuses == set(Status)
    assert min(seen.values()) > 0, seen


def test_kernels_get_the_vectors_they_trust(monkeypatch, fixtures_dir):
    """``linalg.solve``, ``solve_transpose`` and ``replace_row`` check no
    shape: gemv reads a (d, 2) array flattened and a (d + 1,) vector up to
    its d-th entry. So every vector the solver passes them must be a
    C-contiguous float64 array of shape (d,), and the y that updates the
    inverse must be the very expansion the ratio test ranked."""
    lps = [cube(d) for cube in (klee_minty_v1, klee_minty_v2) for d in range(3, 13)]
    lps += [cycling_fixture(fid) for fid in CYCLING_FIXTURE_IDS]
    lps += [read_mps(path) for path in sorted(fixtures_dir.glob("*.mps"))]
    lps += _oracle_shape_lps(10)
    lps.append(workloads.dense_lp(np.random.default_rng(0), 60))
    real_solve, real_solve_t = linalg.solve, linalg.solve_transpose
    real_replace, real_expand, real_leaving = (
        linalg.replace_row, facet.expand_entering, facet.select_leaving)
    calls = {"solve": 0, "solve_transpose": 0, "replace_row": 0}
    expanded, ranked = [], []
    # expansions of general rows, which take a transpose solve, and of
    # bound rows, which read a row of the inverse
    entering = {"general": 0, "bound": 0}

    def check(name, v):
        calls[name] += 1
        assert isinstance(v, np.ndarray) and v.dtype == np.float64, (name, type(v))
        assert v.shape == (sp.d,) and v.flags.c_contiguous, (name, v.shape)

    def recording_solve(f, r):
        check("solve", r)
        return real_solve(f, r)

    def recording_solve_t(f, r):
        check("solve_transpose", r)
        return real_solve_t(f, r)

    def recording_replace(f, slot, y):
        check("replace_row", y)
        assert y is ranked[-1] and y is expanded[-1]
        return real_replace(f, slot, y)

    def recording_expand(sp, base, p):
        entering["general" if p < sp.m + sp.n else "bound"] += 1
        expanded.append(real_expand(sp, base, p))
        return expanded[-1]

    def recording_leaving(sp, sigma_p, y_p, y_c, base):
        ranked.append(y_p)
        return real_leaving(sp, sigma_p, y_p, y_c, base)

    monkeypatch.setattr(linalg, "solve", recording_solve)
    monkeypatch.setattr(linalg, "solve_transpose", recording_solve_t)
    monkeypatch.setattr(linalg, "replace_row", recording_replace)
    monkeypatch.setattr(facet, "expand_entering", recording_expand)
    monkeypatch.setattr(facet, "select_leaving", recording_leaving)
    for lp in lps:
        sp = to_standard_general(lp)
        for rule in PivotRule:
            expanded.clear()
            ranked.clear()
            solve(sp, rule)
    # a pivot updates the inverse with the expansion, then solves x and
    # y_c from it; a general row's expansion is a transpose solve too
    assert calls["replace_row"] > 0 and min(entering.values()) > 0, (calls, entering)
    assert calls["solve"] >= calls["replace_row"], calls
    assert calls["solve_transpose"] >= calls["replace_row"] + entering["general"], calls


def test_outcome_digest_script_writes_one_line_per_solve(tmp_path, monkeypatch, load_script):
    script = load_script("outcome_digest")
    out = tmp_path / "digest.jsonl"
    script.main(["--quick", "-o", str(out)])
    # a line naming the build comes first
    first = json.loads(out.read_text().splitlines()[0])
    assert first == {"build": script.build()}
    build, lines = script.read(out)
    assert build == first["build"]
    # the facet lines come first, then one line per oracle call, then one
    # per Dantzig call
    dantzig_cases = list(script.dantzig_cases(quick=True))
    lines, dantzig = lines[: -len(dantzig_cases)], lines[-len(dantzig_cases):]
    oracle_cases = list(script.oracle_cases(quick=True))
    lines, oracle = lines[: -len(oracle_cases)], lines[-len(oracle_cases):]
    assert len(lines) == len(list(script.cases(quick=True)))
    assert {line["name"].split("-")[0] for line in lines} >= {
        "km1", "km2", "cycling", "mps", "feasible", "infeasible", "unbounded", "dense",
        "dense_lp",
    }
    assert {line["status"] for line in lines} == {"Optimal", "Infeasible", "Unbounded"}
    # the start base needs no factorization and no quick solve refactors
    assert all(line["violations"] == [] and line["factor_calls"] == 0 for line in lines)
    # a certificate and a trace reach the line as hashes of their reprs
    assert len({line["certificate"] for line in lines if line["status"] == "Infeasible"}) > 1
    assert len({line["trace"] for line in lines}) > len(lines) // 2
    name, sp, rule = next(script.cases(quick=True))
    assert script.digest(name, sp, rule) == lines[0]
    # the counter counts: where replace_row declines, every pivot factors
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "replace_row", lambda f, slot, y: False)
        counted = script.digest(name, sp, rule)
    assert counted["factor_calls"] == counted["iterations"] > 0

    assert [line["name"] for line in oracle] == [name for name, _ in oracle_cases]
    assert {line["solver"] for line in oracle} == {"oracle"}
    assert {line["status"] for line in oracle} == {"Optimal", "Infeasible", "Unbounded"}
    for line in oracle:
        unbounded = line["status"] == "Unbounded"
        assert isinstance(line["certificate"], int) if unbounded else line["certificate"] is None
    assert script.oracle_digest(*oracle_cases[-1]) == oracle[-1]

    assert [line["name"] for line in dantzig] == [name for name, _, _ in dantzig_cases]
    assert {line["solver"] for line in dantzig} == {"dantzig"}
    assert {line["name"].split("-")[0] for line in dantzig} == {
        "km1", "km2", "cycling", "mps", "feasible", "infeasible", "unbounded"}
    assert {line["status"] for line in dantzig} == {
        "Optimal", "Infeasible", "Unbounded", "IterationLimit"}
    # the cycling fixtures that cycle stop at the limit only without Bland's rule
    limited = {(line["name"], line["bland"]) for line in dantzig
               if line["status"] == "IterationLimit"}
    assert limited and all(not bland for _, bland in limited)
    assert script.dantzig_digest(*dantzig_cases[0]) == dantzig[0]


def test_outcome_digest_against_reports_what_moved(tmp_path, capsys, monkeypatch, load_script):
    script = load_script("outcome_digest")
    old = [
        {"name": "km1-d3", "rule": "max-dev", "status": "Optimal", "iterations": 3,
         "objective": (-125.0).hex(), "basis_rows": [2, 6, 7], "factor_calls": 3},
        {"name": "inf-s0", "rule": "max-dev", "status": "Infeasible", "iterations": 2,
         "objective": None, "basis_rows": [4, 5], "factor_calls": 2},
        {"name": "km1-d3", "solver": "dantzig", "bland": False, "status": "Optimal",
         "phase1": 0, "phase2": 7, "objective": (-125.0).hex()},
    ]
    new = [dict(line) for line in old]
    new[0].update(objective=(-125.0 * (1 + 2e-13)).hex(), factor_calls=1)
    new[1].update(status="Optimal", iterations=3, objective=(4.0).hex(), factor_calls=1)
    report = script.compare(old, new)
    assert report[0] == "3 lines, 2 moved"
    assert report[1:5] == ["  factor_calls: 2", "  iterations: 1", "  objective: 2",
                           "  status: 1"]
    assert report[5].endswith(": 2")
    assert set(report[6:8]) == {"  inf-s0 max-dev: status Infeasible -> Optimal",
                                "  inf-s0 max-dev: iterations 2 -> 3"}
    assert report[8].startswith("largest relative objective move: 2e-13 (km1-d3 max-dev)")
    assert report[9] == "linalg.factor calls: 5 -> 2"
    assert report[10:] == ["  moved: km1-d3 max-dev (factor_calls, objective)",
                           "  moved: inf-s0 max-dev (factor_calls, iterations, objective, status)"]
    assert script.compare(old, old)[-2] == "largest relative objective move: 0"
    with pytest.raises(SystemExit):
        script.compare(old, new[::-1])

    # the command line writes the digest to -o, then prints the report;
    # here the sweep is empty
    for name in ("cases", "oracle_cases", "dantzig_cases"):
        monkeypatch.setattr(script, name, lambda quick: [])
    old_path, new_path = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old_path.write_text("")
    with pytest.raises(SystemExit):
        script.main(["--against", str(old_path)])
    capsys.readouterr()
    script.main(["--against", str(old_path), "-o", str(new_path)])
    assert script.read(new_path) == (script.build(), [])
    assert capsys.readouterr().out.splitlines()[0] == "0 lines, 0 moved"

    # a digest from another build: one line names both builds before the
    # report, and the exit code still follows the moved lines alone
    other = {"numpy": "0.0", "scipy": "0.0", "openblas": []}
    assert script.build_note(other, other) == script.build_note(None, other) == []
    old_path.write_text(json.dumps({"build": other}) + "\n")
    script.main(["--against", str(old_path), "-o", str(new_path)])
    assert capsys.readouterr().out.splitlines()[:2] == [
        f"the builds differ: {json.dumps(other)} -> {json.dumps(script.build())}",
        "0 lines, 0 moved"]


def test_pivot_overhead_script_prints_one_row_per_dimension(capsys, load_script):
    script = load_script("split")
    script.main(["pivot", "--dims", "8", "9", "cubes", "--instances", "1",
                 "--rounds", "1", "--reps", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("| d | pivots | bound-row pivots |") and len(lines) == 5
    for name, line in zip(("8", "9", "cubes"), lines[2:]):
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        assert cells[0] == name and int(cells[1]) >= int(cells[2]) >= 0
        assert float(cells[3]) > 0 and float(cells[4]) > 0 and cells[5].endswith("%")
    # the cubes take d pivots each, most of them entering a bound row
    cells = lines[-1].strip("|").split("|")
    assert int(cells[1]) == 16 + 19 and int(cells[1]) > int(cells[2]) > int(cells[1]) // 2


def test_outcome_digest_against_exits_1_when_a_line_moved(
        tmp_path, capsys, monkeypatch, load_script):
    script = load_script("outcome_digest")
    # a sweep of one solve, whose line is read off ``iterations``
    iterations = [3]
    monkeypatch.setattr(script, "cases", lambda quick: [("km1-d3", None, None)])
    monkeypatch.setattr(script, "digest", lambda name, sp, rule: {
        "name": name, "rule": "max-dev", "iterations": iterations[0]})
    for name in ("oracle_cases", "dantzig_cases"):
        monkeypatch.setattr(script, name, lambda quick: [])
    old_path, new_path = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    script.main(["-o", str(old_path)])
    script.main(["--against", str(old_path), "-o", str(new_path)])
    assert capsys.readouterr().out.splitlines()[0] == "1 lines, 0 moved"
    iterations[0] = 4
    with pytest.raises(SystemExit) as exc:
        script.main(["--against", str(old_path), "-o", str(new_path)])
    assert exc.value.code == 1
    assert capsys.readouterr().out.splitlines()[:2] == ["1 lines, 1 moved", "  iterations: 1"]
