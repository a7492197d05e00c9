import dataclasses
import gzip
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facetlp.errors import (
    DimensionMismatch,
    InconsistentBounds,
    MalformedInput,
    NonFiniteData,
)
from facetlp.generators import klee_minty_v1, klee_minty_v2
from facetlp.model import (
    GeneralLP,
    default_big_m,
    general_lp_from_dict,
    general_lp_to_dict,
    load_general_lp,
    objective_value,
    residuals,
    save_general_lp,
    to_standard_general,
    violations,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _block(sp, rows: slice) -> np.ndarray:
    """The stacked rows of one block, as ``StandardGeneralLP.rows`` builds them."""
    return sp.rows(range(sp.num_rows)[rows])


def _stacked(p: GeneralLP, sp) -> np.ndarray:
    """The dense stacked matrix [A_eq; A_ineq; E; F] that ``to_standard_general``
    once stored, rebuilt from the problem and the E signs."""
    return np.vstack([p.A_eq, p.A_ineq, np.diag(sp.e_diag), np.diag(-sp.e_diag)])


class TestToStandardGeneral:
    def test_sign_rules_for_mixed_objective(self):
        """Variable with c >= 0 keeps +e_i bound rows; a negative-cost
        variable gets the negated pair so the adjusted objective stays
        nonnegative.

            d=2, c=(1,-2), bounds [0,10] x [0,20]
        """
        p = GeneralLP(c=[1.0, -2.0], lower=[0.0, 0.0], upper=[10.0, 20.0])
        sp = to_standard_general(p)
        np.testing.assert_array_equal(sp.c_original, [1.0, -2.0])
        # the start's expansion coefficients, solved from the E block
        y_c = np.linalg.solve(_block(sp, sp.e_block).T, sp.c_original)
        np.testing.assert_array_equal(y_c, [1.0, 2.0])
        e = _block(sp, sp.e_block)
        f = _block(sp, sp.f_block)
        np.testing.assert_array_equal(e, np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(f, np.diag([-1.0, 1.0]))
        np.testing.assert_array_equal(sp.b[sp.e_block], [0.0, -20.0])
        np.testing.assert_array_equal(sp.b[sp.f_block], [-10.0, 0.0])
        assert not sp.artificial_rows

    def test_negative_zero_cost_is_cleared(self):
        sp = to_standard_general(GeneralLP(c=[-0.0, 2.0, -3.0]))
        assert sp.c_original.tolist() == [0.0, 2.0, -3.0]
        assert not np.signbit(sp.c_original[0])

    def test_infinite_upper_bound_becomes_artificial_row(self):
        p = GeneralLP(c=[0.0], lower=[0.0], upper=[np.inf])
        sp = to_standard_general(p)  # M = 1e7 * max(1, |lower|)
        np.testing.assert_array_equal(_block(sp, sp.e_block), [[1.0]])
        np.testing.assert_array_equal(sp.b[sp.e_block], [0.0])
        np.testing.assert_array_equal(_block(sp, sp.f_block), [[-1.0]])
        np.testing.assert_array_equal(sp.b[sp.f_block], [-1e7])
        # the F row is the artificial one (index m+n+d)
        assert sp.artificial_rows == frozenset({1})

    def test_artificial_rows_are_the_rows_given_big_m(self):
        """A bound row is artificial exactly when its rhs is -M, the default
        big M, which no finite bound here equals, over every sign of c and
        every pair of infinite bounds."""
        rng = np.random.default_rng(3)
        inf = np.inf
        for _ in range(40):
            d = int(rng.integers(1, 7))
            lower = rng.choice([-inf, -2.0, 0.0], d)
            upper = rng.choice([inf, 3.0], d)
            c = rng.choice([-1.0, 0.0, 2.0], d)
            p = GeneralLP(c=c, lower=lower, upper=upper)
            sp = to_standard_general(p)
            bound_rows = np.flatnonzero(sp.b == -default_big_m(p))
            assert sp.artificial_rows == frozenset(bound_rows.tolist())
            assert len(sp.artificial_rows) == np.isinf(lower).sum() + np.isinf(upper).sum()

    def test_all_negative_objective_cube_starts_at_big_m(self):
        p = klee_minty_v1(3)
        sp = to_standard_general(p)
        big_m = default_big_m(p)
        np.testing.assert_array_equal(_block(sp, sp.e_block), -np.eye(3))
        np.testing.assert_array_equal(sp.b[sp.e_block], [-big_m] * 3)
        np.testing.assert_array_equal(_block(sp, sp.f_block), np.eye(3))
        np.testing.assert_array_equal(sp.b[sp.f_block], [0.0] * 3)
        # E x0 = b_L  =>  x0 = (M, M, M)
        x0 = np.linalg.solve(_block(sp, sp.e_block), sp.b[sp.e_block])
        np.testing.assert_array_equal(x0, [big_m] * 3)

    def test_e_and_f_blocks_are_opposite_diagonals(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            p = GeneralLP(
                c=rng.integers(-5, 6, d).astype(float),
                lower=rng.integers(-4, 1, d).astype(float),
                upper=rng.integers(1, 6, d).astype(float),
            )
            sp = to_standard_general(p)
            e, f = _block(sp, sp.e_block), _block(sp, sp.f_block)
            np.testing.assert_array_equal(e, -f)
            np.testing.assert_array_equal(np.abs(np.diag(e)), np.ones(d))
            assert np.all(np.linalg.solve(e.T, sp.c_original) >= 0)

    def test_objective_roundtrip_through_adjusted_coefficients(self):
        """c.x must equal sum_i y_i * (E_i . x), y the start's expansion
        coefficients solved from E^T y = c: the sign bookkeeping is
        lossless."""
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = int(rng.integers(1, 7))
            p = GeneralLP(
                c=rng.integers(-9, 10, d).astype(float),
                lower=np.full(d, -5.0),
                upper=np.full(d, 5.0),
            )
            sp = to_standard_general(p)
            x = rng.normal(size=d)
            e = _block(sp, sp.e_block)
            reconstructed = float(np.linalg.solve(e.T, sp.c_original) @ (e @ x))
            assert reconstructed == pytest.approx(float(p.c @ x), abs=1e-12)

    def test_initial_point_picks_cheaper_bound_per_coordinate(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            d = int(rng.integers(1, 6))
            lo = rng.integers(-6, 0, d).astype(float)
            hi = rng.integers(1, 7, d).astype(float)
            c = rng.integers(-5, 6, d).astype(float)
            sp = to_standard_general(GeneralLP(c=c, lower=lo, upper=hi))
            x0 = np.linalg.solve(_block(sp, sp.e_block), sp.b[sp.e_block])
            for i in range(d):
                assert x0[i] == (hi[i] if c[i] < 0 else lo[i])
                assert c[i] * x0[i] == min(c[i] * lo[i], c[i] * hi[i])


class TestViolations:
    def test_satisfied_equality_row(self):
        p = GeneralLP(c=[0.0, 0.0], A_eq=[[1.0, 2.0]], b_eq=[3.0],
                      lower=[-10, -10], upper=[10, 10])
        rep = violations(to_standard_general(p), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(rep.sigma_eq, [0.0])

    def test_cube_optimizer_is_feasible(self):
        sp = to_standard_general(klee_minty_v2(3))
        rep = violations(sp, np.array([0.0, 0.0, 7.0]))
        assert rep.is_feasible
        assert np.min(rep.sigma_ineq) >= 0.0

    def test_interior_violation_of_negated_row(self):
        # third cube row in >= sense is -2x1 - 2x2 - x3 >= -7: residual -4
        sp = to_standard_general(klee_minty_v2(3))
        rep = violations(sp, np.array([1.0, 1.0, 7.0]))
        assert not rep.is_feasible
        assert rep.sigma_ineq[2] == pytest.approx(-4.0)
        assert rep.max_abs_violation >= 4.0

    def test_dimension_mismatch(self):
        sp = to_standard_general(klee_minty_v2(3))
        with pytest.raises(DimensionMismatch):
            violations(sp, np.zeros(2))

    def test_feasibility_verdict_matches_componentwise_formula(self):
        """The verdict reads each row's own tolerance, 1e-8 * (1 + |b_i|), or
        tol_feas on every row: |sigma| within it on the equality rows and
        sigma at least its negative on the others."""
        rng = np.random.default_rng(17)
        cube = klee_minty_v2(4)
        # the cube plus the equality x_3 = 15, which its optimum satisfies
        p = GeneralLP(c=cube.c, A_eq=[[0.0, 0.0, 0.0, 1.0]], b_eq=[15.0],
                      A_ineq=cube.A_ineq, b_ineq=cube.b_ineq,
                      lower=cube.lower, upper=cube.upper)
        sp = to_standard_general(p)
        x_opt = np.array([0.0, 0.0, 0.0, 15.0])
        verdicts = set()
        for k in range(150):
            # wide points, and points within a few tolerances of the optimum
            scale = (4.0, 1e-7, 1e-8)[k % 3]
            x = x_opt + rng.normal(scale=scale, size=sp.d)
            for tol_feas in (None, 2e-8):
                rep = violations(sp, x, tol_feas)
                tol = 1e-8 * (1.0 + np.abs(sp.b)) if tol_feas is None else np.full(
                    sp.num_rows, tol_feas)
                formula = bool(np.all(np.abs(rep.sigma_eq) <= tol[:1])
                               and np.all(rep.sigma_ineq >= -tol[1:]))
                assert rep.is_feasible == formula
                verdicts.add((tol_feas, formula))
        assert len(verdicts) == 4

    def test_violation_far_beyond_its_row_tolerance_is_infeasible(self):
        """A single width for every row, 1e-8 * (1 + max |b|), is 1,525.9 at
        km1 d = 16 and passed x_0 = -1000; the row x_0 >= 0 allows 1e-8."""
        d = 16
        sp = to_standard_general(klee_minty_v1(d))
        x = np.zeros(d)
        x[-1] = 5.0**d
        assert violations(sp, x).is_feasible
        x[0] = -1000.0
        rep = violations(sp, x)
        assert not rep.is_feasible
        assert rep.max_abs_violation == 1000.0

    @pytest.mark.parametrize("tol_feas", [np.nan, -1e-8])
    def test_nan_or_negative_tol_feas_is_refused(self, tol_feas):
        sp = to_standard_general(klee_minty_v2(3))
        with pytest.raises(NonFiniteData, match="tol_feas"):
            violations(sp, np.array([0.0, 0.0, 7.0]), tol_feas=tol_feas)


class TestFeasible:
    def test_stacked_residuals_and_nan(self):
        """``feasible`` reads the last axis, so one call judges a stack of
        residual vectors; a NaN residual is infeasible."""
        p = GeneralLP(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                      lower=[0.0, 0.0], upper=[1.0, 1.0])
        sp = to_standard_general(p)
        tols = sp.feasibility_tolerances()
        sigma = np.zeros((5, sp.num_rows))
        sigma[1, 0] = 1.0   # equality row over
        sigma[2, 0] = -1.0  # equality row under
        sigma[3, 2] = -1.0  # bound row under
        sigma[4, 3] = np.nan
        sigma[0, 1:] = 1.0  # slack on the >= rows is feasible
        np.testing.assert_array_equal(sp.feasible(sigma, tols), [True] + [False] * 4)
        assert sp.feasible(sigma[0], tols) and not sp.feasible(sigma[4], tols)

    def test_transposed_view_gives_the_contiguous_verdicts(self):
        """The oracle passes its rows x bases residuals as the view ``S.T``,
        whose last axis is strided; the verdicts are those of a contiguous
        copy, equality rows and a NaN column included."""
        p = GeneralLP(c=[1.0, 1.0, 1.0], A_eq=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                      b_eq=[1.0, 2.0], lower=[0.0, 0.0, 0.0], upper=[1.0, 1.0, 1.0],
                      A_ineq=[[1.0, -1.0, 1.0]], b_ineq=[0.0])
        sp = to_standard_general(p)
        assert sp.m == 2
        tols = sp.feasibility_tolerances()
        rng = np.random.default_rng(0)
        S = np.abs(rng.standard_normal((sp.num_rows, 40)))  # rows x bases
        S[: sp.m] = rng.choice([0.0, 1e-12, -1e-12, 0.5, -0.5], size=(sp.m, 40))
        S[3, 5] = -1.0                 # an inequality row under
        S[:, 7] = np.nan               # a NaN column: a singular base
        S[0, 9] = np.nan
        S[:, 11] = 0.0                 # every row tight
        S[1, 12] = 2 * tols[1]         # an equality row over
        view = S.T
        assert not view.flags.c_contiguous
        got = sp.feasible(view, tols)
        want = sp.feasible(np.ascontiguousarray(view), tols)
        np.testing.assert_array_equal(got, want)
        assert want[11] and not want[[5, 7, 9, 12]].any()
        assert 0 < want.sum() < want.size

    def test_feasibility_tolerances(self):
        sp = to_standard_general(klee_minty_v2(3))
        np.testing.assert_array_equal(sp.feasibility_tolerances(), sp.row_tolerances())
        np.testing.assert_array_equal(sp.feasibility_tolerances(0.5),
                                      np.full(sp.num_rows, 0.5))


class TestObjectiveValue:
    def test_km1_optimum(self):
        p = klee_minty_v1(3)
        assert objective_value(p, np.array([0.0, 0.0, 125.0])) == -125.0

    def test_zero_point(self):
        p = klee_minty_v1(3)
        assert objective_value(p, np.zeros(3)) == 0.0

    def test_km2_optimum(self):
        p = klee_minty_v2(4)
        assert objective_value(p, np.array([0.0, 0.0, 0.0, 15.0])) == -15.0

    def test_offset_included(self):
        p = GeneralLP(c=[1.0], lower=[0.0], upper=[1.0], objective_offset=2.5)
        assert objective_value(p, np.array([1.0])) == 3.5


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(NonFiniteData):
            GeneralLP(c=[np.nan])

    def test_inf_in_matrix_rejected(self):
        with pytest.raises(NonFiniteData):
            GeneralLP(c=[1.0, 1.0], A_ineq=[[1.0, np.inf]], b_ineq=[0.0])

    def test_crossed_bounds_rejected(self):
        with pytest.raises(InconsistentBounds):
            GeneralLP(c=[1.0], lower=[2.0], upper=[1.0])

    @pytest.mark.parametrize("lower, upper", [
        ([np.inf], None), (None, [-np.inf]), ([np.inf], [np.inf]),
        ([-np.inf], [-np.inf]), ([0.0, np.inf], [1.0, np.inf]),
    ])
    def test_bounds_with_no_finite_value_rejected(self, lower, upper):
        c = [1.0] * len(lower or upper)
        with pytest.raises(InconsistentBounds):
            GeneralLP(c=c, lower=lower, upper=upper)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            GeneralLP(c=[1.0, 2.0], A_eq=[[1.0]], b_eq=[1.0])

    @pytest.mark.parametrize("field, value", [
        ("c", [[1.0], [2.0]]), ("b_eq", [[1.0]]), ("b_ineq", [[1.0]]),
    ])
    def test_vector_field_with_more_than_one_dimension_rejected(self, field, value):
        # c = [[1], [2]] used to build with d = 2, and b_eq = [[1]] to reach
        # the facet solver, which failed on it with a bare numpy error
        data = {"c": [1.0, 2.0], "A_eq": [[1.0, 1.0]], "b_eq": [1.0],
                "A_ineq": [[1.0, 0.0]], "b_ineq": [0.0]}
        data[field] = value
        with pytest.raises(DimensionMismatch, match=f"{field} has shape"):
            GeneralLP(**data, lower=[0.0, 0.0], upper=[1.0, 1.0])

    def test_default_big_m_tracks_data_magnitude(self):
        p = klee_minty_v2(5)  # largest rhs entry is 31
        assert default_big_m(p) == 1e7 * 31.0

    def test_artificial_bound_that_overflows_is_refused(self):
        """Only an infinite bound needs M; where 1e7 times the data's
        magnitude overflows, conversion refuses the problem, and with every
        bound finite it needs no M, however large the data."""
        huge = {"c": [1.0], "A_ineq": [[1.0]], "b_ineq": [1e302]}
        refused = "too large for an infinite bound: its artificial bound"
        with pytest.raises(NonFiniteData, match=refused):
            to_standard_general(GeneralLP(**huge))
        with pytest.raises(NonFiniteData, match=refused):
            to_standard_general(GeneralLP(c=[1.0], lower=[-np.inf], upper=[2e301]))
        sp = to_standard_general(GeneralLP(**huge, upper=[5e302]))
        assert not sp.artificial_rows
        np.testing.assert_array_equal(sp.b, [1e302, 0.0, -5e302])


class TestJsonFormat:
    def test_roundtrip_with_infinity_sentinels(self, tmp_path):
        p = GeneralLP(
            c=[1.0, -2.0],
            A_eq=[[1.0, 1.0]], b_eq=[3.0],
            A_ineq=[[2.0, -1.0]], b_ineq=[0.0],
            lower=[-np.inf, 0.0], upper=[np.inf, 4.0],
            names={"columns": ["a", "b"]},
        )
        doc = general_lp_to_dict(p)
        assert doc["lower"] == ["-inf", 0.0]
        assert doc["upper"] == ["inf", 4.0]
        q = general_lp_from_dict(doc)
        np.testing.assert_array_equal(q.c, p.c)
        np.testing.assert_array_equal(q.lower, p.lower)
        np.testing.assert_array_equal(q.upper, p.upper)

        path = tmp_path / "prob.json"
        save_general_lp(p, path)
        r = load_general_lp(path)
        np.testing.assert_array_equal(r.A_eq, p.A_eq)
        np.testing.assert_array_equal(r.b_ineq, p.b_ineq)
        assert r.names == p.names

    def test_bad_sentinel_rejected(self):
        with pytest.raises(NonFiniteData):
            general_lp_from_dict({"c": [1.0], "lower": ["oops"], "upper": [1.0]})

    @pytest.mark.parametrize("doc", [
        {}, {"c": 5}, {"c": ["a"]}, [1, 2], {"c": [1.0], "lower": [None]},
        {"c": [1.0], "b_ineq": [[1.0], [1.0, 2.0]]}, {"c": [10**400]},
        {"c": [1.0], "objective_offset": "a"},
    ], ids=["no-c", "c-int", "c-str", "list", "null-bound", "ragged", "huge-int",
            "offset-str"])
    def test_malformed_document_rejected(self, doc):
        with pytest.raises(MalformedInput, match="malformed problem document"):
            general_lp_from_dict(doc)

    @pytest.mark.parametrize("data", [b'{"c": [1.0]', gzip.compress(b'{"c": [1.0]}')],
                             ids=["truncated", "gzip"])
    def test_file_that_is_not_json_rejected(self, tmp_path, data):
        path = tmp_path / "x.json"
        path.write_bytes(data)
        with pytest.raises(MalformedInput, match="not a JSON document"):
            load_general_lp(path)


def _random_lp(d: int, m: int, n: int, seed: int) -> GeneralLP:
    """Float data, objective signs of both kinds (flipped bound rows) and
    infinite bounds (artificial rows)."""
    rng = np.random.default_rng(seed)
    lower = np.where(rng.random(d) < 0.3, -np.inf, rng.normal(size=d))
    upper = np.where(rng.random(d) < 0.3, np.inf, lower + rng.random(d) + 1.0)
    upper = np.where(np.isinf(lower), rng.normal(size=d), upper)
    return GeneralLP(
        c=rng.normal(size=d),
        A_eq=rng.normal(size=(m, d)), b_eq=rng.normal(size=m),
        A_ineq=rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1)),
        b_ineq=rng.normal(size=n),
        lower=lower, upper=upper,
    )


class TestResiduals:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 160),
        m=st.integers(0, 9),
        n=st.integers(0, 13),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=12, m=0, n=0, seed=0)
    @example(d=12, m=0, n=5, seed=1)
    @example(d=12, m=1, n=0, seed=2)
    @example(d=119, m=1, n=6, seed=3)
    @example(d=120, m=1, n=6, seed=4)
    @example(d=150, m=0, n=0, seed=5)
    @example(d=121, m=0, n=1, seed=6)
    @example(d=60, m=3, n=6, seed=7)
    def test_equal_to_the_full_product(self, d, m, n, seed):
        """General rows: bit for bit G x - b; bound rows: exactly +-x - b,
        over every g = m + n, zero and off a multiple of four included."""
        p = _random_lp(d, m, n, seed)
        sp = to_standard_general(p)
        g = m + n
        rng = np.random.default_rng([seed, 1])
        plus = sp.e_diag > 0
        for scale in (1.0, 1e3, default_big_m(p)):
            x = rng.normal(scale=scale, size=d)
            got = residuals(sp, x)
            assert got.shape == (sp.num_rows,)
            assert (got[:g] == sp.G @ x - sp.b[:g]).all()
            bound_x = np.concatenate([np.where(plus, x, -x), np.where(plus, -x, x)])
            assert (got[g:] == bound_x - sp.b[g:]).all()


class TestRows:
    @pytest.mark.parametrize("d, m, n", [(1, 0, 0), (3, 0, 5), (5, 2, 0), (7, 2, 9),
                                         (12, 1, 6)])
    def test_equal_to_the_dense_stacked_rows(self, d, m, n):
        """For random index sets, and single indices, the rows built are the
        rows of the dense stacked matrix, bit for bit, as are the row norms."""
        p = _random_lp(d, m, n, seed=d + m + n)
        sp = to_standard_general(p)
        stacked = _stacked(p, sp)
        assert stacked.shape == (sp.num_rows, d)
        rng = np.random.default_rng(d)
        for _ in range(30):
            idx = rng.choice(sp.num_rows, size=int(rng.integers(1, d + 1)), replace=False)
            got = sp.rows(idx)
            assert got.shape == (idx.size, d) and got.flags.c_contiguous
            np.testing.assert_array_equal(got, stacked[idx])
            i = int(idx[0])
            np.testing.assert_array_equal(sp.rows(i), stacked[i])
        np.testing.assert_array_equal(sp.rows(np.arange(sp.num_rows)), stacked)
        np.testing.assert_array_equal(sp.row_norms(), np.linalg.norm(stacked, axis=1))

    def test_dense_deck_stores_no_bound_block(self):
        """At d = 400 the stacked form's arrays hold the general rows and
        vectors only: at most 8 ((m + n) d + 4 N) bytes, counting the whole
        buffer of any view, so no (2d) x d block of bound rows is kept."""
        d = 400
        sp = to_standard_general(workloads.dense_lp(np.random.default_rng(0), d))
        held = 0
        for f in dataclasses.fields(sp):
            v = getattr(sp, f.name)
            if isinstance(v, np.ndarray):
                held += (v if v.base is None else v.base).nbytes
        assert held <= 8 * ((sp.m + sp.n) * d + 4 * sp.num_rows)
