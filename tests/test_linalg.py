import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetlp import linalg
from facetlp.errors import DimensionMismatch, SingularMatrix


def test_identity_factors_to_identity_permutation():
    f = linalg.factor(np.eye(3))
    assert not f.singular
    np.testing.assert_array_equal(f.piv, [0, 1, 2])
    np.testing.assert_allclose(f.solve(np.array([1.0, 0.0, 0.0])), [1, 0, 0])


def test_permutation_matrix_solve():
    f = linalg.factor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(f.solve(np.array([1.0, 2.0])), [2.0, 1.0])


def test_negated_diagonal_solve():
    # the bound block of a cube instance whose objective is all-negative
    f = linalg.factor(np.diag([-1.0, -1.0, -1.0]))
    b_l = np.array([-10.0, -10.0, -10.0])
    np.testing.assert_allclose(f.solve(b_l), -b_l)


def test_diagonal_transpose_solve():
    f = linalg.factor(np.diag([2.0, 4.0]))
    np.testing.assert_allclose(f.solve_transpose(np.array([2.0, 4.0])), [1.0, 1.0])


def test_upper_triangular_transpose_solve():
    # M^T y = (1, 2) for M = [[1, 1], [0, 1]] gives y = (1, 1)
    f = linalg.factor(np.array([[1.0, 1.0], [0.0, 1.0]]))
    np.testing.assert_allclose(f.solve_transpose(np.array([1.0, 2.0])), [1.0, 1.0])


def test_solve_residuals_on_random_well_conditioned_systems():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
        f = linalg.factor(m)
        r = rng.normal(size=6)
        assert np.max(np.abs(m @ f.solve(r) - r)) < 1e-10
        assert np.max(np.abs(m.T @ f.solve_transpose(r) - r)) < 1e-10


def test_factor_is_deterministic():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 5))
    f1, f2 = linalg.factor(m), linalg.factor(m)
    np.testing.assert_array_equal(f1.lu, f2.lu)
    np.testing.assert_array_equal(f1.piv, f2.piv)


def test_singular_matrix_flagged_and_refuses_to_solve():
    f = linalg.factor(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert f.singular
    assert f.bad_pivot_index is not None
    with pytest.raises(SingularMatrix):
        f.solve(np.array([1.0, 2.0]))
    with pytest.raises(SingularMatrix):
        f.solve_transpose(np.array([1.0, 2.0]))


def test_near_singular_flag_does_not_block_solves():
    f = linalg.factor(np.diag([1.0, 1e-10]))
    assert not f.singular
    assert f.near_singular
    np.testing.assert_allclose(f.solve(np.array([1.0, 1e-10])), [1.0, 1.0])


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        linalg.factor(np.ones((2, 3)))
    for f in (linalg.factor(np.eye(2)), _updated(np.random.default_rng(2), 3)[0]):
        d = f.dimension
        # a (d, k) block is refused like any other shape but (d,)
        for bad in (np.ones(d + 1), np.ones((d, 2)), np.ones((d + 1, 2)),
                    np.ones((d, 2, 1))):
            for solve in (f.solve, f.solve_transpose):
                with pytest.raises(DimensionMismatch):
                    solve(bad)
        if f.updates:
            with pytest.raises(DimensionMismatch):
                linalg.replace_row(f, 0, np.ones(d + 1), np.eye(d))


def test_non_finite_input_raises():
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError):
            linalg.factor(m)


def _well_conditioned(rng, d, diagonal=20.0):
    return rng.integers(-9, 10, size=(d, d)).astype(float) + diagonal * np.eye(d)


def _replace(rng, f, m, slot, diagonal=20.0):
    """Replace row ``slot`` of ``m`` by a random row with ``diagonal`` added
    at the slot, as a pivot does: the expansion y comes from ``f``."""
    m_new = m.copy()
    m_new[slot] = rng.integers(-9, 10, size=m.shape[0])
    m_new[slot, slot] += diagonal
    return linalg.replace_row(f, slot, f.solve_transpose(m_new[slot]), m_new), m_new


def _updated(rng, count, d=linalg.INVERSE_MIN_D):
    """An inverse updated by ``count`` row replacements, and the matrix it
    inverts."""
    m = _well_conditioned(rng, d)
    f = linalg.factor(m)
    for _ in range(count):
        f, m = _replace(rng, f, m, int(rng.integers(d)))
    assert f.updates == count
    return f, m


def test_replace_row_below_crossover_matches_a_fresh_factorization_bitwise():
    rng = np.random.default_rng(5)
    d = linalg.INVERSE_MIN_D - 1
    m = _well_conditioned(rng, d)
    g, m_new = _replace(rng, linalg.factor(m), m, 4)
    fresh = linalg.factor(m_new)
    np.testing.assert_array_equal(g.lu, fresh.lu)
    np.testing.assert_array_equal(g.piv, fresh.piv)
    assert g.inv is None and g.updates == 0
    assert linalg.refactor(g, m_new) is g


def test_replace_row_consumes_its_argument_only_when_it_updates():
    rng = np.random.default_rng(19)
    d = linalg.INVERSE_MIN_D
    m = _well_conditioned(rng, d, diagonal=10.0 * d)
    r = rng.normal(size=d)
    # an update writes the new inverse over the argument's, so the argument
    # then solves the new matrix, with the same bits as the result
    f = linalg.factor(m)
    held = f.inv.copy()
    g, m_new = _replace(rng, f, m, 4, diagonal=10.0 * d)
    assert g.inv is f.inv and g.updates == 1 and f.updates == 0
    assert not np.array_equal(f.inv, held)
    np.testing.assert_array_equal(f.solve(r), g.solve(r))
    assert np.max(np.abs(m_new @ f.solve(r) - r)) <= 1e-10
    # a fresh factorization, for a tiny y[s] or below the crossover, leaves
    # the argument as it was
    f = linalg.factor(m)
    held = f.inv.copy()
    assert linalg.replace_row(f, 4, np.zeros(d), m_new).updates == 0
    np.testing.assert_array_equal(f.inv, held)
    f = linalg.factor(m[:-1, :-1])
    held = f.lu.copy()
    linalg.replace_row(f, 4, np.ones(d - 1), m_new[:-1, :-1])
    np.testing.assert_array_equal(f.lu, held)


@pytest.mark.parametrize("d", [64, 128])
def test_chained_row_replacements_keep_solves_accurate(d):
    # strictly diagonally dominant throughout, so the 1e-10 residual bound
    # holds on any seed; the solver refreshes an inverse only when a check
    # trips, so one inverse takes every update of a solve: about 700 on a
    # d=180 dense LP
    rng = np.random.default_rng(d)
    m = _well_conditioned(rng, d, diagonal=10.0 * d)
    f = linalg.factor(m)
    inv = f.inv
    for k in range(400):
        f, m = _replace(rng, f, m, int(rng.integers(d)), diagonal=10.0 * d)
        assert f.inv is inv and f.updates == k + 1
        assert not f.singular
        r = rng.normal(size=d)
        assert np.max(np.abs(m @ f.solve(r) - r)) <= 1e-10
        assert np.max(np.abs(m.T @ f.solve_transpose(r) - r)) <= 1e-10
    fresh = linalg.refactor(f, m)
    assert fresh.updates == 0
    want = linalg.factor(m)
    np.testing.assert_array_equal(fresh.inv, want.inv)
    assert (fresh.singular, fresh.near_singular) == (want.singular, want.near_singular)
    assert linalg.refactor(fresh, m) is fresh


@pytest.mark.parametrize("d", [64, 128])
def test_replacing_a_row_by_a_copy_of_another_is_singular(d):
    rng = np.random.default_rng(d + 1)
    f, m = _updated(rng, 2, d)
    m_new = m.copy()
    m_new[3] = m[7]
    g = linalg.replace_row(f, 3, f.solve_transpose(m_new[3]), m_new)
    assert g.singular
    assert g.inv is None and g.updates == 0
    with pytest.raises(SingularMatrix):
        g.solve(np.ones(d))
    with pytest.raises(SingularMatrix):
        g.solve_transpose(np.ones(d))


def test_near_singular_update_is_refactored_from_scratch():
    d = linalg.INVERSE_MIN_D
    rng = np.random.default_rng(11)
    f, m = _updated(rng, 2, d)
    m_new = m.copy()
    m_new[3] = m[7]
    m_new[3, 0] += 1e-8
    g = linalg.replace_row(f, 3, f.solve_transpose(m_new[3]), m_new)
    assert g.near_singular and not g.singular
    assert g.updates == 0
    r = rng.normal(size=d)
    assert np.max(np.abs(m_new @ g.solve(r) - r)) <= 1e-6 * np.max(np.abs(g.solve(r)))


def test_tiny_eta_pivot_refactors_from_scratch():
    # the eta's pivot y[s] is tested against NEAR_SINGULAR_FACTOR * TOL_PIVOT
    # times the largest |y|; at or below it, or not finite, the swap is
    # factored from scratch, whatever the matrix passed in
    slot = 5
    threshold = linalg.NEAR_SINGULAR_FACTOR * linalg.TOL_PIVOT * 4.0
    cases = {threshold: 0, -threshold: 0, np.nextafter(threshold, 1.0): 3,
             np.nan: 0, np.inf: 0}
    for pivot, updates in cases.items():
        # an update consumes its argument, so every case starts afresh
        rng = np.random.default_rng(13)
        f, _ = _updated(rng, 2)
        d = f.dimension
        m_new = _well_conditioned(rng, d)
        y = np.linspace(-4.0, 4.0, d)
        y[slot] = pivot
        g = linalg.replace_row(f, slot, y, m_new)
        assert g.updates == updates, pivot
        if not updates:
            np.testing.assert_array_equal(g.inv, linalg.factor(m_new).inv)
        else:
            assert g.inv is f.inv


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    d=st.integers(linalg.INVERSE_MIN_D, linalg.INVERSE_MIN_D + 24),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 200),
)
def test_random_chains_of_row_replacements_stay_accurate(d, seed, length):
    # strictly diagonally dominant throughout, so the bound holds for any LU
    # solve and a miss is the inverse update's; the length is drawn as an
    # integer because hypothesis keeps drawn lists short
    rng = np.random.default_rng(seed)
    m = _well_conditioned(rng, d, diagonal=10.0 * d)
    f = linalg.factor(m)
    for i in range(length):
        f, m = _replace(rng, f, m, int(rng.integers(d)), diagonal=10.0 * d)
        assert f.updates == i + 1
        r = rng.normal(size=d)
        assert np.max(np.abs(m @ f.solve(r) - r)) <= 1e-10
        assert np.max(np.abs(m.T @ f.solve_transpose(r) - r)) <= 1e-10


def test_crossover_script_measures_both_paths():
    path = Path(__file__).resolve().parents[1] / "scripts" / "inverse_crossover.py"
    spec = importlib.util.spec_from_file_location("inverse_crossover", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    min_d_before = linalg.INVERSE_MIN_D
    lu_us, inv_us = script.measure(8, rounds=1, reps=2)
    assert 0.0 < lu_us < 1e6 and 0.0 < inv_us < 1e6
    assert linalg.INVERSE_MIN_D == min_d_before


def _flags_by_scan(row_sums, diagonal):
    """The singularity flags as computed before they were read off the
    smallest pivot: every pivot at or below the threshold is listed."""
    norm = np.max(row_sums) if row_sums.shape[0] else 0.0
    pivots = np.abs(diagonal)
    threshold = linalg.TOL_PIVOT * max(norm, np.finfo(float).tiny)
    bad = np.flatnonzero(pivots <= threshold)
    singular = bad.size > 0
    near = bool(not singular and np.any(pivots <= linalg.NEAR_SINGULAR_FACTOR * threshold))
    return singular, near, int(bad[0]) if singular else None


def test_flags_match_a_scan_of_every_pivot():
    rng = np.random.default_rng(17)
    cases = [(np.zeros(0), np.zeros(0)), (np.zeros(3), np.zeros(3))]
    for _ in range(400):
        d = int(rng.integers(1, 9))
        row_sums = rng.uniform(0.5, 50.0, size=d)
        threshold = linalg.TOL_PIVOT * row_sums.max()
        # pivots well clear, near singular, exactly at either threshold,
        # below it, and exact zeros, in any mix and any number
        menu = np.array([1.0, 1e-2, 3e-10 * row_sums.max(), threshold,
                         linalg.NEAR_SINGULAR_FACTOR * threshold, 0.5 * threshold, 0.0])
        diagonal = rng.choice(menu, size=d) * rng.choice([-1.0, 1.0], size=d)
        cases.append((row_sums, diagonal))
    seen = set()
    for row_sums, diagonal in cases:
        f = linalg._flagged(row_sums, diagonal)
        want = _flags_by_scan(row_sums, diagonal)
        assert (f.singular, f.near_singular, f.bad_pivot_index) == want
        assert f.dimension == row_sums.shape[0]
        seen.add(want[:2])
    assert seen == {(True, False), (False, True), (False, False)}
