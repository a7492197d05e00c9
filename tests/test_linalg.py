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
    for f in (linalg.factor(np.eye(2)), _with_etas(np.random.default_rng(2), 3)[0]):
        d = f.dimension
        for bad in (np.ones(d + 1), np.ones((d + 1, 2)), np.ones((d, 2, 1))):
            for solve in (f.solve, f.solve_transpose):
                with pytest.raises(DimensionMismatch):
                    solve(bad)
        if f.etas:
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


def _with_etas(rng, count, d=linalg.ETA_MIN_D):
    """A factorization carrying ``count`` etas, and the matrix it factors."""
    m = _well_conditioned(rng, d)
    f = linalg.factor(m)
    for _ in range(count):
        f, m = _replace(rng, f, m, int(rng.integers(d)))
    assert len(f.etas) == count
    return f, m


@pytest.mark.parametrize("d", [0, 5, linalg.ETA_MIN_D - 1, linalg.ETA_MIN_D])
def test_block_solves_match_one_column_at_a_time(d):
    # not bitwise: a block runs through other BLAS kernels than a vector;
    # strictly diagonally dominant, so the 1e-10 residual bound holds
    rng = np.random.default_rng(d + 23)
    m = _well_conditioned(rng, d, diagonal=10.0 * d)
    f = linalg.factor(m)
    # from the crossover up the block solves run through an eta file
    etas = 3 if d >= linalg.ETA_MIN_D else 0
    for slot in range(etas):
        f, m = _replace(rng, f, m, slot, diagonal=10.0 * d)
    assert len(f.etas) == etas
    block = rng.normal(size=(d, 7))
    for solve in (f.solve, f.solve_transpose):
        got = solve(block)
        assert got.shape == (d, 7)
        for j in range(7):
            np.testing.assert_allclose(got[:, j], solve(block[:, j]), rtol=1e-10)
    assert np.max(np.abs(m @ f.solve(block) - block), initial=0.0) <= 1e-10
    assert np.max(np.abs(m.T @ f.solve_transpose(block) - block), initial=0.0) <= 1e-10


def test_replace_row_below_crossover_matches_a_fresh_factorization_bitwise():
    rng = np.random.default_rng(5)
    d = linalg.ETA_MIN_D - 1
    m = _well_conditioned(rng, d)
    g, m_new = _replace(rng, linalg.factor(m), m, 4)
    fresh = linalg.factor(m_new)
    np.testing.assert_array_equal(g.lu, fresh.lu)
    np.testing.assert_array_equal(g.piv, fresh.piv)
    assert g.etas == ()
    assert linalg.refactor(g, m_new) is g


@pytest.mark.parametrize("d", [64, 128])
def test_chained_row_replacements_keep_solves_accurate(d):
    # strictly diagonally dominant throughout, so the 1e-10 residual bound
    # holds on any seed
    rng = np.random.default_rng(d)
    m = _well_conditioned(rng, d, diagonal=10.0 * d)
    f = linalg.factor(m)
    fresh_lus = 0
    for _ in range(60):
        lu = f.lu
        f, m = _replace(rng, f, m, int(rng.integers(d)), diagonal=10.0 * d)
        fresh_lus += f.lu is not lu
        assert not f.singular
        r = rng.normal(size=d)
        assert np.max(np.abs(m @ f.solve(r) - r)) <= 1e-10
        assert np.max(np.abs(m.T @ f.solve_transpose(r) - r)) <= 1e-10
    # a full file of ETA_CAP etas is dropped for a fresh LU at the next swap
    assert fresh_lus == 60 // (linalg.ETA_CAP + 1)
    assert len(f.etas) == 60 % (linalg.ETA_CAP + 1)
    fresh = linalg.refactor(f, m)
    assert fresh.etas == ()
    np.testing.assert_array_equal(fresh.lu, linalg.factor(m).lu)
    assert linalg.refactor(fresh, m) is fresh


@pytest.mark.parametrize("d", [64, 128])
def test_replacing_a_row_by_a_copy_of_another_is_singular(d):
    rng = np.random.default_rng(d + 1)
    f, m = _with_etas(rng, 2, d)
    m_new = m.copy()
    m_new[3] = m[7]
    g = linalg.replace_row(f, 3, f.solve_transpose(m_new[3]), m_new)
    assert g.singular
    assert g.etas == ()
    with pytest.raises(SingularMatrix):
        g.solve(np.ones(d))
    with pytest.raises(SingularMatrix):
        g.solve_transpose(np.ones(d))


def test_near_singular_update_is_refactored_from_scratch():
    d = linalg.ETA_MIN_D
    rng = np.random.default_rng(11)
    f, m = _with_etas(rng, 2, d)
    m_new = m.copy()
    m_new[3] = m[7]
    m_new[3, 0] += 1e-8
    g = linalg.replace_row(f, 3, f.solve_transpose(m_new[3]), m_new)
    assert g.near_singular and not g.singular
    assert g.etas == ()
    r = rng.normal(size=d)
    assert np.max(np.abs(m_new @ g.solve(r) - r)) <= 1e-6 * np.max(np.abs(g.solve(r)))


def test_tiny_eta_pivot_refactors_from_scratch():
    # the eta's pivot y[s] is tested against NEAR_SINGULAR_FACTOR * TOL_PIVOT
    # times the largest |y|; at or below it, or not finite, the swap is
    # factored from scratch, whatever the matrix passed in
    rng = np.random.default_rng(13)
    f, _ = _with_etas(rng, 2)
    d, slot = f.dimension, 5
    m_new = _well_conditioned(rng, d)
    threshold = linalg.NEAR_SINGULAR_FACTOR * linalg.TOL_PIVOT * 4.0
    cases = {threshold: 0, -threshold: 0, np.nextafter(threshold, 1.0): 3,
             np.nan: 0, np.inf: 0}
    for pivot, etas in cases.items():
        y = np.linspace(-4.0, 4.0, d)
        y[slot] = pivot
        g = linalg.replace_row(f, slot, y, m_new)
        assert len(g.etas) == etas, pivot
        if not etas:
            np.testing.assert_array_equal(g.lu, linalg.factor(m_new).lu)
        else:
            assert g.lu is f.lu


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    d=st.integers(linalg.ETA_MIN_D, linalg.ETA_MIN_D + 24),
    seed=st.integers(0, 2**32 - 1),
    slots=st.lists(st.integers(0, 10**6), min_size=1, max_size=2 * linalg.ETA_CAP + 3),
    k=st.integers(1, 5),
)
def test_random_chains_of_row_replacements_stay_accurate(d, seed, slots, k):
    # strictly diagonally dominant throughout, so the bound holds for any LU
    # solve and a miss is the eta file's
    rng = np.random.default_rng(seed)
    m = _well_conditioned(rng, d, diagonal=10.0 * d)
    f = linalg.factor(m)
    for slot in slots:
        f, m = _replace(rng, f, m, slot % d, diagonal=10.0 * d)
        assert len(f.etas) <= linalg.ETA_CAP
        r = rng.normal(size=(d, k))
        for rhs in (r, r[:, 0]):
            assert np.max(np.abs(m @ f.solve(rhs) - rhs)) <= 1e-10
            assert np.max(np.abs(m.T @ f.solve_transpose(rhs) - rhs)) <= 1e-10


def test_crossover_script_measures_both_paths():
    path = Path(__file__).resolve().parents[1] / "scripts" / "eta_crossover.py"
    spec = importlib.util.spec_from_file_location("eta_crossover", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    settings_before = (linalg.ETA_MIN_D, linalg.ETA_CAP)
    lu_us, (eta_us,) = script.measure(8, rounds=1, reps=2)
    assert 0.0 < lu_us < 1e6 and 0.0 < eta_us < 1e6
    assert (linalg.ETA_MIN_D, linalg.ETA_CAP) == settings_before


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
