import numpy as np
import pytest

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
    for d in (2, linalg.QR_UPDATE_MIN_D):
        f = linalg.factor(np.eye(d))
        for bad in (np.ones(d + 1), np.ones((d + 1, 2)), np.ones((d, 2, 1))):
            for solve in (f.solve, f.solve_transpose):
                with pytest.raises(DimensionMismatch):
                    solve(bad)


def test_non_finite_input_raises():
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError):
            linalg.factor(m)


def _well_conditioned(rng, d):
    return rng.integers(-9, 10, size=(d, d)).astype(float) + 20.0 * np.eye(d)


@pytest.mark.parametrize("d", [0, 5, linalg.QR_UPDATE_MIN_D - 1, linalg.QR_UPDATE_MIN_D])
def test_block_solves_match_one_column_at_a_time(d):
    # not bitwise: a block runs through other BLAS kernels than a vector
    rng = np.random.default_rng(d + 23)
    f = linalg.factor(_well_conditioned(rng, d))
    assert (f.q is None) == (d < linalg.QR_UPDATE_MIN_D)
    block = rng.normal(size=(d, 7))
    for solve in (f.solve, f.solve_transpose):
        got = solve(block)
        assert got.shape == (d, 7)
        for j in range(7):
            np.testing.assert_allclose(got[:, j], solve(block[:, j]), rtol=1e-10)


def test_replace_row_below_crossover_matches_a_fresh_factorization_bitwise():
    rng = np.random.default_rng(5)
    d = linalg.QR_UPDATE_MIN_D - 1
    m = _well_conditioned(rng, d)
    f = linalg.factor(m)
    m_new = m.copy()
    m_new[4] = rng.integers(-9, 10, size=d)
    g = linalg.replace_row(f, 4, m_new[4] - m[4], m_new)
    fresh = linalg.factor(m_new)
    np.testing.assert_array_equal(g.lu, fresh.lu)
    np.testing.assert_array_equal(g.piv, fresh.piv)
    assert linalg.refactor(g, m_new) is g


@pytest.mark.parametrize("d", [linalg.QR_UPDATE_MIN_D, 2 * linalg.QR_UPDATE_MIN_D])
def test_chained_row_replacements_keep_solves_accurate(d):
    rng = np.random.default_rng(d)
    m = _well_conditioned(rng, d)
    f = linalg.factor(m)
    for _ in range(60):
        slot = int(rng.integers(d))
        m_new = m.copy()
        m_new[slot] = rng.integers(-9, 10, size=d)
        m_new[slot, slot] += 20.0
        f = linalg.replace_row(f, slot, m_new[slot] - m[slot], m_new)
        m = m_new
        assert not f.singular
        r = rng.normal(size=d)
        assert np.max(np.abs(m @ f.solve(r) - r)) <= 1e-10
        assert np.max(np.abs(m.T @ f.solve_transpose(r) - r)) <= 1e-10
    assert f.updates == 60
    fresh = linalg.refactor(f, m)
    assert fresh.updates == 0
    assert linalg.refactor(fresh, m) is fresh


@pytest.mark.parametrize("d", [linalg.QR_UPDATE_MIN_D, 2 * linalg.QR_UPDATE_MIN_D])
def test_replacing_a_row_by_a_copy_of_another_is_singular(d):
    rng = np.random.default_rng(d + 1)
    m = _well_conditioned(rng, d)
    f = linalg.factor(m)
    m_new = m.copy()
    m_new[3] = m[7]
    g = linalg.replace_row(f, 3, m_new[3] - m[3], m_new)
    assert g.singular
    with pytest.raises(SingularMatrix):
        g.solve(np.ones(d))
    with pytest.raises(SingularMatrix):
        g.solve_transpose(np.ones(d))


def test_near_singular_update_is_refactored_from_scratch():
    d = linalg.QR_UPDATE_MIN_D
    rng = np.random.default_rng(11)
    m = _well_conditioned(rng, d)
    f = linalg.factor(m)
    m_new = m.copy()
    m_new[3] = m[7]
    m_new[3, 0] += 1e-8
    g = linalg.replace_row(f, 3, m_new[3] - m[3], m_new)
    assert g.near_singular and not g.singular
    assert g.updates == 0
    r = rng.normal(size=d)
    assert np.max(np.abs(m_new @ g.solve(r) - r)) <= 1e-6 * np.max(np.abs(g.solve(r)))


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
