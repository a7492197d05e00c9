import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetlp import linalg
from facetlp.errors import DimensionMismatch, SingularMatrix


def test_identity_factors_to_identity_permutation():
    f = linalg.factor(np.eye(3))
    np.testing.assert_array_equal(f.inv, np.eye(3))
    np.testing.assert_allclose(linalg.solve(f, np.array([1.0, 0.0, 0.0])), [1, 0, 0])


def test_permutation_matrix_solve():
    f = linalg.factor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(linalg.solve(f, np.array([1.0, 2.0])), [2.0, 1.0])


def test_negated_diagonal_solve():
    # the bound block of a cube instance whose objective is all-negative
    f = linalg.factor(np.diag([-1.0, -1.0, -1.0]))
    b_l = np.array([-10.0, -10.0, -10.0])
    np.testing.assert_allclose(linalg.solve(f, b_l), -b_l)


@pytest.mark.parametrize("d", [1, 3, 8, 60])
def test_signed_identity_is_its_own_inverse(d):
    rng = np.random.default_rng(d)
    signs = np.where(rng.random(d) < 0.5, -1.0, 1.0)
    f = linalg.signed_identity(signs)
    assert (f.dimension, f.near_singular) == (d, False)
    assert f.inv.flags.f_contiguous
    np.testing.assert_array_equal(f.inv, np.diag(signs))
    np.testing.assert_array_equal(f.inv, linalg.factor(np.diag(signs)).inv)
    r = rng.normal(size=d)
    np.testing.assert_array_equal(linalg.solve(f, r), signs * r)
    np.testing.assert_array_equal(linalg.solve_transpose(f, r), signs * r)
    # a row replacement updates it in place and solves the new matrix
    m = np.diag(signs)
    m[0] = rng.normal(size=d)
    m[0, 0] += 4.0 * signs[0]
    inv = f.inv
    assert linalg.replace_row(f, 0, linalg.solve_transpose(f, m[0])) is True
    assert f.inv is inv
    np.testing.assert_allclose(m @ linalg.solve(f, r), r, rtol=0, atol=1e-12)


def test_diagonal_transpose_solve():
    f = linalg.factor(np.diag([2.0, 4.0]))
    np.testing.assert_allclose(linalg.solve_transpose(f, np.array([2.0, 4.0])), [1.0, 1.0])


def test_upper_triangular_transpose_solve():
    # M^T y = (1, 2) for M = [[1, 1], [0, 1]] gives y = (1, 1)
    f = linalg.factor(np.array([[1.0, 1.0], [0.0, 1.0]]))
    np.testing.assert_allclose(linalg.solve_transpose(f, np.array([1.0, 2.0])), [1.0, 1.0])


def test_solve_residuals_on_random_well_conditioned_systems():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
        f = linalg.factor(m)
        r = rng.normal(size=6)
        assert np.max(np.abs(m @ linalg.solve(f, r) - r)) < 1e-10
        assert np.max(np.abs(m.T @ linalg.solve_transpose(f, r) - r)) < 1e-10


def test_factor_is_deterministic():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 5))
    f1, f2 = linalg.factor(m), linalg.factor(m)
    assert f1.inv.tobytes() == f2.inv.tobytes()


def test_singular_matrix_raises_from_factor():
    # the LU's diagonal is (1, 0): the pivot in position 1 is the bad one
    with pytest.raises(SingularMatrix, match=r"^matrix is singular \(pivot 1\)$") as exc:
        linalg.factor(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert exc.value.pivot_index == 1


def test_near_singular_flag_does_not_block_solves():
    f = linalg.factor(np.diag([1.0, 1e-10]))
    assert f.near_singular
    np.testing.assert_allclose(linalg.solve(f, np.array([1.0, 1e-10])), [1.0, 1.0])


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        linalg.factor(np.ones((2, 3)))


def test_empty_matrix_is_refused():
    with pytest.raises(DimensionMismatch):
        linalg.factor(np.zeros((0, 0)))


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
    at the slot, as a pivot does, and return the new matrix: ``f`` is
    updated in place to stand for it, from the expansion y that ``f``
    gives."""
    m_new = m.copy()
    m_new[slot] = rng.integers(-9, 10, size=m.shape[0])
    m_new[slot, slot] += diagonal
    assert linalg.replace_row(f, slot, linalg.solve_transpose(f, m_new[slot])) is True
    return m_new


def _updated(rng, count, d):
    """A d-by-d inverse updated by ``count`` row replacements, and the
    matrix it inverts."""
    m = _well_conditioned(rng, d)
    f = linalg.factor(m)
    for _ in range(count):
        m = _replace(rng, f, m, int(rng.integers(d)))
    return f, m


def test_replace_row_consumes_its_argument_only_when_it_updates():
    rng = np.random.default_rng(19)
    d = 8
    m = _well_conditioned(rng, d, diagonal=10.0 * d)
    r = rng.normal(size=d)
    # an update writes the new inverse over the argument's, so the argument
    # then solves the new matrix
    f = linalg.factor(m)
    inv, held = f.inv, f.inv.copy()
    m_new = _replace(rng, f, m, 4, diagonal=10.0 * d)
    assert f.inv is inv and not np.array_equal(f.inv, held)
    assert np.max(np.abs(m_new @ linalg.solve(f, r) - r)) <= 1e-10
    # declining, for a tiny y[s], leaves the argument as it was
    f = linalg.factor(m)
    held = f.inv.copy()
    assert linalg.replace_row(f, 4, np.zeros(d)) is False
    np.testing.assert_array_equal(f.inv, held)


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
    for _ in range(400):
        m = _replace(rng, f, m, int(rng.integers(d)), diagonal=10.0 * d)
        assert f.inv is inv
        r = rng.normal(size=d)
        assert np.max(np.abs(m @ linalg.solve(f, r) - r)) <= 1e-10
        assert np.max(np.abs(m.T @ linalg.solve_transpose(f, r) - r)) <= 1e-10
    fresh = linalg.factor(m)
    want = linalg.factor(m)
    np.testing.assert_array_equal(fresh.inv, want.inv)
    assert fresh.near_singular == want.near_singular


@pytest.mark.parametrize("d", [64, 128])
def test_replacing_a_row_by_a_copy_of_another_is_singular(d):
    rng = np.random.default_rng(d + 1)
    f, m = _updated(rng, 2, d)
    m_new = m.copy()
    m_new[3] = m[7]
    assert linalg.replace_row(f, 3, linalg.solve_transpose(f, m_new[3])) is False
    with pytest.raises(SingularMatrix):
        linalg.factor(m_new)


def test_near_singular_update_is_refactored_from_scratch():
    for d in (3, 8, 32):
        rng = np.random.default_rng(11)
        f, m = _updated(rng, 2, d)
        m_new = m.copy()
        m_new[1] = m[d - 1]
        m_new[1, 0] += 1e-8
        assert linalg.replace_row(f, 1, linalg.solve_transpose(f, m_new[1])) is False, d
        g = linalg.factor(m_new)
        assert g.near_singular, d
        r = rng.normal(size=d)
        x = linalg.solve(g, r)
        assert np.max(np.abs(m_new @ x - r)) <= 1e-6 * np.max(np.abs(x)), d


def test_tiny_eta_pivot_refactors_from_scratch():
    # the eta's pivot y[s] is tested against NEAR_SINGULAR_FACTOR * TOL_PIVOT
    # times the largest |y|; at or below it, or not finite, replace_row
    # declines and leaves the inverse as it was
    slot = 1
    threshold = linalg.NEAR_SINGULAR_FACTOR * linalg.TOL_PIVOT * 4.0
    cases = {threshold: False, -threshold: False, np.nextafter(threshold, 1.0): True,
             np.nan: False, np.inf: False}
    for d, (pivot, updates) in itertools.product((3, 8, 32), cases.items()):
        # an update consumes its argument, so every case starts afresh
        rng = np.random.default_rng(13)
        f, _ = _updated(rng, 2, d)
        inv, held = f.inv, f.inv.copy()
        y = np.linspace(-4.0, 4.0, d)
        y[slot] = pivot
        assert linalg.replace_row(f, slot, y) is updates, (d, pivot)
        assert f.inv is inv, (d, pivot)
        if not updates:
            np.testing.assert_array_equal(f.inv, held)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    d=st.sampled_from([1, 2, 3, 8, 20, 31, 32, 56]),
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
    for _ in range(length):
        m = _replace(rng, f, m, int(rng.integers(d)), diagonal=10.0 * d)
        r = rng.normal(size=d)
        assert np.max(np.abs(m @ linalg.solve(f, r) - r)) <= 1e-10
        assert np.max(np.abs(m.T @ linalg.solve_transpose(f, r) - r)) <= 1e-10


def _flags_by_scan(row_sums, diagonal):
    """Whether the pivots are singular or near singular, and the first bad
    pivot, from a scan that lists every pivot at or below the threshold."""
    norm = np.max(row_sums) if row_sums.shape[0] else 0.0
    pivots = np.abs(diagonal)
    threshold = linalg.TOL_PIVOT * max(norm, np.finfo(float).tiny)
    bad = np.flatnonzero(pivots <= threshold)
    singular = bad.size > 0
    near = bool(not singular and np.any(pivots <= linalg.NEAR_SINGULAR_FACTOR * threshold))
    return singular, near, int(bad[0]) if singular else None


def test_flags_match_a_scan_of_every_pivot():
    rng = np.random.default_rng(17)
    cases = [(np.zeros(3), np.zeros(3))]
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
        singular, near, bad = _flags_by_scan(row_sums, diagonal)
        if singular:
            with pytest.raises(SingularMatrix) as exc:
                linalg._near_singular(row_sums, diagonal)
            assert exc.value.pivot_index == bad
            assert str(exc.value) == f"matrix is singular (pivot {bad})"
        else:
            assert linalg._near_singular(row_sums, diagonal) is near
        seen.add((singular, near))
    assert seen == {(True, False), (False, True), (False, False)}


SRC = Path(__file__).resolve().parents[1] / "src"


def _in_fresh_interpreter(code: str) -> None:
    """Run ``code`` in a new interpreter with ``src`` on the path; fail with
    its stderr if it raises."""
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
    done = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_loads_neither_scipy_linalg_nor_f2py():
    _in_fresh_interpreter(
        "import facetlp, facetlp.cli\n"
        "names = ('scipy.linalg', 'numpy.f2py', 'scipy.linalg._flapack', 'scipy.linalg._fblas')\n"
        "loaded = [name for name in names if name in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


@pytest.mark.parametrize("first, second", [("facetlp", "scipy.linalg"),
                                           ("scipy.linalg", "facetlp")])
def test_kernels_are_the_ones_scipy_linalg_hands_out(first, second):
    _in_fresh_interpreter(
        f"import {first}\n"
        f"import {second}\n"
        "import numpy as np\n"
        "from facetlp import linalg\n"
        "lapack = scipy.linalg.get_lapack_funcs(('getrf', 'getri', 'getri_lwork'),"
        " dtype=np.float64)\n"
        "blas = scipy.linalg.get_blas_funcs(('gemv', 'ger'), dtype=np.float64)\n"
        "ours = (linalg._getrf, linalg._getri, linalg._getri_lwork, linalg._gemv, linalg._ger)\n"
        "assert all(a is b for a, b in zip(ours, lapack + blas, strict=True))\n"
        "assert scipy.linalg._flapack.dgetrf is linalg._getrf\n"
        "assert scipy.linalg._fblas.dger is linalg._ger\n"
        "np.testing.assert_array_equal(scipy.linalg.lu_factor(np.eye(2))[1], [0, 1])\n"
    )


def test_missing_compiled_module_names_the_directory():
    with pytest.raises(ImportError) as exc:
        linalg._compiled("_no_such_module")
    assert str(exc.value) == f"no compiled module _no_such_module in {linalg._LINALG_DIR}"
    assert Path(linalg._LINALG_DIR).is_dir()
