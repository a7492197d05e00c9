"""Dense square factorizations of the facet base and their row replacement.

One factorization serves solves against both the matrix and its transpose,
which is what the pivot loop needs: the expansion coefficients come from a
transpose solve and the iterate update from a plain solve, both on the same
base matrix.

A pivot replaces one row of the base, a rank-one change. How it is absorbed
depends on the dimension d, with the crossover ``QR_UPDATE_MIN_D`` measured
rather than guessed:

- below it, the factors are an LU with partial pivoting and ``replace_row``
  factors the new matrix from scratch. At these sizes a fresh LU costs less
  than the fixed overhead of an update, and every result keeps the bits of
  a plain LU solve;
- from it up, the factors are Q and R and ``replace_row`` updates them in
  O(d^2) by Givens rotations (Golub & Van Loan, *Matrix Computations*,
  section 6.5) instead of the O(d^3) refactorization. An update whose R
  comes out singular or near singular is discarded for a fresh QR, and
  ``refactor`` lets the caller restart from scratch when it sees drift.

All LAPACK routines are called directly; the scipy wrappers around them add
per-call overhead that dominates at small d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from facetlp.errors import DimensionMismatch, SingularMatrix

TOL_PIVOT = 1e-12
NEAR_SINGULAR_FACTOR = 1e3
# smallest dimension whose factors are QR and get updated per row
# replacement; the per-pivot timings behind it are in CHANGES.md
QR_UPDATE_MIN_D = 64

_TINY = np.finfo(float).tiny

_getrf, _getrs, _trtrs = scipy.linalg.get_lapack_funcs(
    ("getrf", "getrs", "trtrs"), dtype=np.float64
)
# solve_transpose multiplies Q by a block in scipy's OpenBLAS, as LAPACK does:
# numpy's own thread pool contending with it made a d=80 block take 10 ms, not
# 0.2 ms (unpinned threads, 2 cores). Vectors keep numpy's matvec and its bits.
_gemm = scipy.linalg.get_blas_funcs("gemm", dtype=np.float64)


@dataclass(frozen=True)
class SquareFactorization:
    """Factors of a d-by-d matrix, immutable after construction.

    Below ``QR_UPDATE_MIN_D`` they are the packed LU factors ``lu`` and the
    0-based row pivots ``piv``; from it up, the orthogonal ``q`` and upper
    triangular ``r``, with ``updates`` counting the row replacements applied
    since the last factorization from scratch. ``row_sums`` holds the
    absolute row sums of the factored matrix, whose maximum is the norm the
    singularity flags are relative to.
    """

    dimension: int
    singular: bool
    near_singular: bool
    row_sums: np.ndarray
    bad_pivot_index: int | None = None
    lu: np.ndarray | None = None
    piv: np.ndarray | None = None
    q: np.ndarray | None = None
    r: np.ndarray | None = None
    updates: int = 0

    def solve(self, r: np.ndarray) -> np.ndarray:
        return solve(self, r)

    def solve_transpose(self, r: np.ndarray) -> np.ndarray:
        return solve_transpose(self, r)


def _flagged(
    row_sums: np.ndarray, diagonal: np.ndarray, **factors
) -> SquareFactorization:
    """Attach the singularity flags read off the triangular factor's diagonal,
    relative to the infinity norm of the factored matrix. The first pivot at
    or below the threshold is the bad one."""
    d = row_sums.shape[0]
    if d == 0:
        return SquareFactorization(
            dimension=0, singular=False, near_singular=False, row_sums=row_sums,
            **factors,
        )
    pivots = np.abs(diagonal)
    threshold = TOL_PIVOT * max(row_sums.max(), _TINY)
    smallest = pivots.min()
    singular = bool(smallest <= threshold)
    return SquareFactorization(
        dimension=d,
        singular=singular,
        near_singular=not singular and bool(smallest <= NEAR_SINGULAR_FACTOR * threshold),
        row_sums=row_sums,
        bad_pivot_index=int((pivots <= threshold).argmax()) if singular else None,
        **factors,
    )


def factor(m: np.ndarray) -> SquareFactorization:
    """Factor a square matrix from scratch: LU with row pivoting below
    ``QR_UPDATE_MIN_D``, QR from it up.

    Exactly or nearly singular input does not raise here; the condition is
    recorded and the solves refuse to run. NaN or infinite entries raise
    ValueError. Factorization is deterministic: identical input bits give
    identical factors.
    """
    m = np.asarray_chkfinite(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    d = m.shape[0]
    row_sums = np.abs(m).sum(axis=1)
    if d >= QR_UPDATE_MIN_D:
        q, r = scipy.linalg.qr(m, check_finite=False)
        return _flagged(row_sums, r.diagonal(), q=q, r=r)
    if d == 0:
        empty_piv = np.empty(0, dtype=np.int32)
        return _flagged(row_sums, m.diagonal(), lu=m.copy(), piv=empty_piv)
    lu, piv, info = _getrf(m)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    return _flagged(row_sums, lu.diagonal(), lu=lu, piv=piv)


def replace_row(
    f: SquareFactorization, slot: int, delta: np.ndarray, m_new: np.ndarray
) -> SquareFactorization:
    """Factors of ``m_new``, the factored matrix with ``delta`` added to row
    ``slot``.

    LU factors are recomputed from ``m_new``. QR factors take the rank-one
    update e_slot delta^T; if the updated R is singular or near singular the
    update is dropped and ``m_new`` is factored from scratch.
    """
    if f.q is None:
        return factor(m_new)
    # m_new differs from the finite factored matrix by delta alone
    delta = np.asarray_chkfinite(delta, dtype=float)
    if np.shape(m_new) != (f.dimension, f.dimension) or delta.shape != (f.dimension,):
        raise DimensionMismatch(
            f"row replacement of shape {delta.shape} into {np.shape(m_new)} "
            f"does not fit a dimension-{f.dimension} factorization"
        )
    unit = np.zeros(f.dimension)
    unit[slot] = 1.0
    q, r = scipy.linalg.qr_update(f.q, f.r, unit, delta, check_finite=False)
    row_sums = f.row_sums.copy()
    row_sums[slot] = np.abs(m_new[slot]).sum()
    updated = _flagged(row_sums, r.diagonal(), q=q, r=r, updates=f.updates + 1)
    if updated.singular or updated.near_singular:
        return factor(m_new)
    return updated


def refactor(f: SquareFactorization, m: np.ndarray) -> SquareFactorization:
    """Factors of ``m`` from scratch if ``f`` carries row-replacement
    updates, else ``f`` itself (it is already exact)."""
    return factor(m) if f.updates else f


def _check(f: SquareFactorization, r: np.ndarray) -> np.ndarray:
    if f.singular:
        raise SingularMatrix(
            f"matrix is singular (pivot {f.bad_pivot_index})", f.bad_pivot_index
        )
    r = np.asarray(r, dtype=float)
    if r.ndim not in (1, 2) or r.shape[0] != f.dimension:
        raise DimensionMismatch(
            f"right-hand side has shape {r.shape}, expected ({f.dimension}[, k])"
        )
    return r


def _solved(x_info: tuple[np.ndarray, int]) -> np.ndarray:
    x, info = x_info
    if info != 0:
        raise ValueError(f"LAPACK solve failed with info={info}")
    return x


def solve(f: SquareFactorization, r: np.ndarray) -> np.ndarray:
    """Solve M x = r from the stored factors; r is a vector or a (d, k) block."""
    r = _check(f, r)
    if f.q is not None:
        # M = QR, so x = R^-1 Q^T r. R is C-ordered, as qr_update runs
        # fastest on it, so LAPACK reads R^T, lower triangular, without a copy
        return _solved(_trtrs(f.r.T, f.q.T @ r, lower=1, trans=1))
    if f.dimension == 0:
        return r.copy()
    return _solved(_getrs(f.lu, f.piv, r, trans=0))


def solve_transpose(f: SquareFactorization, r: np.ndarray) -> np.ndarray:
    """Solve M^T y = r from the same factors; r is a vector or a (d, k) block."""
    r = _check(f, r)
    if f.q is not None:
        # M^T = R^T Q^T, so y = Q R^-T r
        z = _solved(_trtrs(f.r.T, r, lower=1))
        return f.q @ z if z.ndim == 1 else _gemm(1.0, f.q, z)
    if f.dimension == 0:
        return r.copy()
    return _solved(_getrs(f.lu, f.piv, r, trans=1))
