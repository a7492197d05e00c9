"""Dense square factorizations of the facet base and their row replacement.

One factorization serves solves against both the matrix and its transpose,
which is what the pivot loop needs: the expansion coefficients come from a
transpose solve and the iterate update from a plain solve, both on the same
base matrix.

A pivot replaces row s of the base M by a^T, which gives E M with E the
identity whose row s is y^T, y = M^-T a. Below ``INVERSE_MIN_D`` a
factorization is an LU with partial pivoting that ``replace_row`` takes
from scratch, so every result keeps the bits of a plain LU solve. From it
up, a factorization holds M^-1, formed from the LU, which ``replace_row``
multiplies by E^-1 in place, one rank-one update: the caller holds y
already (the entering facet's expansion), so an update costs no solve, and
a solve is one matrix product. A tiny y[s] takes a fresh inverse instead,
as does ``refactor``, called on drift or a failed residual check. LAPACK
and BLAS are called directly (scipy's wrappers' per-call overhead dominates
at small d); ``scripts/inverse_crossover.py`` measures the crossover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from facetlp.errors import DimensionMismatch, SingularMatrix

TOL_PIVOT = 1e-12
NEAR_SINGULAR_FACTOR = 1e3
# smallest dimension whose factorizations hold the inverse; the per-pivot
# timings behind it are in CHANGES.md
INVERSE_MIN_D = 32

_TINY = np.finfo(float).tiny

_getrf, _getri, _getri_lwork, _getrs = scipy.linalg.get_lapack_funcs(
    ("getrf", "getri", "getri_lwork", "getrs"), dtype=np.float64
)
# the inverse path calls BLAS through scipy, not numpy: with unpinned
# threads numpy's own pool contends with scipy's
_gemv, _ger = scipy.linalg.get_blas_funcs(("gemv", "ger"), dtype=np.float64)


@dataclass(frozen=True)
class SquareFactorization:
    """Factors of a d-by-d matrix M. Below ``INVERSE_MIN_D`` (or if M is
    singular), ``lu`` and ``piv`` are the packed LU factors and 0-based row
    pivots of M. From it up, ``inv`` is M^-1 in Fortran order instead:
    inverted from the LU of the last factorization from scratch, then
    updated in place by ``updates`` row replacements. The flags describe
    that LU. The fields are never reassigned, but ``replace_row`` writes
    ``inv`` in place: it consumes the factorization it is given.
    """

    dimension: int
    singular: bool
    near_singular: bool
    bad_pivot_index: int | None = None
    lu: np.ndarray | None = None
    piv: np.ndarray | None = None
    inv: np.ndarray | None = None
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
            dimension=0, singular=False, near_singular=False, **factors
        )
    pivots = np.abs(diagonal)
    threshold = TOL_PIVOT * max(row_sums.max(), _TINY)
    smallest = pivots.min()
    singular = bool(smallest <= threshold)
    return SquareFactorization(
        dimension=d,
        singular=singular,
        near_singular=not singular and bool(smallest <= NEAR_SINGULAR_FACTOR * threshold),
        bad_pivot_index=int((pivots <= threshold).argmax()) if singular else None,
        **factors,
    )


def factor(m: np.ndarray) -> SquareFactorization:
    """Factor a square matrix from scratch: an LU with row pivoting, and
    from ``INVERSE_MIN_D`` up the inverse computed from it.

    Exactly or nearly singular input does not raise here; the condition is
    recorded and the solves refuse to run. NaN or infinite entries raise
    ValueError. Factorization is deterministic: identical input bits give
    identical factors.
    """
    m = np.asarray_chkfinite(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    row_sums = np.abs(m).sum(axis=1)
    if m.shape[0] == 0:
        empty_piv = np.empty(0, dtype=np.int32)
        return _flagged(row_sums, m.diagonal(), lu=m.copy(), piv=empty_piv)
    lu, piv, info = _getrf(m)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    f = _flagged(row_sums, lu.diagonal(), lu=lu, piv=piv)
    if f.dimension < INVERSE_MIN_D or f.singular:
        return f
    # getri overwrites the LU in place, after the flags were read off it
    lwork = int(_getri_lwork(f.dimension)[0])
    inv = _solved(_getri(lu, piv, lwork=lwork, overwrite_lu=1))
    return SquareFactorization(f.dimension, False, f.near_singular, inv=inv)


def replace_row(
    f: SquareFactorization, slot: int, y: np.ndarray, m_new: np.ndarray
) -> SquareFactorization:
    """Factors of ``m_new``, the factored matrix M with row ``slot`` replaced
    by a^T, given ``y`` = M^-T a: the inverse of ``f`` updated in place, which
    consumes ``f`` (a copy would cost what the update saves), or a fresh
    factorization below ``INVERSE_MIN_D`` or when |y[slot]| is at most
    ``NEAR_SINGULAR_FACTOR * TOL_PIVOT`` times max |y|."""
    d = f.dimension
    if d < INVERSE_MIN_D:
        return factor(m_new)
    y = np.asarray(y, dtype=float)
    if y.shape != (d,):
        raise DimensionMismatch(f"expansion of shape {y.shape}, dimension {d}")
    pivot = y[slot]
    # written so that a NaN or infinite y also takes the fresh factorization
    if not abs(pivot) > NEAR_SINGULAR_FACTOR * TOL_PIVOT * np.abs(y).max():
        return factor(m_new)
    # M_new^-1 = M^-1 E^-1 = M^-1 (I + e_s h^T); ger must not read the
    # column it writes
    h = y / -pivot
    h[slot] = 1.0 / pivot - 1.0
    inv = _ger(1.0, f.inv[:, slot].copy(), h, a=f.inv, overwrite_a=1)
    return SquareFactorization(d, False, f.near_singular, inv=inv, updates=f.updates + 1)


def refactor(f: SquareFactorization, m: np.ndarray) -> SquareFactorization:
    """Factors of ``m`` from scratch if ``f`` has been updated since its last
    factorization from scratch, else ``f`` itself (it is already exact)."""
    return factor(m) if f.updates else f


def _check(f: SquareFactorization, r: np.ndarray) -> np.ndarray:
    if f.singular:
        raise SingularMatrix(
            f"matrix is singular (pivot {f.bad_pivot_index})", f.bad_pivot_index
        )
    r = np.asarray(r, dtype=float)
    if r.shape != (f.dimension,):
        raise DimensionMismatch(
            f"right-hand side has shape {r.shape}, expected ({f.dimension},)"
        )
    return r


def _solved(x_info: tuple[np.ndarray, int]) -> np.ndarray:
    x, info = x_info
    if info != 0:
        raise ValueError(f"LAPACK solve failed with info={info}")
    return x


def solve(f: SquareFactorization, r: np.ndarray) -> np.ndarray:
    """Solve M x = r from the stored factors; r is a vector of length d."""
    r = _check(f, r)
    if f.dimension == 0:
        return r.copy()
    if f.inv is not None:
        return _gemv(1.0, f.inv, r)
    return _solved(_getrs(f.lu, f.piv, r, trans=0))


def solve_transpose(f: SquareFactorization, r: np.ndarray) -> np.ndarray:
    """Solve M^T y = r from the same factors; r is a vector of length d."""
    r = _check(f, r)
    if f.dimension == 0:
        return r.copy()
    if f.inv is not None:
        return _gemv(1.0, f.inv, r, trans=1)
    return _solved(_getrs(f.lu, f.piv, r, trans=1))
