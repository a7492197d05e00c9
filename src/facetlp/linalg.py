"""Dense square factorizations of the facet base and their row replacement.

One factorization serves solves against both the matrix and its transpose,
which is what the pivot loop needs: the expansion coefficients come from a
transpose solve and the iterate update from a plain solve, both on the same
base matrix.

Every factorization is an LU with partial pivoting. A pivot replaces row s
of the base M by a^T, which gives E M with E the identity whose row s is
y^T, y = M^-T a. Below ``ETA_MIN_D``, ``replace_row`` factors the new
matrix from scratch, and every result keeps the bits of a plain LU solve.
From it up, it keeps the last LU and appends E to a product-form eta file,
the update of the revised simplex method: the caller holds y already (the
entering facet's expansion), so an update costs no solve and each eta one
BLAS call per vector solve. A full file (``ETA_CAP`` etas) or a tiny y[s]
takes a fresh LU instead, as does ``refactor``. ``scripts/eta_crossover.py``
measures the crossover and the cap. LAPACK and BLAS are called directly;
the scipy wrappers add per-call overhead that dominates at small d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from facetlp.errors import DimensionMismatch, SingularMatrix

TOL_PIVOT = 1e-12
NEAR_SINGULAR_FACTOR = 1e3
# smallest dimension whose row replacements are kept as etas, and the most
# etas kept before a fresh LU; the per-pivot timings behind both are in
# CHANGES.md
ETA_MIN_D = 32
ETA_CAP = 16

_TINY = np.finfo(float).tiny

_getrf, _getrs, _laswp, _trtrs = scipy.linalg.get_lapack_funcs(
    ("getrf", "getrs", "laswp", "trtrs"), dtype=np.float64
)
# the eta and block paths call BLAS through scipy: a vector eta costs a third
# of numpy's dot or axpy at d=100, and with unpinned threads numpy's own pool
# contending with scipy's made solve(_dense_lp(0, 80), reduce=True) take
# 2.3 s, not 0.15 s (2 cores)
_axpy, _dot, _gemm, _gemv, _trsm = scipy.linalg.get_blas_funcs(
    ("axpy", "dot", "gemm", "gemv", "trsm"), dtype=np.float64
)


@dataclass(frozen=True)
class SquareFactorization:
    """Factors of a d-by-d matrix, immutable after construction.

    ``lu`` and ``piv`` are the packed LU factors and 0-based row pivots of
    the matrix as of its last factorization from scratch, and the flags
    describe that LU. ``etas`` holds the row replacements applied since, in
    order, as pairs (s, h): the replacement multiplied the matrix from the
    left by E, and E^-1 is the identity plus e_s h^T.
    """

    dimension: int
    singular: bool
    near_singular: bool
    bad_pivot_index: int | None = None
    lu: np.ndarray | None = None
    piv: np.ndarray | None = None
    etas: tuple[tuple[int, np.ndarray], ...] = ()

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
    """Factor a square matrix from scratch as an LU with row pivoting.

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
    return _flagged(row_sums, lu.diagonal(), lu=lu, piv=piv)


def replace_row(
    f: SquareFactorization, slot: int, y: np.ndarray, m_new: np.ndarray
) -> SquareFactorization:
    """Factors of ``m_new``, the factored matrix M with row ``slot`` replaced
    by a^T, given ``y`` = M^-T a: ``f`` plus one eta, or a fresh LU of
    ``m_new`` below ``ETA_MIN_D``, when ``f`` holds ``ETA_CAP`` etas, or when
    |y[slot]| is at most ``NEAR_SINGULAR_FACTOR * TOL_PIVOT`` times max |y|.
    """
    d = f.dimension
    if d < ETA_MIN_D or len(f.etas) >= ETA_CAP:
        return factor(m_new)
    y = np.asarray(y, dtype=float)
    if y.shape != (d,):
        raise DimensionMismatch(f"expansion of shape {y.shape}, dimension {d}")
    pivot = y[slot]
    # written so that a NaN or infinite y also takes the fresh factorization
    if not abs(pivot) > NEAR_SINGULAR_FACTOR * TOL_PIVOT * np.abs(y).max():
        return factor(m_new)
    h = y / -pivot
    h[slot] = 1.0 / pivot - 1.0
    return SquareFactorization(d, f.singular, f.near_singular, f.bad_pivot_index,
                               f.lu, f.piv, f.etas + ((slot, h),))


def refactor(f: SquareFactorization, m: np.ndarray) -> SquareFactorization:
    """Factors of ``m`` from scratch if ``f`` carries etas, else ``f`` itself
    (it is already exact)."""
    return factor(m) if f.etas else f


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
    if f.dimension == 0:
        return r.copy()
    if f.etas:
        # M = E_k ... E_1 LU, so apply E_k^-1 first: each rewrites row s only
        r = r.copy(order="F")
        for s, h in reversed(f.etas):
            r[s] += _dot(h, r) if r.ndim == 1 else _gemv(1.0, r, h, trans=1)
    return _solved(_getrs(f.lu, f.piv, r, trans=0))


def solve_transpose(f: SquareFactorization, r: np.ndarray) -> np.ndarray:
    """Solve M^T y = r from the same factors; r is a vector or a (d, k) block."""
    r = _check(f, r)
    if f.dimension == 0:
        return r.copy()
    if r.ndim == 1:
        # M^T = (LU)^T E_1^T ... E_k^T, so E_1^-T comes first after the LU
        # solve; E^-T z adds z[s] h to z
        z = _solved(_getrs(f.lu, f.piv, r, trans=1))
        for s, h in f.etas:
            z = _axpy(h, z, a=z[s])
        return z
    # a block, as the --reduce scan passes: z^T = r^T U^-1 L^-1 P^T from the
    # right takes half the time of getrs's transposed solves (d=80, k=240);
    # laswp on 0..d-1 gives the columns P^T picks
    zt = _trsm(1.0, f.lu, r.T, side=1)
    zt = _trsm(1.0, f.lu, zt, side=1, lower=1, diag=1, overwrite_b=1)
    order = _laswp(np.arange(f.dimension, dtype=float)[:, None], f.piv, inc=-1)
    zt = zt[:, order[:, 0].astype(np.intp)]
    if f.etas:
        # the etas add H^T t to z, t_j the value eta j reads at its slot:
        # t_j = z[s_j] + sum over i < j of h_i[s_j] t_i, a unit lower
        # triangular system (trtrs reads the part below the diagonal only)
        slots = [s for s, _ in f.etas]
        rows = np.array([h for _, h in f.etas])
        t = _solved(_trtrs(-rows[:, slots].T, zt[:, slots].T, lower=1, unitdiag=1))
        zt = _gemm(1.0, t, rows, 1.0, zt, trans_a=1, overwrite_c=1)
    return zt.T
