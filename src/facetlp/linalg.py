"""Dense square factorizations of the facet base and their row replacement.

One factorization serves solves against both the matrix and its transpose,
which is what the pivot loop needs: the expansion coefficients come from a
transpose solve and the iterate from a plain solve, both on the same base
matrix. The transpose solve of a unit vector, an entering bound row's
expansion, is a row of the inverse, which ``solve_transpose_unit`` copies
with no product.

A pivot replaces row s of the base M by a^T, which gives E M with E the
identity whose row s is y^T, y = M^-T a. At every d a factorization holds
M^-1, formed from an LU with partial pivoting, which ``replace_row``
multiplies by E^-1 in place, one rank-one update: the caller holds y
already (the entering facet's expansion), so an update costs no solve, and
a solve is one matrix product. A tiny y[s] is declined and takes a fresh
inverse, as does the solver's per-pivot check, through ``factor``, when an
iterate solved from an updated inverse fails its residual check.
Only ``factor`` reads matrix entries, and only it checks them: it refuses
a matrix that is not square, empty or not finite, and raises
SingularMatrix instead of returning factors of a singular one, so every
factorization can be solved. The one other constructor,
``signed_identity``, takes the signs of a diagonal of +-1, which is its own
inverse: the solver's start base.

``solve``, ``solve_transpose`` and ``replace_row`` are bare kernels, one
gemv per solve, that trust the facet solver to pass a float64 vector of
length d that it built itself. gemv checks no shape: it reads a (d, k)
array flattened and a longer vector up to its d-th entry, so a vector
that breaks this gives a wrong answer, not an error.
``tests/test_facet.py::test_kernels_get_the_vectors_they_trust`` checks
every vector the solver passes.

LAPACK and BLAS are called directly, as dgetrf, dgetri, dgetri_lwork, dgemv
and dger (scipy's wrappers' per-call overhead dominates at small d). They
come from scipy's compiled modules ``_flapack`` and ``_fblas``, loaded from
the ``linalg`` directory of the scipy package. The package ``scipy.linalg``
is not imported: its ``__init__`` pulls in scipy's array-API layer, which
imports numpy.f2py, numpy.testing, numpy.random and numpy.ma, none of which
the solver uses, and which made ``import facetlp`` take three times as long
(README, "Start-up"). The function objects are scipy's own, the very ones
``scipy.linalg.get_lapack_funcs`` and ``get_blas_funcs`` return for
float64, whichever of the two is imported first.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder

import numpy as np

from facetlp.errors import DimensionMismatch, SingularMatrix

TOL_PIVOT = 1e-12
NEAR_SINGULAR_FACTOR = 1e3

_TINY = np.finfo(float).tiny

# find_spec locates the scipy package without importing it
_LINALG_DIR = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                           "linalg")


def _compiled(name: str):
    """scipy's compiled module ``scipy.linalg.<name>``, loaded from its file
    in ``_LINALG_DIR`` without running ``scipy/linalg/__init__.py``.
    ImportError, naming the directory, when no such module is there. The
    interpreter files a single-phase extension module in sys.modules as it
    loads it; that entry is taken out again unless it was there before, so
    that a later ``import scipy.linalg`` binds the module to its package."""
    spec = PathFinder.find_spec(f"scipy.linalg.{name}", [_LINALG_DIR])
    if spec is None:
        raise ImportError(f"no compiled module {name} in {_LINALG_DIR}")
    known = spec.name in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not known:
        sys.modules.pop(spec.name, None)
    return module


_flapack = _compiled("_flapack")
_getrf, _getri, _getri_lwork = _flapack.dgetrf, _flapack.dgetri, _flapack.dgetri_lwork
# BLAS is called through scipy, not numpy: with unpinned threads numpy's
# own pool contends with scipy's
_fblas = _compiled("_fblas")
_gemv, _ger = _fblas.dgemv, _fblas.dger


@dataclass(slots=True)
class SquareFactorization:
    """The inverse of a nonsingular d-by-d matrix M: ``inv`` is M^-1 in
    Fortran order, a signed identity's own or inverted from an LU, then
    updated in place by each ``replace_row``. ``near_singular`` describes
    that LU (False for a signed identity)."""

    dimension: int
    near_singular: bool
    inv: np.ndarray


def _near_singular(row_sums: np.ndarray, diagonal: np.ndarray) -> bool:
    """Whether the smallest pivot on the triangular factor's diagonal is
    within ``NEAR_SINGULAR_FACTOR`` of the singularity threshold, which is
    ``TOL_PIVOT`` times the infinity norm of the factored matrix. A pivot at
    or below the threshold raises SingularMatrix, carrying the first such
    pivot's index."""
    # argmax and argmin find max's and min's entries without a reduction
    pivots = np.abs(diagonal)
    threshold = TOL_PIVOT * max(row_sums[row_sums.argmax()], _TINY)
    smallest = pivots[pivots.argmin()]
    if smallest <= threshold:
        bad = int((pivots <= threshold).argmax())
        raise SingularMatrix(f"matrix is singular (pivot {bad})", bad)
    return bool(smallest <= NEAR_SINGULAR_FACTOR * threshold)


def factor(m: np.ndarray) -> SquareFactorization:
    """Factor a square matrix from scratch: an LU with row pivoting, and
    the inverse computed from it.

    A pivot at or below ``TOL_PIVOT`` times the matrix's infinity norm
    raises SingularMatrix. NaN or infinite entries raise ValueError.
    Factorization is deterministic: identical input bits give identical
    factors.
    """
    m = np.asarray_chkfinite(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {m.shape}")
    row_sums = np.abs(m).sum(axis=1)
    lu, piv, info = _getrf(m)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    d = m.shape[0]
    near = _near_singular(row_sums, lu.diagonal())
    # getri overwrites the LU in place, after the pivots were read off it
    lwork = int(_getri_lwork(d)[0])
    inv, info = _getri(lu, piv, lwork=lwork, overwrite_lu=1)
    if info != 0:
        raise ValueError(f"getri failed with info={info}")
    return SquareFactorization(d, near, inv)


def signed_identity(signs: np.ndarray) -> SquareFactorization:
    """Factors of diag(signs), whose entries are +-1: the matrix is its own
    inverse, laid out in Fortran order as ``factor``'s is, so that
    ``replace_row`` updates it in place. Reads no matrix and cannot be
    singular."""
    d = signs.shape[0]
    inv = np.zeros((d, d), order="F")
    inv.flat[:: d + 1] = signs
    return SquareFactorization(d, False, inv)


def replace_row(f: SquareFactorization, slot: int, y: np.ndarray) -> bool:
    """Update ``f`` in place to stand for the factored matrix M with row
    ``slot`` replaced by a^T, given ``y`` = M^-T a, and return True (a copy
    would cost what the update saves). Return False, with ``f`` untouched,
    when |y[slot]| is at most ``NEAR_SINGULAR_FACTOR * TOL_PIVOT`` times
    max |y|, or not finite; the caller then factors the new matrix
    afresh. ``y`` is a float64 vector of length d."""
    pivot, abs_y = y.item(slot), np.abs(y)  # a Python float: its arithmetic is cheaper
    # written so that a NaN or infinite y also declines; the entry argmax
    # finds is the one max returns, NaN included, at a fraction of the cost
    if not abs(pivot) > NEAR_SINGULAR_FACTOR * TOL_PIVOT * abs_y[abs_y.argmax()]:
        return False
    # M_new^-1 = M^-1 E^-1 = M^-1 (I + e_s h^T), written over f.inv, which
    # is in Fortran order; ger must not read the column it writes
    h = y / -pivot
    h[slot] = 1.0 / pivot - 1.0
    # by position, as f2py parses keywords slowly: ger(alpha, x, y, incx,
    # incy, a, overwrite_x, overwrite_y, overwrite_a)
    _ger(1.0, f.inv[:, slot].copy(), h, 1, 1, f.inv, 1, 1, 1)
    return True


def solve(f: SquareFactorization, r: np.ndarray) -> np.ndarray:
    """Solve M x = r from the stored factors; r is a float64 vector of
    length d."""
    return _gemv(1.0, f.inv, r)


def solve_transpose(f: SquareFactorization, r: np.ndarray) -> np.ndarray:
    """Solve M^T y = r from the same factors; r is a float64 vector of
    length d."""
    # f2py parses keywords slowly, so trans goes by position: gemv(alpha,
    # a, x, beta, y, offx, incx, offy, incy, trans)
    return _gemv(1.0, f.inv, r, 0.0, None, 0, 1, 0, 1, 1)


def solve_transpose_unit(f: SquareFactorization, j: int, sign: float) -> np.ndarray:
    """Solve M^T y = sign * e_j from the same factors, with sign +-1: y is
    ``sign`` times row j of M^-1, read off it with no product, in a fresh
    array, since ``replace_row`` writes the inverse in place. For a finite
    inverse y has ``solve_transpose``'s bits: the gemv's sum adds exact
    +-0 terms to one product, and its y = 0 + t turns -0.0 into +0.0, as
    the + 0.0 here does."""
    y = f.inv[j] * sign
    y += 0.0
    return y
