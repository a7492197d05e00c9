"""Deterministic construction of the hard test families and random instances.

Klee-Minty cubes come in the two classic variants: the powers-of-2 deformed
cube with rhs 5^k, and the unit-coefficient variant with rhs 2^k - 1. Both
force exponentially many pivots out of classic vertex rules while staying
exactly representable in doubles. The cycling set is one table of transforms
of Beale's degenerate example and Chvatal's textbook variant; all are known
to defeat naive ratio-test tie-breaking.
"""

from __future__ import annotations

import numpy as np

from facetlp.errors import SizeOutOfRange, UnknownFixture
from facetlp.model import GeneralLP

KM1_MAX_D = 25
KM2_MAX_D = 30


def _le_lp(A, b, c, names: dict) -> GeneralLP:
    """min c.x subject to A x <= b and x >= 0 (``GeneralLP``'s default
    bounds), its rows negated into the >= convention GeneralLP uses."""
    return GeneralLP(c=c, A_ineq=-np.asarray(A, dtype=float),
                     b_ineq=-np.asarray(b, dtype=float), names=names)


def klee_minty_v1(d: int) -> GeneralLP:
    """Deformed cube with lower-triangular powers-of-2 rows and rhs 5^k.

    min -sum 2^(d-i) x_i subject to x_1 <= 5, 2^k x_1 + ... + x_k <= 5^k,
    x >= 0. Optimizer (0, ..., 0, 5^d) with objective -5^d.
    """
    if not 2 <= d <= KM1_MAX_D:
        raise SizeOutOfRange(f"variant-1 cube supports 2 <= d <= {KM1_MAX_D}, got {d}")
    rows, cols = np.tril_indices(d, -1)
    A = np.eye(d)
    A[rows, cols] = 2 ** (rows - cols + 1)
    b = np.array([float(5 ** (k + 1)) for k in range(d)])
    c = np.array([-float(2 ** (d - 1 - i)) for i in range(d)])
    return _le_lp(A, b, c, {"family": "klee-minty-1", "d": d})


def klee_minty_v2(d: int) -> GeneralLP:
    """Unit-coefficient variant: x_1 <= 1 and 2*sum_{i<k} x_i + x_k <= 2^k - 1.

    min -sum x_i; optimizer (0, ..., 0, 2^d - 1) with objective -(2^d - 1).
    """
    if not 2 <= d <= KM2_MAX_D:
        raise SizeOutOfRange(f"variant-2 cube supports 2 <= d <= {KM2_MAX_D}, got {d}")
    A = np.tril(np.full((d, d), 2.0), -1) + np.eye(d)
    b = np.array([float(2 ** (k + 1) - 1) for k in range(d)])
    return _le_lp(A, b, -np.ones(d), {"family": "klee-minty-2", "d": d})


# ---------------------------------------------------------------------------
# Cycling fixtures: transforms of Beale's or Chvatal's (A, b, c) of A x <= b
# ---------------------------------------------------------------------------

_BEALE = (
    ((0.25, -60.0, -1.0 / 25.0, 9.0),
     (0.5, -90.0, -1.0 / 50.0, 3.0),
     (0.0, 0.0, 1.0, 0.0)),
    (0.0, 0.0, 1.0),
    (-0.75, 150.0, -1.0 / 50.0, 6.0),
)

_CHVATAL = (
    ((0.5, -5.5, -2.5, 9.0),
     (0.5, -1.5, -0.5, 1.0),
     (1.0, 0.0, 0.0, 0.0)),
    (0.0, 0.0, 1.0),
    (-10.0, 57.0, 9.0, 24.0),
)

_PERM = [3, 2, 1, 0]


def _same(A, b, c):
    return A, b, c


_CYCLING = {
    "beale": (_BEALE, _same),
    "beale_permuted": (_BEALE, lambda A, b, c: (A[:, _PERM], b, c[_PERM])),
    "beale_scaled": (_BEALE, lambda A, b, c: (2.0 * A, 2.0 * b, 10.0 * c)),
    "beale_redundant": (_BEALE, lambda A, b, c: (np.vstack([A, A[1]]),
                                                 np.concatenate([b, b[1:2]]), c)),
    "chvatal": (_CHVATAL, _same),
}

CYCLING_FIXTURE_IDS = tuple(sorted(_CYCLING))


def cycling_fixture(fixture_id: str) -> GeneralLP:
    """One of the bundled degenerate LPs that cycle under naive pivoting,
    built from fresh arrays on every call."""
    try:
        data, transform = _CYCLING[fixture_id]
    except KeyError:
        raise UnknownFixture(f"unknown cycling fixture {fixture_id!r}; "
                             f"bundled: {', '.join(CYCLING_FIXTURE_IDS)}") from None
    A, b, c = transform(*(np.array(v) for v in data))
    return _le_lp(A, b, c, {"family": "cycling", "fixture": fixture_id})


# ---------------------------------------------------------------------------
# Seeded random instances
# ---------------------------------------------------------------------------

def _nonzero_rows(rng: np.random.Generator, rows: int, cols: int,
                  low: int, high: int) -> np.ndarray:
    A = rng.integers(low, high + 1, size=(rows, cols)).astype(float)
    for i in range(rows):
        while not A[i].any():
            A[i] = rng.integers(low, high + 1, size=cols).astype(float)
    return A


RANDOM_KINDS = ("feasible", "infeasible", "unbounded")


def random_instance(
    seed: int, d: int, m: int, n: int, kind: str = "feasible"
) -> GeneralLP:
    """Reproducible integer-coefficient instance with a planted outcome.

    ``feasible`` plants an interior point inside a finite box, so the oracle
    always reports Optimal. ``infeasible`` adds a contradictory equality
    pair. ``unbounded`` has no equality rows, whatever ``m`` is, and no upper
    bounds, and aims the objective along a coordinate ray no constraint
    blocks. The same seed yields bit-identical data. Raises
    ``SizeOutOfRange`` unless 1 <= d <= 8 and m, n >= 0.
    """
    if not (1 <= d <= 8 and m >= 0 and n >= 0):
        raise SizeOutOfRange(f"random instances need 1 <= d <= 8, m, n >= 0; got {d, m, n}")
    if kind not in RANDOM_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    rng = np.random.default_rng(seed)

    if kind == "unbounded":
        A_ineq = _nonzero_rows(rng, n, d, 0, 9)
        x0 = rng.integers(0, 4, size=d).astype(float)
        slack = rng.integers(0, 7, size=n).astype(float)
        b_ineq = A_ineq @ x0 - slack
        c = rng.integers(0, 10, size=d).astype(float)
        c[rng.integers(0, d)] = -float(rng.integers(1, 10))
        return GeneralLP(c=c, A_ineq=A_ineq, b_ineq=b_ineq,
                         names={"family": "random", "seed": seed, "kind": kind})

    A_eq = _nonzero_rows(rng, m, d, -9, 9) if m else np.zeros((0, d))
    A_ineq = _nonzero_rows(rng, n, d, -9, 9) if n else np.zeros((0, d))
    x0 = rng.integers(-3, 4, size=d).astype(float)
    b_eq = A_eq @ x0
    slack = rng.integers(0, 7, size=n).astype(float)
    b_ineq = A_ineq @ x0 - slack
    c = rng.integers(-9, 10, size=d).astype(float)

    if kind == "infeasible":
        row = _nonzero_rows(rng, 1, d, -9, 9)
        A_eq = np.vstack([A_eq, row, row])
        rhs = float(row[0] @ x0)
        b_eq = np.concatenate([b_eq, [rhs], [rhs + 3.0]])

    return GeneralLP(c=c, A_eq=A_eq, b_eq=b_eq, A_ineq=A_ineq, b_ineq=b_ineq,
                     lower=np.full(d, -12.0), upper=np.full(d, 12.0),
                     names={"family": "random", "seed": seed, "kind": kind})

