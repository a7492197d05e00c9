"""Problem representations and conversion to the solver-facing stacked form.

A :class:`GeneralLP` is the user-facing problem

    min c.x   s.t.   A_eq x = b_eq,  A_ineq x >= b_ineq,  lower <= x <= upper

with the inequality block uniformly in >= sense (callers negate <= rows on
ingestion). :func:`to_standard_general` rewrites it into a
:class:`StandardGeneralLP`, the facets of one stacked system

    [A_eq; A_ineq; E; F] x >= b,   b = [b_eq; b_ineq; b_L; b_U]

(= on the A_eq rows) whose E/F blocks are signed-diagonal bound rows chosen
so the objective expands over E with nonnegative coefficients. Only the
general rows G = [A_eq; A_ineq] are stored, with the signs ``e_diag`` of
the E block; F = -E. When one of the two blocks has no rows, G is the
other block itself, shared with the problem rather than copied (a C-ordered
copy only if it was not C-ordered); otherwise G is a C-ordered stack of
both. Row indices run over all N = m + n + 2d rows, and
``StandardGeneralLP.rows`` builds the rows an index set names. Infinite
bounds are replaced by a big-M artificial bound and the affected rows
recorded, so a binding artificial row at termination certifies
unboundedness. :func:`lp_dual` builds a problem's LP dual, whose rows are
all equalities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from facetlp.errors import (
    DimensionMismatch,
    InconsistentBounds,
    MalformedInput,
    NonFiniteData,
)

BIG_M_FACTOR = 1e7
TOL_FEAS_BASE = 1e-8


def _as_vector(a, name: str) -> np.ndarray:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} has shape {a.shape}, expected a vector")
    return a


def _as_matrix(a, rows: int | None, cols: int, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        a = a.reshape((0, cols))
    if a.ndim != 2 or a.shape[1] != cols or (rows is not None and a.shape[0] != rows):
        raise DimensionMismatch(f"{name} has shape {a.shape}, expected ({rows}, {cols})")
    return a


@dataclass
class GeneralLP:
    """General-form LP: equality rows, >= inequality rows, and box bounds."""

    c: np.ndarray
    A_eq: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    b_eq: np.ndarray = field(default_factory=lambda: np.zeros(0))
    A_ineq: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    b_ineq: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    names: dict | None = None
    objective_offset: float = 0.0

    def __post_init__(self):
        self.c = _as_vector(self.c, "c")
        d = self.c.shape[0]
        if not d:
            raise DimensionMismatch("c is empty: an LP needs at least one variable")
        self.b_eq = _as_vector(self.b_eq, "b_eq")
        self.b_ineq = _as_vector(self.b_ineq, "b_ineq")
        self.A_eq = _as_matrix(self.A_eq, self.b_eq.shape[0], d, "A_eq")
        self.A_ineq = _as_matrix(self.A_ineq, self.b_ineq.shape[0], d, "A_ineq")
        self.lower = np.zeros(d) if self.lower is None else _as_vector(self.lower, "lower")
        self.upper = (
            np.full(d, np.inf) if self.upper is None else _as_vector(self.upper, "upper")
        )
        if self.lower.shape != (d,) or self.upper.shape != (d,):
            raise DimensionMismatch("bound vectors must have length d")
        for arr, label in ((self.c, "c"), (self.A_eq, "A_eq"), (self.b_eq, "b_eq"),
                           (self.A_ineq, "A_ineq"), (self.b_ineq, "b_ineq")):
            if not np.all(np.isfinite(arr)):
                raise NonFiniteData(f"{label} contains a non-finite entry")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise NonFiniteData("bounds contain NaN")
        # lower = +inf or upper = -inf leaves no finite value for x[i]
        bad = (self.lower > self.upper) | np.isposinf(self.lower) | np.isneginf(self.upper)
        if bad.any():
            i = int(bad.argmax())
            raise InconsistentBounds(
                f"bounds lower[{i}]={self.lower[i]}, upper[{i}]={self.upper[i]} "
                f"admit no finite x[{i}]"
            )
        self.objective_offset = float(self.objective_offset)
        if not np.isfinite(self.objective_offset):
            raise NonFiniteData("objective_offset must be finite")

    @property
    def d(self) -> int:
        return self.c.shape[0]

    @property
    def num_eq(self) -> int:
        return self.b_eq.shape[0]

    @property
    def num_ineq(self) -> int:
        return self.b_ineq.shape[0]


@dataclass
class StandardGeneralLP:
    """Solver-facing stacked form; see the module docstring for the layout.
    ``c_original`` is the objective in the original coordinates, ``G`` the
    general rows, C-ordered, and ``e_diag`` the signs of the E rows; ``b``
    spans all N rows. ``G`` is the problem's lone ``A_eq`` or ``A_ineq``
    itself when the other block is empty, so the form may share its rows
    with the ``GeneralLP`` it came from; no solver writes to either."""

    c_original: np.ndarray
    G: np.ndarray
    e_diag: np.ndarray
    b: np.ndarray
    m: int
    n: int
    artificial_rows: frozenset[int]
    objective_offset: float = 0.0

    @property
    def d(self) -> int:
        return self.e_diag.shape[0]

    @property
    def num_rows(self) -> int:
        return self.b.shape[0]

    def rows(self, idx) -> np.ndarray:
        """The (k, d) stack of the rows that the k indices ``idx`` name.
        General rows come from ``G``, bound rows are built as +-e_i; only
        the rows asked for are built. The facet solver asks for a whole
        base only to factor it afresh or to audit a pivot; it reads an
        entering general row from ``G`` and builds no entering bound row,
        and its start base, the E block, is read off ``e_diag`` and never
        built. The brute-force oracle stacks every row once. The loop
        costs about a microsecond a row."""
        g = self.m + self.n
        d = self.d
        out = np.zeros((len(idx), d))
        for r, i in enumerate(np.asarray(idx).tolist()):
            if i < g:
                out[r] = self.G[i]
            else:
                j = (i - g) % d
                out[r, j] = self.e_diag[j] if i < g + d else -self.e_diag[j]
        return out

    def row_norms(self) -> np.ndarray:
        """The Euclidean norm of every stacked row; a bound row's is 1."""
        return np.concatenate([np.linalg.norm(self.G, axis=1), np.ones(2 * self.d)])

    def row_tolerances(self) -> np.ndarray:
        """Per-row violation tolerances, scaled by each row's own rhs."""
        return TOL_FEAS_BASE * (1.0 + np.abs(self.b))

    def feasible(self, sigma: np.ndarray, tols: np.ndarray) -> np.ndarray | np.bool_:
        """Whether the residuals ``sigma`` (rows on the last axis) are
        feasible: sigma >= -tol on every row and sigma <= tol on the equality
        rows, which is |sigma| <= tol there. A NaN residual fails."""
        ok = (sigma >= -tols).all(axis=-1)
        if self.m:
            ok &= (sigma[..., : self.m] <= tols[: self.m]).all(axis=-1)
        return ok

    def max_violation(self, sigma: np.ndarray) -> float:
        """Largest violation in the residuals ``sigma``: |sigma| on the
        equality rows, -sigma on the others, and 0 when nothing is violated."""
        eq_part = float(np.max(np.abs(sigma[: self.m]), initial=0.0))
        return max(eq_part, float(np.max(-sigma[self.m:], initial=0.0)))


@dataclass(frozen=True)
class ViolationReport:
    """Residuals a_i.x - b_i split by row class, their ``max_violation`` and
    the ``feasible`` verdict, both ``StandardGeneralLP``'s."""

    sigma_eq: np.ndarray
    sigma_ineq: np.ndarray
    max_abs_violation: float
    is_feasible: bool


def default_big_m(p: GeneralLP) -> float:
    """Artificial bound magnitude: large enough to flag unboundedness, small
    enough to stay well-conditioned in doubles."""
    finite_bounds = [np.abs(v[np.isfinite(v)]) for v in (p.lower, p.upper)]
    candidates = [1.0]
    candidates += [float(v.max()) for v in finite_bounds if v.size]
    for b in (p.b_eq, p.b_ineq):
        if b.size:
            candidates.append(float(np.max(np.abs(b))))
    return BIG_M_FACTOR * max(candidates)


def to_standard_general(p: GeneralLP) -> StandardGeneralLP:
    """Stack the problem into [A_eq; A_ineq; E; F] with sign-adjusted bounds.

    Per variable i: if c_i >= 0 the E row is +e_i with rhs lower_i and the F
    row is -e_i with rhs -upper_i; if c_i < 0 the E row is -e_i with rhs
    -upper_i and the F row is +e_i with rhs lower_i. Either way c expands
    over E with the coefficients |c_i| >= 0. Infinite bounds become
    -``default_big_m(p)`` on the affected row, which is recorded in
    ``artificial_rows``; data so large that this M overflows are refused
    with ``NonFiniteData``. Only the general rows and the E signs are
    stored: no bound row is built. G is a C-ordered stack of A_eq and
    A_ineq when both have rows; otherwise it is the lone block itself, not
    a copy, unless that block is not C-ordered.
    """
    d, m, n = p.d, p.num_eq, p.num_ineq
    flip = p.c < 0

    neg_inf, pos_inf = np.isneginf(p.lower), np.isposinf(p.upper)
    lower, upper = p.lower, p.upper
    if neg_inf.any() or pos_inf.any():
        bound = default_big_m(p)
        if bound == np.inf:
            raise NonFiniteData("data too large for an infinite bound: its artificial "
                                "bound, 1e7 times their magnitude, overflows")
        lower = np.where(neg_inf, -bound, lower)
        upper = np.where(pos_inf, bound, upper)

    e_diag = np.where(flip, -1.0, 1.0)
    b_L = np.where(flip, -upper, lower)
    b_U = np.where(flip, lower, -upper)

    # a lone block is shared as it is, so no problem holds its rows twice
    if m and n:
        G = np.vstack([p.A_eq, p.A_ineq])
    else:
        G = np.ascontiguousarray(p.A_ineq if n else p.A_eq)
    b = np.concatenate([p.b_eq, p.b_ineq, b_L, b_U])

    # the bound written as >= always carries -M on the affected side
    artificial = np.concatenate([np.where(flip, pos_inf, neg_inf),
                                 np.where(flip, neg_inf, pos_inf)]).nonzero()[0] + m + n

    return StandardGeneralLP(
        c_original=p.c + 0.0, G=G, e_diag=e_diag, b=b, m=m, n=n,  # + 0.0 clears -0.0
        artificial_rows=frozenset(artificial.tolist()), objective_offset=p.objective_offset,
    )


def residuals(sp: StandardGeneralLP, x: np.ndarray) -> np.ndarray:
    """A x - b over all N stacked rows: the general rows' product ``G @ x``,
    and the bound rows +-e_i read off x as e_diag * x and its negation."""
    g, d = sp.m + sp.n, sp.d
    sigma = np.empty(sp.num_rows)
    sp.G.dot(x, out=sigma[:g])  # the gemv of G @ x, without the ufunc's overhead
    e = sigma[g : g + d]
    np.multiply(sp.e_diag, x, out=e)
    np.negative(e, out=sigma[g + d :])
    sigma -= sp.b
    return sigma


def violations(sp: StandardGeneralLP, x: np.ndarray) -> ViolationReport:
    """Componentwise residuals of every stacked row at x, and whether x is
    feasible: within each row's own tolerance, as in pricing and the
    oracle."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sp.d,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({sp.d},)")
    sigma = residuals(sp, x)
    return ViolationReport(sigma[: sp.m], sigma[sp.m:], sp.max_violation(sigma),
                           is_feasible=bool(sp.feasible(sigma, sp.row_tolerances())))


def objective_value(p: GeneralLP, x: np.ndarray) -> float:
    """c.x in the original (unflipped) coordinates, plus any constant term."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.d,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({p.d},)")
    return float(p.c @ x) + p.objective_offset


def lp_dual(p: GeneralLP) -> GeneralLP:
    """The LP dual of min c.x s.t. A_eq x = b_eq, A_ineq x >= b_ineq,
    l <= x <= u, as a minimization: a free variable per equality row and a
    nonnegative one per inequality row and per finite bound, with equality
    rows [A_eq^T A_ineq^T I_l -I_u] w = c and objective
    -[b_eq; b_ineq; l; -u].w - offset. Its optimum is minus the primal's."""
    low, up = np.isfinite(p.lower), np.isfinite(p.upper)
    eye = np.eye(p.d)
    A = np.hstack([p.A_eq.T, p.A_ineq.T, eye[:, low], -eye[:, up]])
    b = np.concatenate([p.b_eq, p.b_ineq, p.lower[low], -p.upper[up]])
    lower = np.zeros(A.shape[1])
    lower[: p.num_eq] = -np.inf
    return GeneralLP(c=-b, A_eq=A, b_eq=p.c, lower=lower,
                     objective_offset=-p.objective_offset)


# ---------------------------------------------------------------------------
# JSON problem format
# ---------------------------------------------------------------------------

def _bound_to_json(v: float):
    if np.isposinf(v):
        return "inf"
    if np.isneginf(v):
        return "-inf"
    return float(v)


def _bound_from_json(v) -> float:
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return np.inf
        if s in ("-inf", "-infinity"):
            return -np.inf
        raise MalformedInput(f"unrecognized bound sentinel {v!r}")
    return float(v)


def general_lp_to_dict(p: GeneralLP) -> dict:
    doc = {
        "c": p.c.tolist(),
        "A_eq": p.A_eq.tolist(),
        "b_eq": p.b_eq.tolist(),
        "A_ineq": p.A_ineq.tolist(),
        "b_ineq": p.b_ineq.tolist(),
        "lower": [_bound_to_json(v) for v in p.lower],
        "upper": [_bound_to_json(v) for v in p.upper],
    }
    if p.names:
        doc["names"] = p.names
    if p.objective_offset:
        doc["objective_offset"] = p.objective_offset
    return doc


def general_lp_from_dict(doc: dict) -> GeneralLP:
    """The problem a JSON document holds; a malformed one is ``MalformedInput``."""
    try:
        d = len(doc["c"])
        return GeneralLP(
            c=doc["c"],
            A_eq=doc.get("A_eq") or np.zeros((0, d)),
            b_eq=doc.get("b_eq") or np.zeros(0),
            A_ineq=doc.get("A_ineq") or np.zeros((0, d)),
            b_ineq=doc.get("b_ineq") or np.zeros(0),
            lower=[_bound_from_json(v) for v in doc["lower"]] if "lower" in doc else None,
            upper=[_bound_from_json(v) for v in doc["upper"]] if "upper" in doc else None,
            names=doc.get("names"),
            objective_offset=doc.get("objective_offset", 0.0),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        what = f"no field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise MalformedInput(f"malformed problem document: {what}") from None


def save_general_lp(p: GeneralLP, path) -> None:
    with open(path, "w") as fh:
        json.dump(general_lp_to_dict(p), fh, indent=1)
        fh.write("\n")


def load_general_lp(path) -> GeneralLP:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or bytes that are not text
            raise MalformedInput(f"not a JSON document: {exc}") from None
    return general_lp_from_dict(doc)
