"""Baselines and oracles: Dantzig-rule primal simplex on the equality
standard form, the bounded-variable conversion feeding it, and a brute-force
enumerator over facet bases used as ground truth in tests.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from facetlp.errors import NoLeavingCandidate, NumericalBreakdown, TooLarge
from facetlp.facet import SolveAudit, SolveOutcome, Status, final_status, finite_optimum
from facetlp.model import TOL_FEAS_BASE, GeneralLP, StandardGeneralLP

ENUMERATION_CAP = 2_000_000
TOL = 1e-9
_BLOCK = 2048  # bases per oracle block: sized for the cache, never changes the result


@dataclass
class StandardFormLP:
    """min c.x subject to A x = b, x >= 0, plus the projection back to the
    original coordinates: x_i = shift_i + sign_i * x_std[i] for the first
    ``shift.size`` entries, less the trailing columns for the variables
    listed in ``free``."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    shift: np.ndarray
    sign: np.ndarray
    free: np.ndarray
    objective_offset: float = 0.0

    def project(self, x_std: np.ndarray) -> np.ndarray:
        x = x_std[: self.shift.size] * self.sign + self.shift
        x[self.free] -= x_std[self.A.shape[1] - self.free.size :]
        return x


def to_standard_form(p: GeneralLP) -> StandardFormLP:
    """Rewrite a general problem as equalities over nonnegative variables.

    Each variable x becomes a nonnegative x': shifted by its finite lower
    bound, x = lower + x'; mirrored when only its upper bound is finite,
    x = upper - x'; and split when it is free, x = x' - x''. A variable
    whose x' has a finite upper bound w = upper - lower gets one row
    x' + y = w, y >= 0, stacked after the inequality block; x' >= 0 is its
    own sign. The columns are x', then one slack y per such row, then a
    surplus per inequality row, then the x'' columns.
    """
    lower, upper = p.lower, p.upper
    below = np.isneginf(lower)
    mirror = below & np.isfinite(upper)
    free = np.flatnonzero(below & ~mirror)
    sign = np.where(mirror, -1.0, 1.0)
    shift = np.where(mirror, upper, np.where(below, 0.0, lower))

    d, m, n = p.d, p.num_eq, p.num_ineq
    b_eq = p.b_eq - p.A_eq @ shift
    b_ineq = p.b_ineq - p.A_ineq @ shift
    width = upper - lower
    bounded = np.flatnonzero(np.isfinite(width))
    nb = bounded.size

    n_cols = d + nb + n + free.size
    n_rows = m + n + nb
    A = np.zeros((n_rows, n_cols))
    b = np.zeros(n_rows)

    A[:m, :d] = p.A_eq * sign
    b[:m] = b_eq
    A[m : m + n, :d] = p.A_ineq * sign
    b[m : m + n] = b_ineq
    for j in range(n):  # surplus columns for >= rows
        A[m + j, d + nb + j] = -1.0
    for k, i in enumerate(bounded):  # x_i + y_k = w_i
        A[m + n + k, i] = 1.0
        A[m + n + k, d + k] = 1.0
        b[m + n + k] = width[i]
    A[: m + n, d + nb + n :] = -A[: m + n, free]

    c = np.zeros(n_cols)
    c[:d] = p.c * sign
    c[d + nb + n :] = -p.c[free]
    offset = float(p.c @ shift) + p.objective_offset
    return StandardFormLP(
        A=A, b=b, c=c, shift=shift, sign=sign, free=free, objective_offset=offset,
    )


# ---------------------------------------------------------------------------
# Dantzig most-negative-rule primal simplex (tableau form)
# ---------------------------------------------------------------------------

@dataclass
class _Tableau:
    """A simplex tableau and its basic column per constraint row. ``pivot``
    is its one update rule, for the simplex loop and the phase-1 drive-out."""

    T: np.ndarray            # (k+1, N+1); row 0 = reduced costs, last col = rhs
    basis: np.ndarray        # basic column per constraint row

    @property
    def num_cols(self) -> int:
        return self.T.shape[1] - 1

    def price_out(self, cost: np.ndarray) -> None:
        self.T[0, :-1] = cost
        self.T[0, -1] = 0.0
        for i, j in enumerate(self.basis):
            cj = self.T[0, j]
            if cj != 0.0:
                self.T[0] -= cj * self.T[i + 1]

    def pivot(self, row: int, col: int) -> None:
        """Divide the pivot row by its pivot, then subtract from the whole
        tableau at once the outer product of the pivot column and that row,
        the pivot row's own product set to zero.

        A row whose factor is nonzero gets the same products and differences
        as a row-by-row update, and the pivot row stays as divided. A row
        whose factor is zero keeps its values but may turn a -0.0 into +0.0,
        which no choice reads: the entering and ratio tests compare values,
        and argmin takes -0.0 and +0.0 as equal. A pivot row holding an
        infinity or a NaN would put 0 * inf = NaN into those rows, so then
        (or when its finite sum overflows) only the rows with a nonzero
        factor are updated. The guard sums the row as Python floats: that
        costs about half of numpy's sum, and raises no floating-point warning
        of its own, where numpy's sum warns when it overflows and the row's
        dot with itself warns from entries of about 1e154 up.
        """
        T = self.T
        piv = T[row + 1]
        piv /= piv[col]
        if math.isfinite(sum(piv.tolist())):
            prod = T[:, col, None] * piv
            prod[row + 1] = 0.0
            T -= prod
        else:
            nonzero = T[:, col] != 0.0
            nonzero[row + 1] = False
            rows = nonzero.nonzero()[0]
            block = T[rows]
            block -= block[:, col, None] * piv
            T[rows] = block
        self.basis[row] = col

    def solution(self) -> np.ndarray:
        x = np.zeros(self.num_cols)
        x[self.basis] = self.T[1:, -1]
        return x


def _run_simplex(t: _Tableau, bland: bool, max_pivots: int,
                 audit: SolveAudit | None) -> tuple[Status, int]:
    """Pivot until no reduced cost is below -TOL, no row is eligible to
    leave, or ``max_pivots`` pivots are made.

    The most negative reduced cost enters, the first negative one under
    ``bland``. Rows whose column entry is above TOL are eligible; those
    within 1e-12 relative of the least ratio tie. The first tied row, the
    ``argmax`` of the tie mask, leaves with no gather of the tied rows; under
    ``bland`` the tied rows are gathered and the one with the least
    basic-variable index leaves, as Bland's guarantee needs. A NaN least
    ratio ties with no row, so the mask's ``argmax`` is not a tie, and under
    either rule that raises ``NoLeavingCandidate``. The entering and least-
    ratio tests read Python floats, and the cost row, body and rhs views are
    taken once: ``pivot`` updates the tableau in place.
    """
    costs, body, rhs = t.T[0, :-1], t.T[1:], t.T[1:, -1]
    pivots = 0
    while pivots < max_pivots:
        # Bland: the first negative cost; with none, argmax gives column 0, not negative
        col = int((costs < -TOL).argmax() if bland else costs.argmin())
        if not costs.item(col) < -TOL:
            return Status.OPTIMAL, pivots
        column = body[:, col]
        eligible = (column > TOL).nonzero()[0]
        if not eligible.size:
            return Status.UNBOUNDED, pivots
        ratios = rhs[eligible] / column[eligible]
        best = ratios.item(ratios.argmin())  # min's entry, NaN included, at less cost
        near = ratios <= best + 1e-12 * (1.0 + abs(best))
        i = near.argmax()
        if not near[i]:
            raise NoLeavingCandidate(f"the ratio test of column {col} is NaN")
        if bland:
            tied = eligible[near]
            row = int(tied[t.basis[tied].argmin()])
        else:
            row = int(eligible[i])
        t.pivot(row, col)
        pivots += 1
        if audit is not None:
            audit.record(t.basis)
    return Status.ITERATION_LIMIT, pivots


def dantzig_solve(
    sf: StandardFormLP,
    max_iter: int = 100_000,
    bland: bool = False,
    audit: bool = False,
) -> SolveOutcome:
    """Two-phase primal simplex with the most-negative entering rule.

    Rows already covered by a unit column start basic; only uncovered rows
    receive unit-cost artificial variables, so problems whose slack basis is
    feasible skip Phase 1 entirely. Ratio ties leave the basic variable with
    the least index. ``bland`` switches both choices to Bland's least-index
    rule, which guarantees termination on degenerate instances.

    Phase 2 runs on the tableau without the artificial columns and the rows
    found redundant. A pivot may turn a -0.0 into +0.0 (see
    :meth:`_Tableau.pivot`), and a mirrored variable's -0.0 shift in
    ``project`` would carry that sign into ``x_opt``, so ``x_opt`` and
    ``objective`` are returned without -0.0. An Optimal answer that is not
    finite, or whose basic solution rounding left below -``TOL_FEAS_BASE``
    or off a row by more than ``TOL_FEAS_BASE * (1 + |b_i| + ||a_i||_1
    max|x|)``, raises ``NumericalBreakdown``.
    """
    A = sf.A.copy()
    b = sf.b.copy()
    k, N = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # scan right to left so the appended slack/bound columns seed the basis,
    # the classic all-slack start when one exists
    basis = np.full(k, -1, dtype=int)
    for j in range(N - 1, -1, -1):
        col = A[:, j]
        nz = np.flatnonzero(col != 0.0)
        if nz.size == 1 and col[nz[0]] == 1.0 and basis[nz[0]] < 0:
            basis[nz[0]] = j
    uncovered = np.flatnonzero(basis < 0)
    n_art = uncovered.size

    T = np.zeros((k + 1, N + n_art + 1))
    T[1:, :N] = A
    T[1:, -1] = b
    for a, i in enumerate(uncovered):
        T[1 + i, N + a] = 1.0
        basis[i] = N + a

    t = _Tableau(T=T, basis=basis)
    audit_log = SolveAudit(seen={frozenset(t.basis.tolist())}) if audit else None

    # without artificials the start basis is feasible: phase 1 is done
    status, phase1, phase2 = Status.OPTIMAL, 0, 0
    if n_art:
        cost1 = np.zeros(N + n_art)
        cost1[N:] = 1.0
        t.price_out(cost1)
        status, phase1 = _run_simplex(t, bland, max_iter, audit_log)
        # phase-1 objective is -sum(artificials) in the rhs cell
        infeasible = t.T[0, -1] < -TOL * (1.0 + float(np.abs(b).max(initial=0.0)))
        if status is Status.OPTIMAL and infeasible:
            status = Status.INFEASIBLE
        if status is Status.OPTIMAL:
            # drive leftover artificials out of the basis; a row with no
            # candidate is redundant and dropped
            keep = np.ones(k + 1, dtype=bool)
            for i in np.flatnonzero(t.basis >= N):
                cands = np.flatnonzero(np.abs(t.T[1 + i, :N]) > TOL)
                if cands.size:
                    t.pivot(i, int(cands[0]))
                else:
                    keep[1 + i] = False
            # nothing in phase 2 reads the artificial columns: drop them too
            t = _Tableau(T=np.delete(t.T[keep], np.s_[N:-1], axis=1), basis=t.basis[keep[1:]])

    if status is Status.OPTIMAL:
        t.price_out(sf.c)
        status, phase2 = _run_simplex(t, bland, max_iter - phase1, audit_log)

    x_opt = objective = None
    if status is not Status.ITERATION_LIMIT:
        x_std = t.solution()[:N]
        x_opt = sf.project(x_std) + 0.0  # no -0.0 in the output
        if status is Status.OPTIMAL:
            objective = finite_optimum(x_opt, float(sf.c @ x_std) + sf.objective_offset + 0.0)
            # rounding grows with the largest x, which a wide box makes far above b_i
            scale = np.abs(sf.b) + np.abs(sf.A).sum(axis=1) * np.abs(x_std).max()
            off = np.abs(sf.A @ x_std - sf.b) > TOL_FEAS_BASE * (1.0 + scale)
            if off.any() or (x_std < -TOL_FEAS_BASE).any():
                raise NumericalBreakdown(f"the optimal basic solution is not feasible: {off.sum()} "
                                         f"rows off, least entry {float(x_std.min())!r}")
    return SolveOutcome(
        status=status, x_opt=x_opt, objective=objective,
        iterations=phase1 + phase2, audit=audit_log,
        phase1_iterations=phase1, phase2_iterations=phase2,
    )


# ---------------------------------------------------------------------------
# Brute-force enumeration over facet bases
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _bases(N: int, d: int, m: int = 0) -> np.ndarray:
    """Read-only (k, d) array of the d-subsets of range(N) that hold rows
    0..m-1, in lexicographic order, without the subsets holding both bound
    rows N-2d+i and N-d+i of one variable (the E and F rows of
    :func:`to_standard_general`). With m = 0 it holds every such subset.

    Built one column at a time from the prefix 0..m-1: each partial subset
    is extended, in order, by every larger index that still leaves room for
    the rest, and a new F row whose E row the subset already holds drops
    the subset at once.

    The full array is asked for as ``_bases(N, d)``, never with m = 0
    spelled out, so that it has one cache key. The seed-1 ``oracle`` deck
    of the benchmark takes 12 of the 16 slots: per shape, the prefix arrays
    of its ``feasible`` and ``infeasible`` instances, and the full arrays
    of its ``infeasible`` fallback and its ``unbounded`` instances.
    """
    f_row = N - d  # the F rows are f_row.. and row k's E row is k - d
    combos = np.arange(m, dtype=np.intp)[None, :]
    last = np.full(1, m - 1, dtype=np.intp)
    for j in range(m, d):
        counts = N - d + j - last  # entry j runs over last+1 .. N-d+j
        starts = np.cumsum(counts) - counts
        nxt = np.arange(counts.sum(), dtype=np.intp) + np.repeat(last + 1 - starts, counts)
        combos = np.repeat(combos, counts, axis=0)
        keep = (nxt < f_row) | ~(combos == (nxt - d)[:, None]).any(axis=1)
        combos = np.column_stack((combos[keep], nxt[keep]))
        last = combos[:, -1]
    combos.flags.writeable = False
    return combos


def _scans(sp: StandardGeneralLP) -> Iterator[np.ndarray]:
    """The index arrays :func:`brute_force_optimal` scans in turn, each
    built when it is reached: when 0 < m <= d the bases that hold every
    equality row, then every base."""
    N, d = sp.num_rows, sp.d
    if 0 < sp.m <= d:
        yield _bases(N, d, sp.m)
    yield _bases(N, d)


def _batched_solve(A: np.ndarray, b: np.ndarray,
                   combos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first stage of an oracle block: the rows and right-hand sides of
    the bases ``combos`` gathered from the stacked ``A`` and ``b``, and the
    block solved whole. np.linalg.solve wraps the gufunc called here but
    raises for the whole stack when one base is exactly singular; called
    directly, it returns NaN for that base alone. Returns the gathered rows
    and the solutions, one per base."""
    A_stack = np.take(A, combos, axis=0)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        return A_stack, _umath_linalg.solve(A_stack, np.take(b, combos)[..., None])[..., 0]


def _feasibility(sp: StandardGeneralLP, A: np.ndarray, X: np.ndarray,
                 tols: np.ndarray) -> np.ndarray:
    """The second stage: whether each solution in ``X`` is feasible within
    the row tolerances ``tols``. The residuals are laid out rows × bases,
    and ``feasible`` gets their transposed view, so each comparison runs
    over a row's contiguous lane of bases. An exactly singular base's NaN
    solution fails."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        S = A @ X.T
        S -= sp.b[:, None]
    return sp.feasible(S.T, tols)


def _det_filter(A_stack: np.ndarray, combos: np.ndarray, feas: np.ndarray,
                row_norms: np.ndarray) -> np.ndarray:
    """The last stage, on the feasible bases only: ``feas``, updated in
    place and returned, without the bases whose ``|det|`` is at most 1e-10
    times the Hadamard bound (the product of their row norms), which are
    numerically singular."""
    hadamard = np.prod(row_norms[combos[feas]], axis=1)
    dets = np.linalg.det(A_stack[feas])
    feas[feas] = np.abs(dets) > 1e-10 * np.maximum(hadamard, np.finfo(float).tiny)
    return feas


def brute_force_optimal(sp: StandardGeneralLP) -> SolveOutcome:
    """Enumerate the d-subsets of facets, solve the square systems in bulk,
    and keep the best feasible basic solution.

    This is the ground-truth oracle: a basic optimal solution exists whenever
    an optimum does, so exhaustive enumeration is exact at desk scale. On
    ties the non-artificial base wins; an optimum that can only be attained
    on an artificial big-M facet means the true problem is unbounded, with
    no objective. A least objective not finite raises ``NumericalBreakdown``.

    When 0 < m <= d it first scans only the bases that hold all m
    equality rows. Every vertex of {A x = b, G x >= h} whose equality rows
    are independent lies on such a base, and in lexicographic order these
    bases come before every other subset. So when that pass keeps a base,
    the first tied base, and the first artificial-free tied one, are those
    a scan of every subset picks. Only when it keeps none (the equality
    rows are dependent or inconsistent, or the LP is infeasible) are all
    the bases scanned, the prefix ones again among them. With m = 0 or
    m > d all of them are scanned at once.

    The index arrays come from :func:`_bases`, built once per (N, d, m)
    and cached. They skip the subsets holding both bound rows of one
    variable: those rows are e_i and -e_i, they stay exact negatives of
    each other through partially pivoted elimination, so their solve is
    NaN and the feasibility stage would drop them anyway. Outcomes
    are therefore those of enumerating every subset, and ``iterations``
    still counts all C(N, d) of them. Where the prefix pass keeps a single
    base, its objective is a dot product over one row and may differ from
    the many-row product's by an ulp or two.

    The bases are taken in blocks of ``_BLOCK``, sized for the cache: a
    block's arrays take about 1 MB at d = 5 with 22 rows and 2 MB at d = 8
    with 25, about one core's L2 (2 MB on the Xeon it was tuned on). The
    block size bounds only the per-block working arrays, and never the
    result: the full index array is C(N, d)-sized, and :func:`_bases`
    keeps up to 16 arrays for the life of the process. Each block passes
    through three stages: :func:`_batched_solve`, :func:`_feasibility` and,
    when some base is feasible, :func:`_det_filter`.
    """
    N, d = sp.num_rows, sp.d
    count = math.comb(N, d)
    if count > ENUMERATION_CAP:
        raise TooLarge(f"{count} bases exceed the enumeration cap {ENUMERATION_CAP}")

    A = sp.rows(np.arange(N))  # the stacked matrix, small under the cap
    row_norms = sp.row_norms()
    tols = sp.row_tolerances()
    kept_combos: list[np.ndarray] = []
    kept_X: list[np.ndarray] = []
    for bases in _scans(sp):
        for start in range(0, len(bases), _BLOCK):
            combos = bases[start : start + _BLOCK]
            A_stack, X = _batched_solve(A, sp.b, combos)
            feas = _feasibility(sp, A, X, tols)
            if feas.any() and _det_filter(A_stack, combos, feas, row_norms).any():
                kept_combos.append(combos[feas])
                kept_X.append(X[feas])
        if kept_combos:
            break
    if not kept_combos:
        return SolveOutcome(status=Status.INFEASIBLE, x_opt=None, objective=None,
                            iterations=int(count))

    combos = np.concatenate(kept_combos)
    X = np.concatenate(kept_X)
    objectives = X @ sp.c_original + sp.objective_offset
    first = objectives.argmin()  # a NaN's index if there is one, as min gives NaN
    best = finite_optimum(X[first], float(objectives[first]))
    tied = np.flatnonzero(objectives <= best + 1e-9 * (1.0 + abs(best)))
    # the first tied base free of artificial rows wins, else the first one
    real = (i for i in tied if sp.artificial_rows.isdisjoint(combos[i].tolist()))
    winner = next(real, tied[0])
    status, certificate = final_status(sp, combos[winner])
    objective = float(objectives[winner]) if status is Status.OPTIMAL else None
    return SolveOutcome(
        status=status, x_opt=X[winner], objective=objective,
        iterations=int(count), certificate=certificate,
        basis_rows=tuple(int(r) for r in combos[winner]),
    )
