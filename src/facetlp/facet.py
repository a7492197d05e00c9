"""Facet pivot simplex engine.

The solver walks among *bases*: sets of d independent rows (facets) of the
stacked constraint matrix. Every iterate x solves A_B x = b_B and carries
objective expansion coefficients y_c with A_B^T y_c = c and y_c >= 0 on the
inequality members of the base. Iterates are basic but generally infeasible;
each pivot swaps one violated non-base facet into the base so that the sign
condition is preserved and the objective never decreases. The first feasible
iterate is therefore optimal.

Per iteration one factorization of the base serves both linear solves: the
transpose solve for the entering facet's expansion and the rank-one update
of the iterate. One pass of the ratio test also tells whether the leaving
facet is redundant and whether infeasibility is certified. A pivot hands
the row swap and the expansion to ``linalg.replace_row``, which refactors
small bases (d below ``linalg.INVERSE_MIN_D``) as an LU and updates the
inverse of larger ones in place, and computes the new residuals A x - b
once, for its own residual check and the next pricing. The inverse is
computed afresh only on evidence: when y_c drifts, or when the iterate
fails its residual check and is solved directly; y_c is then recomputed
from the fresh factors too.
The base rows A_B and b_B are owned by the solve and written in place, one
row per pivot, as are the base's indices, equality flags and factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from facetlp import linalg
from facetlp.errors import NoLeavingCandidate, SingularMatrix
from facetlp.model import StandardGeneralLP, TOL_FEAS_BASE, residuals

TOL_SIGN = 1e-9
TOL_LIN = 1e-9
TOL_OBJ_BASE = 1e-9
YC_DRIFT_FACTOR = 10.0
STALL_ITERATIONS = 200


class PivotRule(Enum):
    MAX_DEVIATION = "max-dev"
    MAX_NORMALIZED_DEVIATION = "max-norm-dev"
    LEAST_INDEX = "least-index"


class Status(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    ITERATION_LIMIT = "IterationLimit"


@dataclass
class Base:
    """Ordered set of d facet indices with its current factorization; a
    pivot updates all three in place."""

    indices: np.ndarray
    is_eq: np.ndarray
    fact: linalg.SquareFactorization

    def slot_of(self, row: int) -> int:
        slots = (self.indices == row).nonzero()[0]
        if slots.size != 1:
            raise KeyError(f"row {row} is not in the base")
        return int(slots[0])


@dataclass
class SolverState:
    """Mutable per-solve bookkeeping; owned exclusively by one solve call.
    ``sigma`` is A x - b. ``A_B`` (C-ordered) and ``b_B`` are the base rows in
    slot order, written in place by each pivot and shared by every state."""

    x: np.ndarray
    y_c: np.ndarray
    sigma: np.ndarray
    A_B: np.ndarray
    b_B: np.ndarray
    iteration: int = 0
    removed_rows: set[int] = field(default_factory=set)
    trace: list[TraceRecord] | None = None


@dataclass(frozen=True)
class TraceRecord:
    k: int
    entering: int
    leaving: int
    objective: float
    max_violation: float
    rule: str
    note: str | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "k": self.k,
            "p": self.entering,
            "q": self.leaving,
            "objective": self.objective,
            "max_violation": self.max_violation,
            "rule": self.rule,
        }
        if self.note is not None:
            doc["note"] = self.note
        return doc


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Entering facet whose expansion sign pattern rules out any feasible point."""

    entering_row: int
    case: int
    sigma: float
    y_by_row: dict[int, float]
    note: str | None = None


@dataclass
class SolveAudit:
    """Per-pivot invariant checks and base-revisit accounting."""

    violations: list[str] = field(default_factory=list)
    base_repeated: bool = False
    pivots_checked: int = 0


@dataclass(frozen=True)
class SolveOutcome:
    status: Status
    x_opt: np.ndarray | None
    objective: float | None
    iterations: int
    certificate: InfeasibilityCertificate | int | None = None
    redundant_rows: frozenset[int] = frozenset()
    basis_rows: tuple[int, ...] | None = None
    trace: list[TraceRecord] | None = None
    audit: SolveAudit | None = None
    phase1_iterations: int | None = None
    phase2_iterations: int | None = None


def initial_state(sp: StandardGeneralLP) -> tuple[Base, SolverState]:
    """Start from the signed-diagonal bound block: x0 solves E x0 = b_L and
    the expansion coefficients are the nonnegative adjusted objective."""
    d = sp.d
    rows = np.arange(sp.m + sp.n, sp.m + sp.n + d)
    A_B = np.ascontiguousarray(sp.A[rows])
    b_B = sp.b[rows]
    fact = linalg.factor(A_B)
    x0 = fact.solve(b_B)
    base = Base(indices=rows, is_eq=np.zeros(d, dtype=bool), fact=fact)
    state = SolverState(x0, sp.c_bar.astype(float).copy(), residuals(sp, x0), A_B, b_B)
    return base, state


def _row_norms(sp: StandardGeneralLP) -> np.ndarray:
    return np.linalg.norm(sp.A, axis=1)


def select_entering(
    sp: StandardGeneralLP,
    base: Base,
    state: SolverState,
    rule: PivotRule,
    row_tols: np.ndarray | None = None,
    row_norms: np.ndarray | None = None,
) -> int | None:
    """Pick the violated non-base facet to enter, or None at optimality,
    from the state's residuals.

    Violated equality rows take absolute priority over violated inequality
    rows; within the eligible class the pivot rule decides, ties going to the
    least row index.
    """
    sigma = state.sigma
    if row_tols is None:
        row_tols = sp.row_tolerances()
    m = sp.m
    violated = np.empty(sp.num_rows, dtype=bool)
    np.greater(np.abs(sigma[:m]), row_tols[:m], out=violated[:m])
    np.less(sigma[m:], -row_tols[m:], out=violated[m:])
    violated[base.indices] = False
    if state.removed_rows:
        violated[list(state.removed_rows)] = False

    pool = violated[:m].nonzero()[0]
    if not pool.size:
        # no equality row is violated, so the whole mask holds inequalities only
        pool = violated.nonzero()[0]
        if not pool.size:
            return None

    if rule is PivotRule.LEAST_INDEX:
        return int(pool[0])
    deviation = np.abs(sigma[pool])
    if rule is PivotRule.MAX_NORMALIZED_DEVIATION:
        if row_norms is None:
            row_norms = _row_norms(sp)
        # a violated all-zero row gets infinite priority: entering, it
        # certifies infeasibility at once
        with np.errstate(divide="ignore"):
            deviation = deviation / row_norms[pool]
    # argmax returns the first maximizer and pool is ascending, so ties
    # resolve to the least row index
    return int(pool[deviation.argmax()])


def expand_entering(base: Base, a_p: np.ndarray) -> np.ndarray:
    """Coefficients y_p with A_B^T y_p = a_p, aligned with the base slots."""
    return base.fact.solve_transpose(np.asarray(a_p, dtype=float))


def check_infeasible(
    sp: StandardGeneralLP,
    p: int,
    sigma_p: float,
    y_p: np.ndarray,
    base: Base,
) -> InfeasibilityCertificate | None:
    """Farkas-style test on the entering facet's expansion.

    A violated-from-below facet whose expansion is nonpositive on every
    inequality member, or an over-violated equality facet whose expansion is
    nonnegative there, certifies an empty feasible set.
    """
    y_ineq = y_p[~base.is_eq]
    if sigma_p < 0 and (y_ineq <= TOL_SIGN).all():
        case = 1
    elif p < sp.m and sigma_p > 0 and (y_ineq >= -TOL_SIGN).all():
        case = 2
    else:
        return None
    note = None
    if p < sp.m and (np.abs(y_ineq) <= TOL_SIGN).all():
        note = "entering equality depends only on base equalities, rhs inconsistent"
    return InfeasibilityCertificate(
        entering_row=p,
        case=case,
        sigma=float(sigma_p),
        y_by_row={int(r): float(v) for r, v in zip(base.indices, y_p)},
        note=note,
    )


def select_leaving(
    p: int,
    sigma_p: float,
    y_p: np.ndarray,
    y_c: np.ndarray,
    base: Base,
) -> tuple[int, bool] | None:
    """The ratio test, in one pass over the inequality members of the base:
    minimize y_c/y_p over positive y_p, so the updated expansion stays
    nonnegative there. An over-violated entering equality enters as its
    mirror image -a_p >= -b_p, whose expansion is -y_p; negation is exact, so
    this picks the row that maximizing y_c/y_p over negative y_p would. Ties
    go to the least row index. Equality members never leave.

    Returns the leaving slot and whether it was the only eligible one
    (``detect_leaving_redundant``'s test), or None if none is, which for a
    violated entering facet is ``check_infeasible``'s condition.
    """
    y_p = y_p if sigma_p < 0 else -y_p
    slots = (~base.is_eq & (y_p > TOL_SIGN)).nonzero()[0]
    if not slots.size:
        return None
    ratios = y_c[slots] / y_p[slots]
    best = ratios.min()
    tied = slots[np.abs(ratios - best) <= 1e-12 * (1.0 + abs(best))]
    return int(tied[base.indices[tied].argmin()]), slots.size == 1


def detect_leaving_redundant(q: int, y_p: np.ndarray, base: Base) -> bool:
    """True when every other inequality member has a nonpositive expansion
    entry, which proves the leaving facet can never bind again. The solve
    reads the same test off ``select_leaving``."""
    s = base.slot_of(q)
    others = ~base.is_eq
    others[s] = False
    return bool((y_p[others] <= TOL_SIGN).all())


def pivot(
    sp: StandardGeneralLP,
    base: Base,
    state: SolverState,
    p: int,
    s: int,
    y_p: np.ndarray,
) -> tuple[Base, SolverState]:
    """Swap the facet in slot s (as ``select_leaving`` returns it, so
    |y_p[s]| > ``TOL_SIGN``) out for facet p; update iterate and expansion.

    The iterate moves along w = A_B^{-1} e_s, solved from the same
    factorization that produced y_p, so one factorization per iteration
    covers both solves. Row p is written into slot s of ``A_B``/``b_B`` and
    ``base`` is updated in place, its factors by ``linalg.replace_row`` given
    y_p. The new residuals A x - b are computed once; if their base rows fail
    the basic-solution tolerance, updated factors are rebuilt from scratch
    and y_c solved afresh from them, the iterate is solved for directly and
    its residuals recomputed.
    Returns ``base`` and a fresh state with the new ``x`` and ``sigma``. A
    singular new base restores row s before raising ``SingularMatrix``.
    """
    ratio = state.y_c[s] / y_p[s]

    unit = np.zeros(sp.d)
    unit[s] = 1.0
    w = base.fact.solve(unit)
    a_p = sp.A[p]
    step = (sp.b[p] - a_p @ state.x) / y_p[s]
    x_new = state.x + step * w

    A_B, b_B = state.A_B, state.b_B
    A_B[s] = a_p
    b_B[s] = sp.b[p]
    fact = linalg.replace_row(base.fact, s, y_p, A_B)
    if fact.singular:
        q = base.indices[s]
        A_B[s] = sp.A[q]
        b_B[s] = sp.b[q]
        raise SingularMatrix(
            f"pivot {p}<->{q} produced a singular base, which the independence "
            f"property rules out; numerical breakdown at diagonal entry "
            f"{fact.bad_pivot_index}",
            fact.bad_pivot_index,
        )
    base.indices[s] = p
    base.is_eq[s] = p < sp.m

    y_c = state.y_c - y_p * ratio
    y_c[s] = ratio

    # the rank-one step cancels catastrophically when big-M coordinates
    # collapse to small values, so verify row by row at the same tolerance
    # the basic-solution invariant uses and fall back to a direct solve
    sigma = residuals(sp, x_new)
    if (np.abs(sigma[base.indices]) > TOL_LIN * (1.0 + np.abs(b_B))).any():
        if fact.updates:
            fact = linalg.factor(A_B)
            y_c = fact.solve_transpose(sp.c_original)
        x_new = fact.solve(b_B)
        sigma = residuals(sp, x_new)
    base.fact = fact

    return base, SolverState(
        x=x_new, y_c=y_c, sigma=sigma, A_B=A_B, b_B=b_B, iteration=state.iteration + 1,
        removed_rows=state.removed_rows, trace=state.trace,
    )


def solve(
    sp: StandardGeneralLP,
    rule: PivotRule = PivotRule.MAX_DEVIATION,
    max_iter: int = 10_000,
    *,
    collect_trace: bool = False,
    audit: bool = False,
    tol_feas: float | None = None,
    stall_iterations: int = STALL_ITERATIONS,
) -> SolveOutcome:
    """Run the facet pivot loop to a terminal status.

    ``tol_feas`` overrides the per-row violation tolerances with one
    absolute value. ``audit`` checks the five runtime invariants after every
    pivot and records base index sets to detect revisits. After
    ``stall_iterations`` pivots without objective progress the rule switches
    to the least-index rule, whose termination guarantee breaks any cycling.
    """
    c = sp.c_original
    c_scale = 1.0 + float(np.max(np.abs(c), initial=0.0))
    row_tols = (
        np.full(sp.num_rows, tol_feas) if tol_feas is not None
        else sp.row_tolerances(TOL_FEAS_BASE)
    )
    row_norms = _row_norms(sp) if rule is PivotRule.MAX_NORMALIZED_DEVIATION else None

    base, state = initial_state(sp)
    if collect_trace:
        state.trace = []
    audit_log = SolveAudit() if audit else None
    seen_bases: set[frozenset[int]] = set()
    if audit:
        seen_bases.add(frozenset(base.indices.tolist()))

    active_rule = rule
    offset = sp.objective_offset
    objective = float(c @ state.x) + offset
    best_objective = objective
    stall = 0

    # every exit sets status, x_opt, objective and certificate, then breaks
    while True:
        sigma = state.sigma
        p = select_entering(sp, base, state, active_rule, row_tols, row_norms)
        if p is None:
            x_opt = base.fact.solve(state.b_B) + 0.0  # clear -0.0
            objective = float(c @ x_opt) + offset
            artificial = sorted(set(base.indices.tolist()) & sp.artificial_rows)
            status = Status.UNBOUNDED if artificial else Status.OPTIMAL
            certificate = int(artificial[0]) if artificial else None
            break

        if state.iteration >= max_iter:
            status, x_opt, objective = Status.ITERATION_LIMIT, state.x, None
            certificate = None
            break

        y_p = expand_entering(base, sp.A[p])
        leaving = select_leaving(p, float(sigma[p]), y_p, state.y_c, base)
        if leaving is None:
            # for a violated entering facet that is the Farkas condition
            certificate = check_infeasible(sp, p, float(sigma[p]), y_p, base)
            if certificate is None:
                raise NoLeavingCandidate(f"no positive expansion entry for facet {p}")
            if state.trace is not None:
                state.trace.append(TraceRecord(
                    k=state.iteration, entering=p, leaving=-1,
                    objective=objective, max_violation=float(abs(sigma[p])),
                    rule=active_rule.value, note=certificate.note or "infeasible",
                ))
            status, x_opt, objective = Status.INFEASIBLE, state.x, None
            break

        s, sole = leaving
        q = int(base.indices[s])
        if sole:
            state.removed_rows.add(q)

        prev_objective = objective
        base, state = pivot(sp, base, state, p, s, y_p)

        # keep the incremental expansion honest: refresh it when it drifts
        drift = float(np.abs(state.A_B.T @ state.y_c - c).max())
        if drift > YC_DRIFT_FACTOR * TOL_LIN * c_scale:
            base.fact = linalg.refactor(base.fact, state.A_B)
            state.y_c = base.fact.solve_transpose(c)

        objective = float(c @ state.x) + offset
        if state.trace is not None:
            state.trace.append(TraceRecord(
                k=state.iteration - 1, entering=p, leaving=q,
                objective=objective, max_violation=_max_violation(sp, sigma),
                rule=active_rule.value,
            ))

        if audit_log is not None:
            _audit_pivot(
                sp, base, state, prev_objective, objective, c_scale,
                audit_log, seen_bases,
            )

        tol_obj = TOL_OBJ_BASE * (1.0 + max(abs(objective), abs(best_objective)))
        if objective > best_objective + tol_obj:
            best_objective = objective
            stall = 0
        else:
            stall += 1
            if stall >= stall_iterations and active_rule is not PivotRule.LEAST_INDEX:
                active_rule = PivotRule.LEAST_INDEX
                stall = 0

    return SolveOutcome(
        status=status, x_opt=x_opt, objective=objective,
        iterations=state.iteration, certificate=certificate,
        redundant_rows=frozenset(state.removed_rows),
        basis_rows=tuple(int(r) for r in base.indices),
        trace=state.trace, audit=audit_log,
    )


def _max_violation(sp: StandardGeneralLP, sigma: np.ndarray) -> float:
    eq_part = float(np.max(np.abs(sigma[: sp.m]), initial=0.0))
    return max(eq_part, float(np.max(-sigma[sp.m:], initial=0.0)))


def _audit_pivot(
    sp: StandardGeneralLP,
    base: Base,
    state: SolverState,
    prev_objective: float,
    objective: float,
    c_scale: float,
    audit_log: SolveAudit,
    seen_bases: set[frozenset[int]],
) -> None:
    k = state.iteration
    audit_log.pivots_checked += 1

    y_ineq = state.y_c[~base.is_eq]
    if y_ineq.size and float(y_ineq.min()) < -TOL_SIGN:
        audit_log.violations.append(
            f"iter {k}: sign maintenance broken, min y_c={y_ineq.min():.3e}"
        )

    A_B, b_B, rows = state.A_B, state.b_B, base.indices
    if (A_B.tobytes(), b_B.tobytes()) != (sp.A[rows].tobytes(), sp.b[rows].tobytes()):
        audit_log.violations.append(f"iter {k}: owned base rows differ from A[indices]")

    drift = float(np.abs(A_B.T @ state.y_c - sp.c_original).max())
    if drift > TOL_LIN * c_scale:
        audit_log.violations.append(
            f"iter {k}: expansion residual {drift:.3e} exceeds tolerance"
        )

    res = float(np.abs(A_B @ state.x - b_B).max())
    allowed = TOL_LIN * (1.0 + float(np.max(np.abs(b_B), initial=0.0)))
    if res > allowed:
        audit_log.violations.append(
            f"iter {k}: basic-solution residual {res:.3e} exceeds {allowed:.3e}"
        )

    tol_obj = TOL_OBJ_BASE * (1.0 + max(abs(objective), abs(prev_objective)))
    if objective < prev_objective - tol_obj:
        audit_log.violations.append(
            f"iter {k}: objective decreased {prev_objective!r} -> {objective!r}"
        )

    key = frozenset(int(r) for r in base.indices)
    if key in seen_bases:
        audit_log.base_repeated = True
    seen_bases.add(key)


def solve_general(
    p,
    rule: PivotRule = PivotRule.MAX_DEVIATION,
    max_iter: int = 10_000,
    big_M: float | None = None,
    **kwargs,
) -> SolveOutcome:
    """Convenience wrapper: convert a GeneralLP and solve it."""
    from facetlp.model import to_standard_general

    sp = to_standard_general(p, big_M=big_M)
    return solve(sp, rule=rule, max_iter=max_iter, **kwargs)
