"""Facet pivot simplex engine.

The solver walks among *bases*: sets of d independent rows (facets) of the
stacked constraint matrix. Every iterate x solves A_B x = b_B and carries
objective expansion coefficients y_c with A_B^T y_c = c and y_c >= 0 on the
inequality members of the base. Iterates are basic but generally infeasible;
each pivot swaps one violated non-base facet into the base so that the sign
condition is preserved and the objective never decreases. The first feasible
iterate is therefore optimal.

The start base is the bound block E, a diagonal of +-1 and its own
inverse, so the start iterate is read off E's signs with no factorization
or solve. Per iteration the factors of the base serve every linear solve:
the transpose solve for an entering general facet's expansion (a bound
facet's is a row of the inverse, read off it) and, once the pivot has
replaced a row of them, the two solves for the new iterate. One pass
of the ratio test also tells whether the leaving facet is redundant and
whether infeasibility is certified. A pivot hands the row swap and the
expansion to ``linalg.replace_row``, which updates the inverse of the base
in place at every d; where a tiny pivot element makes it decline, the
pivot factors the rows the new indices name afresh. It then solves y_c and
x from the new factors and computes the new residuals A x - b once, for
its own check and the next pricing. When an updated inverse gives an x whose base rows
fail the audit's basic-solution bound, the pivot factors the base afresh
and solves y_c and x again. A :class:`Base` is its row indices and their
factors; rows and rhs are read from the problem through the indices. A
pivot writes one slot of the base in place and replaces the
:class:`SolverState`, which is the iterate; ``solve`` writes neither.

``solve`` makes what every pivot reads once: the pricing tolerances, which
are infinite on the base rows so that pricing needs no mask of the base,
and the row norms. The small numpy calls around a pivot's kernels (five
BLAS calls, four when a bound row enters) cost as much as the kernels or
more (``scripts/split.py pivot``), so the step functions keep them few.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from facetlp import linalg
from facetlp.errors import NoLeavingCandidate, NumericalBreakdown, SingularMatrix
from facetlp.model import StandardGeneralLP, residuals

TOL_SIGN = 1e-9
TOL_LIN = 1e-9
TOL_OBJ_BASE = 1e-9
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
    """The d facets of the base in slot order: their row indices and the
    factors of A_B = ``sp.rows(indices)``. A slot holds an equality row
    exactly when its index is below ``sp.m``. Owned by one solve; a pivot
    writes slot s of ``indices`` and updates or replaces ``fact``, counting
    each fresh ``linalg.factor`` call in ``factorizations``."""

    indices: np.ndarray
    fact: linalg.SquareFactorization
    factorizations: int = 0


@dataclass
class SolverState:
    """The iterate: x, its expansion coefficients ``y_c`` over the base
    slots, and its residuals ``sigma`` = A x - b. A pivot replaces it."""

    x: np.ndarray
    y_c: np.ndarray
    sigma: np.ndarray


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
    """Per-pivot invariant checks and base-revisit accounting. ``seen``
    holds every base visited so far, the start base included."""

    violations: list[str] = field(default_factory=list)
    base_repeated: bool = False
    pivots_checked: int = 0
    seen: set[frozenset[int]] = field(default_factory=set, repr=False)

    def record(self, rows: np.ndarray) -> None:
        """Count one checked pivot, whose new base holds ``rows``."""
        key = frozenset(rows.tolist())
        self.base_repeated |= key in self.seen
        self.seen.add(key)
        self.pivots_checked += 1


@dataclass(frozen=True)
class SolveOutcome:
    """What a solver returns; only an Optimal one has an objective, finite.
    On an Infeasible outcome ``x_opt`` is no feasible point: ``solve`` gives
    its last iterate, ``dantzig_solve`` the phase-1 point mapped back, and
    ``brute_force_optimal`` None. ``factorizations`` counts the rebuilds of a
    ``solve``'s base (``Base.factorizations``); the other solvers leave it None."""

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
    factorizations: int | None = None


def initial_state(sp: StandardGeneralLP) -> tuple[Base, SolverState]:
    """Start from the signed-diagonal bound block E = diag(``sp.e_diag``),
    which is its own inverse, so the start is read off the signs without a
    factorization or a solve: x0 = E b_L solves E x0 = b_L, and the
    expansion coefficients y_c = E c = |c| are the nonnegative adjusted
    objective. Both are exact, bit for bit what solves from factors of E
    give."""
    g, d, e = sp.m + sp.n, sp.d, sp.e_diag
    base = Base(np.arange(g, g + d), linalg.signed_identity(e))
    x = e * sp.b[g : g + d] + 0.0  # + 0.0 clears -0.0, as the solve's sum does
    return base, SolverState(x, e * sp.c_original, residuals(sp, x))


def _iterate(sp: StandardGeneralLP, base: Base) -> SolverState:
    """y_c and x solved from the base's factors, and the residuals of x
    computed once."""
    x = linalg.solve(base.fact, sp.b[base.indices])
    y_c = linalg.solve_transpose(base.fact, sp.c_original)
    return SolverState(x, y_c, residuals(sp, x))


def select_entering(
    sp: StandardGeneralLP,
    state: SolverState,
    rule: PivotRule,
    row_tols: np.ndarray,
    row_norms: np.ndarray | None = None,
) -> int | None:
    """Pick the violated facet to enter, or None at optimality, from the
    state's residuals. A row whose tolerance is infinite is never violated,
    nor is one whose residual is NaN; ``solve`` gives an infinite tolerance
    to every row of the base and to each row it finds redundant, so neither
    enters. Only the max-norm-dev rule reads ``row_norms``.

    Violated equality rows take absolute priority over violated inequality
    rows; within the eligible class the pivot rule decides, ties going to the
    least row index.
    """
    sigma = state.sigma
    m = sp.m
    if not (m and (pool := (np.abs(sigma[:m]) > row_tols[:m]).nonzero()[0]).size):
        if rule is PivotRule.MAX_DEVIATION:
            # the first least sigma, when it is violated, is the first
            # deepest violated row; otherwise a row that may not enter, or
            # a NaN, holds the least, and the pool below decides
            k = sigma.argmin()
            if sigma[k] < -row_tols[k]:
                return int(k)
        pool = (sigma < -row_tols).nonzero()[0]
        if not pool.size:
            return None
        if rule is PivotRule.MAX_DEVIATION:
            return int(pool[sigma[pool].argmin()])

    if rule is PivotRule.LEAST_INDEX:
        return int(pool[0])
    deviation = np.abs(sigma[pool])
    if rule is PivotRule.MAX_NORMALIZED_DEVIATION:
        # a violated all-zero row gets infinite priority: entering, it
        # certifies infeasibility at once
        with np.errstate(divide="ignore"):
            deviation = deviation / row_norms[pool]
    # argmax returns the first maximizer and pool is ascending, so ties
    # resolve to the least row index
    return int(pool[deviation.argmax()])


def expand_entering(sp: StandardGeneralLP, base: Base, p: int) -> np.ndarray:
    """Coefficients y_p with A_B^T y_p = a_p, aligned with the base slots, in
    a fresh array. A general row takes a transpose solve; a bound row +-e_j
    expands to +-row j of the base's inverse, read off it."""
    g = sp.m + sp.n
    if p < g:
        return linalg.solve_transpose(base.fact, sp.G[p])
    j = (p - g) % sp.d
    sign = sp.e_diag.item(j)
    return linalg.solve_transpose_unit(base.fact, j, sign if p < g + sp.d else -sign)


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
    y_ineq = y_p[base.indices >= sp.m]
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
    sp: StandardGeneralLP,
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
    go to the least row index. Equality members never leave. A NaN least
    ratio ties with no slot and raises ``NoLeavingCandidate``.

    Returns the leaving slot and whether it was the only eligible one
    (``detect_leaving_redundant``'s test), or None if none is, which for a
    violated entering facet is ``check_infeasible``'s condition.
    """
    y_p = y_p if sigma_p < 0 else -y_p
    eligible = y_p > TOL_SIGN
    if sp.m:
        eligible &= base.indices >= sp.m
    slots = eligible.nonzero()[0]
    if slots.size < 2:
        return (int(slots[0]), True) if slots.size else None
    ratios = y_c[slots] / y_p[slots]
    # argmin's entry is min's (NaN too; a zero's sign aside); no abs needed
    i = ratios.argmin()
    best = float(ratios[i])
    tied = (ratios - best <= 1e-12 * (1.0 + abs(best))).nonzero()[0]
    if tied.size != 1:
        if not tied.size:
            raise NoLeavingCandidate("the ratio test is NaN")
        i = tied[base.indices[slots[tied]].argmin()]
    return int(slots[i]), False


def detect_leaving_redundant(sp: StandardGeneralLP, s: int, y_p: np.ndarray,
                             base: Base) -> bool:
    """True when every inequality member but the one in the leaving slot s
    has a nonpositive expansion entry, which proves the leaving facet can
    never bind again. The solve reads the same test off ``select_leaving``."""
    others = base.indices >= sp.m
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
    |y_p[s]| > ``TOL_SIGN``) out for facet p; solve the new iterate.

    Index p is written into slot s of ``base`` in place, and
    ``linalg.replace_row`` updates ``base.fact`` in place given y_p or, where
    it declines, ``sp.rows(base.indices)`` is factored afresh. y_c and x are
    solved from the factors, and their residuals A x - b computed once. One
    check guards the iterate: if the factors were updated and the largest
    residual on the base rows exceeds ``TOL_LIN * (1 + max |b_B|)``, the
    audit's basic-solution bound, the base is factored afresh and y_c, x and
    the residuals solved again. Either rebuild adds one to
    ``base.factorizations``. Returns ``base`` and a new state; ``state`` is
    left as it was. When ``linalg.factor`` finds the new base singular, on
    either path, its SingularMatrix is raised again naming both rows. Where
    ``replace_row`` had declined, index s is restored and ``base`` is as it
    was; where the check's rebuild raised, ``base`` holds p and its updated
    inverse.
    """
    q = base.indices[s]
    base.indices[s] = p
    # only factor raises SingularMatrix, and it assigns nothing when it
    # does; where replace_row declined, the old factors are intact
    updated = linalg.replace_row(base.fact, s, y_p)
    try:
        # an updated inverse drifts from the base it stands for, so its
        # iterate is checked at the audit's basic-solution bound, which
        # scales with the largest rhs of the base: a row's own 1 + |b_i|
        # would flag the rounding of a product with a large x (near 2.4e15
        # on km1 at d=12) on rows whose b_i is small. The bound is never
        # below TOL_LIN, so most pivots stop at that first test; argmax
        # finds max's entry without a reduction, and a NaN residual, which
        # compares False, is kept
        if updated:
            new = _iterate(sp, base)
            res = np.abs(new.sigma[base.indices])
            worst = res[res.argmax()]
            if not worst > TOL_LIN:
                return base, new
            b_B = np.abs(sp.b[base.indices])
            if not worst > TOL_LIN * (1.0 + b_B[b_B.argmax()]):
                return base, new
        # the one rebuild: replace_row declined, or its inverse drifted
        base.factorizations += 1
        base.fact = linalg.factor(sp.rows(base.indices))
        new = _iterate(sp, base)
    except SingularMatrix as exc:
        if not updated:
            base.indices[s] = q
        raise SingularMatrix(
            f"pivot {p}<->{q} produced a singular base, which the independence "
            f"property rules out; numerical breakdown at diagonal entry "
            f"{exc.pivot_index}",
            exc.pivot_index,
        ) from exc
    return base, new


def solve(
    sp: StandardGeneralLP,
    rule: PivotRule = PivotRule.MAX_DEVIATION,
    max_iter: int = 10_000,
    *,
    collect_trace: bool = False,
    audit: bool = False,
) -> SolveOutcome:
    """Run the facet pivot loop to a terminal status.

    ``audit`` checks the four runtime invariants after every pivot and
    records base index sets to detect revisits. After ``STALL_ITERATIONS``
    pivots without objective progress the rule switches to the least-index
    rule, whose termination guarantee breaks any cycling.
    """
    c = sp.c_original
    # each row's own tolerance, infinite once the row is found redundant;
    # pricing reads a copy that is infinite on the base rows as well
    own_tols = sp.row_tolerances()
    row_norms = sp.row_norms() if rule is PivotRule.MAX_NORMALIZED_DEVIATION else None

    base, state = initial_state(sp)
    row_tols = own_tols.copy()
    row_tols[base.indices] = np.inf
    iteration = 0
    trace: list[TraceRecord] | None = [] if collect_trace else None
    audit_log = SolveAudit(seen={frozenset(base.indices.tolist())}) if audit else None
    c_scale = 1.0 + float(np.max(np.abs(c), initial=0.0)) if audit else None

    active_rule = rule
    offset = sp.objective_offset
    # c.dot is the ddot that c @ makes, without the ufunc's overhead
    objective = float(c.dot(state.x)) + offset
    best_objective = objective
    stall = 0

    # every exit sets status, x_opt, objective and certificate, then breaks
    while True:
        sigma = state.sigma
        p = select_entering(sp, state, active_rule, row_tols, row_norms)
        if p is None:
            x_opt = state.x + 0.0  # clear -0.0
            status, certificate = final_status(sp, base.indices)
            objective = (finite_optimum(x_opt, float(c.dot(x_opt)) + offset)
                         if status is Status.OPTIMAL else None)
            break

        if iteration >= max_iter:
            status, x_opt, objective = Status.ITERATION_LIMIT, state.x, None
            certificate = None
            break

        sigma_p = float(sigma[p])
        y_p = expand_entering(sp, base, p)
        leaving = select_leaving(sp, sigma_p, y_p, state.y_c, base)
        if leaving is None:
            # for a violated entering facet that is the Farkas condition
            certificate = check_infeasible(sp, p, sigma_p, y_p, base)
            if certificate is None:
                raise NoLeavingCandidate(f"no positive expansion entry for facet {p}")
            if trace is not None:
                trace.append(TraceRecord(
                    k=iteration, entering=p, leaving=-1,
                    objective=objective, max_violation=abs(sigma_p),
                    rule=active_rule.value, note=certificate.note or "infeasible",
                ))
            status, x_opt, objective = Status.INFEASIBLE, state.x, None
            break

        s, sole = leaving
        q = int(base.indices[s])
        if sole:
            # the leaving row can never bind again: it is redundant, never to re-enter
            own_tols[q] = np.inf
        row_tols[q], row_tols[p] = own_tols[q], np.inf

        prev_objective = objective
        base, state = pivot(sp, base, state, p, s, y_p)
        iteration += 1

        objective = float(c.dot(state.x)) + offset
        if trace is not None:
            trace.append(TraceRecord(
                k=iteration - 1, entering=p, leaving=q,
                objective=objective, max_violation=sp.max_violation(sigma),
                rule=active_rule.value,
            ))

        if audit_log is not None:
            _audit_pivot(
                sp, base, state, iteration, prev_objective, objective, c_scale,
                audit_log,
            )

        tol_obj = TOL_OBJ_BASE * (1.0 + max(abs(objective), abs(best_objective)))
        if objective > best_objective + tol_obj:
            best_objective = objective
            stall = 0
        else:
            stall += 1
            if stall >= STALL_ITERATIONS and active_rule is not PivotRule.LEAST_INDEX:
                active_rule = PivotRule.LEAST_INDEX
                stall = 0

    return SolveOutcome(
        status=status, x_opt=x_opt, objective=objective,
        iterations=iteration, certificate=certificate,
        redundant_rows=frozenset(np.isinf(own_tols).nonzero()[0].tolist()),
        basis_rows=tuple(base.indices.tolist()),
        trace=trace, audit=audit_log, factorizations=base.factorizations,
    )


def final_status(sp: StandardGeneralLP, rows: np.ndarray) -> tuple[Status, int | None]:
    """The status of a final base holding ``rows``, and its certificate:
    Unbounded when the base holds an artificial big-M row, the least of
    which certifies it, and Optimal otherwise."""
    artificial = sp.artificial_rows.intersection(rows.tolist())
    return (Status.UNBOUNDED, min(artificial)) if artificial else (Status.OPTIMAL, None)


def finite_optimum(x_opt: np.ndarray, objective: float) -> float:
    """``objective``, once it and ``x_opt`` are found finite: every solver
    checks its Optimal answer here, once, and one that overflowed or is NaN
    is a numerical breakdown."""
    if not (math.isfinite(objective) and np.isfinite(x_opt).all()):
        raise NumericalBreakdown(f"the optimal objective {objective!r} is not finite")
    return objective


def _audit_pivot(
    sp: StandardGeneralLP,
    base: Base,
    state: SolverState,
    k: int,
    prev_objective: float,
    objective: float,
    c_scale: float,
    audit_log: SolveAudit,
) -> None:
    audit_log.record(base.indices)

    y_ineq = state.y_c[base.indices >= sp.m]
    if y_ineq.size and float(y_ineq.min()) < -TOL_SIGN:
        audit_log.violations.append(
            f"iter {k}: sign maintenance broken, min y_c={y_ineq.min():.3e}"
        )

    # the rows the indices name, so an index the factors do not stand for
    # shows as a residual
    A_B, b_B = sp.rows(base.indices), sp.b[base.indices]
    res = float(np.abs(A_B.T @ state.y_c - sp.c_original).max())
    if res > TOL_LIN * c_scale:
        audit_log.violations.append(
            f"iter {k}: expansion residual {res:.3e} exceeds tolerance"
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

