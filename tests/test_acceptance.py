"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line when it holds. Budgets are asserted with the wall clock.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from facetlp.facet import PivotRule, Status, solve
from facetlp.generators import (
    CYCLING_FIXTURE_IDS,
    cycling_fixture,
    klee_minty_v1,
    klee_minty_v2,
    random_instance,
)
from facetlp.model import (
    general_lp_from_dict,
    general_lp_to_dict,
    to_standard_general,
    violations,
)
from facetlp.mps import read_mps
from facetlp.reference import brute_force_optimal, dantzig_solve, to_standard_form

ORACLE_SHAPES = [(3, 1, 4), (4, 1, 6), (5, 2, 8)]
ORACLE_SEEDS = 500


def _report(number: int, ok: bool, text: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} - {text}", flush=True)
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_km2_iteration_counts():
    t0 = time.perf_counter()
    ok = True
    for d in range(3, 20):
        out = solve(to_standard_general(klee_minty_v2(d)), PivotRule.MAX_DEVIATION)
        ok &= out.status is Status.OPTIMAL
        ok &= out.iterations == d
        ok &= out.objective == -(2.0**d - 1.0)  # exact in doubles
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, ok, f"variant-2 cubes d=3..19 in exactly d pivots, "
                   f"exact objectives ({elapsed:.2f}s)")


def test_criterion_2_km1_counts_and_dantzig_baseline():
    t0 = time.perf_counter()
    ok = True
    for d in range(3, 17):
        out = solve(to_standard_general(klee_minty_v1(d)), PivotRule.MAX_DEVIATION)
        ok &= out.status is Status.OPTIMAL and out.iterations == d
        ok &= abs(out.objective + 5.0**d) <= 1e-12 * 5.0**d
    for d in range(3, 13):
        base = dantzig_solve(to_standard_form(klee_minty_v1(d)))
        ok &= base.status is Status.OPTIMAL
        ok &= base.phase2_iterations == 2**d - 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(2, ok, f"variant-1 cubes: facet d pivots to -5^d (d=3..16), "
                   f"baseline 2^d-1 pivots (d=3..12) ({elapsed:.2f}s)")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for (d, m, n) in ORACLE_SHAPES:
        for seed in range(ORACLE_SEEDS):
            sp = to_standard_general(random_instance(seed, d, m, n, "feasible"))
            got = solve(sp)
            want = brute_force_optimal(sp)
            if got.status != want.status:
                mismatches += 1
                continue
            if want.status is Status.OPTIMAL:
                rel = abs(got.objective - want.objective) / (1 + abs(want.objective))
                if rel > 1e-7:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    _report(3, ok, f"{ORACLE_SEEDS} seeds x {len(ORACLE_SHAPES)} shapes vs "
                   f"enumeration, {mismatches} mismatches ({elapsed:.1f}s)")


def test_criterion_4_runtime_invariants_on_criteria_1_to_3():
    """Re-run every facet solve from criteria 1-3 with the per-pivot audit:
    sign maintenance, expansion consistency, basic-solution residual and
    objective monotonicity must never trip."""
    t0 = time.perf_counter()
    violations_total = 0
    pivots_total = 0
    for d in range(3, 20):
        out = solve(to_standard_general(klee_minty_v2(d)), audit=True)
        violations_total += len(out.audit.violations)
        pivots_total += out.audit.pivots_checked
    for d in range(3, 17):
        out = solve(to_standard_general(klee_minty_v1(d)), audit=True)
        violations_total += len(out.audit.violations)
        pivots_total += out.audit.pivots_checked
    for (d, m, n) in ORACLE_SHAPES:
        for seed in range(ORACLE_SEEDS):
            sp = to_standard_general(random_instance(seed, d, m, n, "feasible"))
            out = solve(sp, audit=True)
            violations_total += len(out.audit.violations)
            pivots_total += out.audit.pivots_checked
    elapsed = time.perf_counter() - t0
    ok = violations_total == 0 and pivots_total > 0
    _report(4, ok, f"4 invariants on {pivots_total} audited pivots, "
                   f"{violations_total} violations ({elapsed:.1f}s)")


def test_criterion_5_termination_audit_on_cycling_fixtures():
    t0 = time.perf_counter()
    ok = True
    for fid in CYCLING_FIXTURE_IDS:
        sp = to_standard_general(cycling_fixture(fid))
        li = solve(sp, PivotRule.LEAST_INDEX, audit=True)
        ok &= li.status is Status.OPTIMAL and not li.audit.base_repeated
        md = solve(sp, PivotRule.MAX_DEVIATION)
        ok &= md.status is Status.OPTIMAL
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(5, ok, f"{len(CYCLING_FIXTURE_IDS)} cycling fixtures optimal under "
                   f"least-index with no repeated base, and under max-deviation "
                   f"({elapsed:.2f}s)")


def test_criterion_6_certificates():
    t0 = time.perf_counter()
    bad = 0
    tol_sign = 1e-9
    for seed in range(100):
        sp = to_standard_general(random_instance(seed, 4, 1, 5, "infeasible"))
        out = solve(sp)
        if out.status is not Status.INFEASIBLE or out.certificate is None:
            bad += 1
            continue
        cert = out.certificate
        rows = np.array(sorted(cert.y_by_row))
        y = np.array([cert.y_by_row[int(r)] for r in rows])
        # expansion must reproduce the entering facet from the terminal base
        a_p = sp.rows(cert.entering_row)
        recon = y @ sp.rows(rows)
        if np.max(np.abs(recon - a_p)) > 1e-6:
            bad += 1
            continue
        sigma_p = float(a_p @ out.x_opt - sp.b[cert.entering_row])
        ineq_members = rows[rows >= sp.m]
        y_ineq = np.array([cert.y_by_row[int(r)] for r in ineq_members])
        if cert.case == 1:
            good = sigma_p < 0 and np.all(y_ineq <= tol_sign)
        else:
            good = (cert.entering_row < sp.m and sigma_p > 0
                    and np.all(y_ineq >= -tol_sign))
        bad += 0 if good else 1

    for seed in range(100):
        sp = to_standard_general(random_instance(seed, 4, 0, 5, "unbounded"))
        out = solve(sp)
        if out.status is not Status.UNBOUNDED:
            bad += 1
            continue
        row = out.certificate
        binding = abs(sp.rows(row) @ out.x_opt - sp.b[row]) <= 1e-9 * (1 + abs(sp.b[row]))
        # an Unbounded outcome has no objective: at the artificial bound it is M's
        if not (row in sp.artificial_rows and row in out.basis_rows and binding
                and out.objective is None):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 30.0
    _report(6, ok, f"100 infeasible + 100 unbounded plants, certificates "
                   f"machine-checked, {bad} misclassifications ({elapsed:.1f}s)")


def test_criterion_7_netlib_spot_check():
    directory = os.environ.get("FACETLP_NETLIB_DIR")
    if not directory:
        pytest.skip("set FACETLP_NETLIB_DIR to run the kb2/recipe spot check")
    targets = {"kb2": -1.7499e03, "recipe": -266.6160}
    found = {}
    for path in Path(directory).glob("*"):
        stem = path.stem.lower()
        if stem in targets and path.suffix.lower() in ("", ".mps", ".sif"):
            found[stem] = path
    if set(found) != set(targets):
        pytest.skip(f"kb2/recipe not found under {directory}")
    ok = True
    for stem, want in targets.items():
        out = solve(to_standard_general(read_mps(found[stem])), max_iter=100_000)
        rel = abs(out.objective - want) / abs(want)
        print(f"  {stem}: status={out.status.value} objective={out.objective:.6g} "
              f"iterations={out.iterations} (reported, not asserted)")
        ok &= out.status is Status.OPTIMAL and rel <= 1e-4
    _report(7, ok, "kb2 and recipe objectives within 1e-4 relative")


def test_criterion_8_mps_round_trip():
    t0 = time.perf_counter()
    fixtures = sorted((Path(__file__).parent / "fixtures").glob("*.mps"))
    ok = len(fixtures) > 0
    for path in fixtures:
        p = read_mps(path)
        first = solve(to_standard_general(p))
        q = general_lp_from_dict(general_lp_to_dict(p))
        second = solve(to_standard_general(q))
        ok &= first.status == second.status
        ok &= first.objective == second.objective  # bit-for-bit
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 2.0
    _report(8, ok, f"{len(fixtures)} bundled MPS fixtures reload and re-solve "
                   f"bit-identically ({elapsed:.2f}s)")


def test_optimal_outcomes_are_feasible_under_reported_tolerance():
    """Companion check: every Optimal outcome above satisfies the violation
    report's feasibility verdict."""
    for d in (5, 12, 19):
        sp = to_standard_general(klee_minty_v2(d))
        out = solve(sp)
        assert violations(sp, out.x_opt).is_feasible
