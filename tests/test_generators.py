import hashlib
import json

import numpy as np
import pytest

from facetlp.errors import SizeOutOfRange, UnknownFixture
from facetlp.facet import PivotRule, Status, solve
from facetlp.generators import (
    CYCLING_FIXTURE_IDS,
    RANDOM_KINDS,
    cycling_fixture,
    klee_minty_v1,
    klee_minty_v2,
    random_instance,
)
from facetlp.model import general_lp_to_dict, to_standard_general
from facetlp.reference import brute_force_optimal, dantzig_solve, to_standard_form

PINNED_FIELDS = ("c", "A_eq", "b_eq", "A_ineq", "b_ineq", "lower", "upper")

# SHA-256 of each family, recorded before its builders were last rewritten:
# a rewrite of the builders must return byte-identical problems, -0.0 included
FAMILY_PINS = {
    "km1": "3134aa7bb3943276fa010f603ef3c9ca332c23a3bf1d65d54c19e6e207819d13",
    "km2": "c0d5c5db3449f2bdcf547305bfbf6a9e0a2b93c5545f31cc40d615c1a2ae0cc6",
    "beale": "3b1bec6f8830595ddebeb8efa8850225753b346c0b46c7db7d06ca7b5567360f",
    "beale_permuted": "cdb602f5a18877286002d60a7d988e81da146a1b0338584dcc91209197d66105",
    "beale_redundant": "b7055b8a88c3936c017c7cd5201abc2f7d3c3dcc386bcc207b8f3551ba8df9f7",
    "beale_scaled": "580d036b4d2e5c6b647043a607dd04a369677ad798ed93ce2854ab99738612c2",
    "chvatal": "00cb54c4cf74e1dc549967b8ca9ac0e5e8570028430f23685c90fa1dd6627579",
}


def _digest(lps) -> str:
    """SHA-256 over each problem's dtype, shape and bytes of every pinned
    field, then its names."""
    h = hashlib.sha256()
    for p in lps:
        for name in PINNED_FIELDS:
            a = getattr(p, name)
            h.update(f"{name} {a.dtype.str} {a.shape}".encode())
            h.update(a.tobytes())
        h.update(json.dumps(p.names, sort_keys=True).encode())
    return h.hexdigest()


def _family(family: str):
    if family == "km1":
        return [klee_minty_v1(d) for d in range(2, 26)]
    if family == "km2":
        return [klee_minty_v2(d) for d in range(2, 31)]
    return [cycling_fixture(family)]


@pytest.mark.parametrize("family", sorted(FAMILY_PINS))
def test_family_is_byte_identical_to_its_pin(family):
    assert _digest(_family(family)) == FAMILY_PINS[family]


class TestKleeMintyV1:
    def test_d3_pattern(self):
        p = klee_minty_v1(3)
        # stored in >= sense; negate back to the published <= rows
        np.testing.assert_array_equal(-p.A_ineq, [[1, 0, 0], [4, 1, 0], [8, 4, 1]])
        np.testing.assert_array_equal(-p.b_ineq, [5, 25, 125])
        np.testing.assert_array_equal(p.c, [-4, -2, -1])

    def test_d2_optimum_by_enumeration(self):
        out = brute_force_optimal(to_standard_general(klee_minty_v1(2)))
        assert out.status is Status.OPTIMAL
        assert out.objective == -25.0
        np.testing.assert_allclose(out.x_opt, [0.0, 25.0], atol=1e-9)

    def test_d4_optimum_by_enumeration(self):
        out = brute_force_optimal(to_standard_general(klee_minty_v1(4)))
        assert out.objective == -625.0

    def test_size_limits(self):
        with pytest.raises(SizeOutOfRange):
            klee_minty_v1(1)
        with pytest.raises(SizeOutOfRange):
            klee_minty_v1(26)


class TestKleeMintyV2:
    def test_d3_rhs(self):
        p = klee_minty_v2(3)
        np.testing.assert_array_equal(-p.b_ineq, [1, 3, 7])
        np.testing.assert_array_equal(-p.A_ineq, [[1, 0, 0], [2, 1, 0], [2, 2, 1]])

    def test_d19_solves_to_closed_form(self):
        out = solve(to_standard_general(klee_minty_v2(19)))
        assert out.status is Status.OPTIMAL
        assert out.iterations == 19
        assert out.objective == -(2.0**19 - 1.0)

    def test_d4_optimum_by_enumeration(self):
        out = brute_force_optimal(to_standard_general(klee_minty_v2(4)))
        assert out.objective == -15.0

    def test_size_limits(self):
        with pytest.raises(SizeOutOfRange):
            klee_minty_v2(31)


class TestCyclingFixtures:
    def test_bundle_is_complete(self):
        assert len(CYCLING_FIXTURE_IDS) == 5
        for fid in CYCLING_FIXTURE_IDS:
            assert cycling_fixture(fid).d >= 3

    def test_each_build_is_fresh(self):
        """Writing into one build's arrays leaves the next build as pinned."""
        for fid in CYCLING_FIXTURE_IDS:
            p = cycling_fixture(fid)
            for name in PINNED_FIELDS:
                getattr(p, name)[...] = 7.0
            p.names["fixture"] = "written"
            assert _digest([cycling_fixture(fid)]) == FAMILY_PINS[fid], fid

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixture):
            cycling_fixture("nope")

    def test_naive_ratio_ties_cycle_on_beale(self):
        """Without anti-cycling the most-negative rule revisits a basis on
        the degenerate fixture and never terminates."""
        out = dantzig_solve(
            to_standard_form(cycling_fixture("beale")), max_iter=50, audit=True
        )
        assert out.status is Status.ITERATION_LIMIT or out.audit.base_repeated
        assert out.audit.base_repeated

    def test_bland_rule_recovers(self):
        out = dantzig_solve(to_standard_form(cycling_fixture("beale")), bland=True)
        assert out.status is Status.OPTIMAL
        assert out.objective == pytest.approx(-0.05, rel=1e-9)

    def test_facet_solver_handles_every_fixture(self):
        expected = {
            "beale": -0.05,
            "beale_permuted": -0.05,
            "beale_redundant": -0.05,
            "beale_scaled": -0.5,
            "chvatal": -1.0,
        }
        for fid in CYCLING_FIXTURE_IDS:
            sp = to_standard_general(cycling_fixture(fid))
            want = brute_force_optimal(sp)
            assert want.status is Status.OPTIMAL
            assert want.objective == pytest.approx(expected[fid], rel=1e-9)
            for rule in (PivotRule.MAX_DEVIATION, PivotRule.LEAST_INDEX):
                out = solve(sp, rule, audit=True)
                assert out.status is Status.OPTIMAL
                assert out.objective == pytest.approx(expected[fid], rel=1e-9)
                assert not out.audit.base_repeated


class TestRandomInstances:
    def test_same_seed_is_bit_identical(self):
        a = random_instance(42, 4, 1, 6, "feasible")
        b = random_instance(42, 4, 1, 6, "feasible")
        assert json.dumps(general_lp_to_dict(a)) == json.dumps(general_lp_to_dict(b))

    def test_planted_point_makes_instances_feasible(self):
        for seed in range(25):
            sp = to_standard_general(random_instance(seed, 3, 1, 4, "feasible"))
            assert brute_force_optimal(sp).status is Status.OPTIMAL

    def test_planted_contradiction_makes_instances_infeasible(self):
        for seed in range(25):
            sp = to_standard_general(random_instance(seed, 3, 1, 4, "infeasible"))
            assert brute_force_optimal(sp).status is Status.INFEASIBLE

    def test_planted_ray_makes_instances_unbounded(self):
        for seed in range(25):
            sp = to_standard_general(random_instance(seed, 3, 0, 4, "unbounded"))
            out = solve(sp)
            assert out.status is Status.UNBOUNDED
            assert out.certificate in sp.artificial_rows

    def test_unbounded_instances_have_no_equality_rows_whatever_m(self):
        for seed in range(5):
            for d, n in ((1, 2), (3, 4), (5, 8)):
                p = random_instance(seed, d, 0, n, "unbounded")
                assert p.num_eq == 0
                assert _digest([p]) == _digest([random_instance(seed, d, 3, n, "unbounded")])

    def test_oracle_cap_guard(self):
        with pytest.raises(SizeOutOfRange):
            random_instance(0, 9, 1, 4)

    @pytest.mark.parametrize("d, m, n", [(0, 1, 4), (-1, 1, 4), (3, -1, 4), (3, 1, -1)])
    @pytest.mark.parametrize("kind", RANDOM_KINDS)
    def test_sizes_out_of_range_are_refused(self, d, m, n, kind):
        # d = 0 used to loop forever drawing a nonzero row of no columns
        with pytest.raises(SizeOutOfRange):
            random_instance(0, d, m, n, kind)

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="^unknown kind 'bogus'$"):
            random_instance(0, 3, 1, 4, "bogus")

    def test_one_dimension_is_in_range(self):
        for kind in RANDOM_KINDS:
            assert random_instance(0, 1, 0, 2, kind).d == 1

