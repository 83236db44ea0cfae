"""Tests for the cut-down algebra: bases, rescaled action, Jones family, reports."""

import functools
import gc
import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarbox.crossed import CrossedProduct
from planarbox.expressions import (
    ComposeExpr,
    GenExpr,
    RenumberExpr,
    generators_with_external,
    random_composable_pair,
    realize,
    slot_colours,
)
from planarbox.group_algebra import (
    AlgebraError,
    GroupPlanarAlgebra,
    PAElement,
    SubgroupBiprojection,
    row_reduce,
)
from planarbox.groups import cyclic_group, inversion_action, load_action, trivial_action
from planarbox import group_algebra, intermediate
from planarbox.intermediate import IntermediateAlgebra, crossed_instance
from planarbox.scalars import ONE, RadicalScalar, pow_half
from planarbox.suites import biprojection_report
from planarbox.tangles import Disc, alpha

CP3 = CrossedProduct(inversion_action(3))
CP4 = CrossedProduct(inversion_action(4))
CPT = CrossedProduct(trivial_action(cyclic_group(3)))
ACTIONS = Path(__file__).resolve().parent.parent / "actions"


# the cut-down algebras are built in fixtures, not at import, so a broken
# surround fails the tests that use them instead of the whole module
@pytest.fixture(scope="module")
def inter(request):
    """CP3's cut-down algebra at k_max 4, or that of a crossed product passed indirectly."""
    return IntermediateAlgebra(getattr(request, "param", CP3).embedded, k_max=4)


@pytest.fixture(scope="module")
def inter4():
    return IntermediateAlgebra(CP4.embedded, k_max=4)


@pytest.fixture(scope="module")
def inter_t():
    return IntermediateAlgebra(CPT.embedded, k_max=4)

CLOSED_LOOP = ComposeExpr(GenExpr("E", 2), 1, GenExpr("I", 2))


def small_scalars():
    return st.integers(min_value=-3, max_value=3).map(
        lambda n: RadicalScalar.rational(Fraction(n))
    )


class TestBuild:
    def test_dimensions(self, inter):
        assert [inter.dimension(k) for k in range(5)] == [1, 1, 2, 5, 14]

    def test_dimensions_larger_cyclic(self, inter4):
        assert [inter4.dimension(k) for k in range(1, 5)] == [1, 3, 10, 36]

    @pytest.mark.parametrize("inter,cp", [(CP3, CP3), (CP4, CP4), (CPT, CPT)], indirect=["inter"])
    def test_dimension_equals_orbit_count(self, inter, cp):
        for colour in range(1, 5):
            assert inter.dimension(colour) == len(cp.orbit_reps(colour))

    def test_tau_is_reciprocal_ratio(self, inter, inter_t):
        assert inter.tau == RadicalScalar.rational(Fraction(1, 2))
        assert inter_t.tau == ONE

    def test_basis_elements_are_fixed(self, inter):
        for colour in range(1, 5):
            for b in inter.basis(colour):
                assert inter.contains(b)

    def test_basis_is_echelon(self, inter):
        for colour in (2, 3, 4):
            leads = [b.support()[0] for b in inter.basis(colour)]
            assert leads == sorted(leads)
            for b in inter.basis(colour):
                assert b.coefficient(b.support()[0]) == ONE

    @pytest.mark.parametrize("inter", [CP3, CP4, CPT], indirect=True)
    def test_basis_reduces_every_surround_image(self, inter):
        """The build keeps one copy of each repeated image; reducing every
        image, repeats included, gives the same basis."""
        P, surround = inter.algebra, inter.subgroup.surround
        for colour in range(1, 5):
            images = [surround(P.basis_element(colour, lab)) for lab in P.basis_labels(colour)]
            assert inter.basis(colour) == row_reduce(images)

    def test_colour_zero_basis(self, inter):
        (b,) = inter.basis(0)
        assert b.colour == 0 and not b.shaded
        (w,) = inter.basis(0, shaded=True)
        assert w.shaded

    def test_shading_flag_refused_above_colour_0(self, inter):
        with pytest.raises(AlgebraError, match="shading flag only applies to colour 0"):
            inter.basis(2, True)

    def test_colour_above_bound_rejected(self, inter):
        with pytest.raises(AlgebraError, match="bound"):
            inter.basis(5)

    def test_plain_label_is_not_member(self, inter):
        x = CP3.product.basis_element(2, (1,))
        assert not inter.contains(x)
        with pytest.raises(AlgebraError, match="not fixed"):
            inter.require_member(x)

    def test_non_idempotent_surround_rejected(self, monkeypatch):
        two = RadicalScalar.rational(Fraction(2))

        def doubler(self, x):
            return x.scale(two) if x.colour else x

        monkeypatch.setattr(SubgroupBiprojection, "surround", doubler)
        with pytest.raises(AlgebraError, match="idempotent"):
            IntermediateAlgebra(CP3.embedded, k_max=2)

    def test_surround_must_factor_through_inclusion(self, monkeypatch):
        # projecting colour 2 onto the identity label is idempotent but
        # discards elements whose inclusions survive, so the build refuses it
        P = CP3.product
        e_label = (CP3.semidirect.index(0, 0),)

        def collapse(self, x):
            if x.colour != 2:
                return x
            return P.element(2, {e_label: x.coefficient(e_label)})

        monkeypatch.setattr(SubgroupBiprojection, "surround", collapse)
        with pytest.raises(AlgebraError, match="factor through inclusion"):
            IntermediateAlgebra(CP3.embedded, k_max=3)


class TestRescaledAction:
    def test_identity_returns_input(self, inter):
        for colour in (1, 2, 3):
            for b in inter.basis(colour):
                assert inter.z_prime(GenExpr("id", colour), [b]) == b

    def test_rejects_unfixed_input(self, inter):
        with pytest.raises(AlgebraError, match="not fixed"):
            inter.z_prime(GenExpr("id", 2), [CP3.product.basis_element(2, (1,))])

    def test_closed_loop_scales_by_root_of_small_index(self, inter):
        for b in inter.basis(2):
            assert inter.z_prime(CLOSED_LOOP, [b]) == b.scale(pow_half(3, 1))

    def test_multiplication_on_transports(self, inter):
        x = CP3.orbit_sum(2, (1,))
        y = CP3.orbit_sum(2, (2,))
        lhs = inter.z_prime(GenExpr("M", 2), [CP3.transport(x), CP3.transport(y)])
        assert lhs == CP3.transport(CP3.orbit_multiply(x, y))

    def test_unit_chain(self, inter):
        for k in (1, 2, 3):
            lifted = inter.include_prime(inter.unit_prime(k))
            assert lifted == inter.unit_prime(k + 1)

    def test_unit_prime_is_multiplicative_identity(self, inter):
        for colour in (2, 3):
            one = inter.unit_prime(colour)
            for b in inter.basis(colour):
                assert inter.z_prime(GenExpr("M", colour), [one, b]) == b
                assert inter.z_prime(GenExpr("M", colour), [b, one]) == b

    def test_renumbered_multiplication_swaps_factors(self, inter):
        swap = RenumberExpr((2, 1), GenExpr("M", 2))
        a, b = inter.basis(2)
        lhs = inter.z_prime(swap, [a, b])
        assert lhs == inter.z_prime(GenExpr("M", 2), [b, a])

    @settings(max_examples=25, deadline=None)
    @given(small_scalars(), small_scalars())
    def test_action_is_linear(self, inter, c1, c2):
        a, b = inter.basis(2)
        combined = inter.z_prime(GenExpr("Eprime", 2), [a.scale(c1) + b.scale(c2)])
        split = inter.z_prime(GenExpr("Eprime", 2), [a]).scale(c1) + inter.z_prime(
            GenExpr("Eprime", 2), [b]
        ).scale(c2)
        assert combined == split


class TestJonesFamily:
    def test_starts_at_colour_two(self, inter):
        with pytest.raises(AlgebraError, match="colour 2"):
            inter.jones_prime(1)

    @pytest.mark.parametrize("colour", [2, 3, 4])
    def test_projection(self, colour, inter):
        e = inter.jones_prime(colour)
        assert inter.contains(e)
        assert inter.z_prime(GenExpr("M", colour), [e, e]) == e
        assert inter.algebra.star(e) == e

    @pytest.mark.parametrize("colour", [2, 3, 4])
    def test_trace(self, colour, inter):
        expected = RadicalScalar.rational(Fraction(1, 3))
        assert inter.trace_prime(inter.jones_prime(colour)) == expected

    @pytest.mark.parametrize("colour", [2, 3, 4])
    def test_equals_transported_subgroup_jones(self, colour, inter):
        lhs = inter.jones_prime(colour)
        assert lhs == CP3.transport(CP3.base.jones_element(colour))

    def test_report(self, inter):
        records = inter.jones_report(top=4)
        assert len(records) == 14
        assert all(r["pass"] for r in records)

    def test_report_case_names(self, inter):
        cases = [r["case"] for r in inter.jones_report(top=3)]
        assert "e'_2 idempotent" in cases
        assert "tr'(e'_3) == 1/[Q:N]" in cases
        assert "p1 p2 p1 == p1/[Q:N]" in cases


class TestTraceFamily:
    def test_unit_is_normalized(self, inter):
        for colour in range(1, 5):
            assert inter.trace_prime(inter.unit_prime(colour)) == ONE

    def test_grading_against_ambient_trace(self, inter):
        b = inter.basis(4)[0]
        assert inter.trace_prime(b) == inter.algebra.trace(b) * Fraction(4)

    def test_expectations_land_inside(self, inter):
        for b in inter.basis(3):
            down = inter.expect_right(b)
            assert down.colour == 2 and inter.contains(down)
            left = inter.expect_left(b)
            assert left.colour == 3 and inter.contains(left)

    def test_expect_after_include_is_identity(self, inter):
        for colour in (1, 2, 3):
            for b in inter.basis(colour):
                assert inter.expect_right(inter.include_prime(b)) == b

    def test_trace_rejects_unfixed_input(self, inter):
        with pytest.raises(AlgebraError, match="not fixed"):
            inter.trace_prime(CP3.product.basis_element(2, (1,)))

    @settings(max_examples=25, deadline=None)
    @given(small_scalars(), small_scalars())
    def test_inner_product_is_symmetric(self, inter, c1, c2):
        a, b = inter.basis(2)
        x = a.scale(c1) + b.scale(c2)
        y = a + b.scale(c2)
        assert inter.inner_prime(x, y) == inter.inner_prime(y, x)

    def test_report(self, inter):
        records = inter.trace_report()
        assert len(records) == 26
        assert all(r["pass"] for r in records)

    def test_planted_wrong_grade_fails_the_grade_flag(self, inter, monkeypatch):
        """``tr'`` graded by ``[M:Q]^((c+1)//2)`` is wrong at odd colours
        only, and the flag reads the true trace off the expectations."""
        def wrong(self, x):
            self.require_member(x)
            return self.algebra.trace(x) * Fraction(self.index_mq ** ((x.colour + 1) // 2))

        monkeypatch.setattr(IntermediateAlgebra, "trace_prime", wrong)
        graded = {
            r["case"]: r["pass"] for r in inter.trace_report() if r["case"].startswith("tr' ==")
        }
        assert graded == {
            "tr' == [M:Q]^1 tr at colour 2": True,
            "tr' == [M:Q]^1 tr at colour 3": False,
            "tr' == [M:Q]^2 tr at colour 4": True,
        }


class TestVerificationReports:
    def test_theorem_main_small_sample(self, inter):
        records = inter.theorem_main_report(samples=6, seed=3)
        assert len(records) == 19
        assert all(r["pass"] for r in records)
        assert records[0]["case"] == "tau agreement: tr(q) == 1/[M:Q]"
        assert records[0]["lhs"] == "1/2"

    def test_theorem_main_pinned_pairs_present(self, inter):
        cases = [r["case"] for r in inter.theorem_main_report(samples=0)]
        assert "pinned E/I pair: dressed composite" in cases
        assert "pinned identity inner: multiplicativity" in cases
        assert "pinned renumbered outer: dressed composite" in cases

    def test_axioms_small_sample(self, inter):
        records = inter.axiom_report(samples=5, seed=2)
        assert len(records) == 14
        assert all(r["pass"] for r in records)

    def test_dual_report(self, inter):
        records = inter.dual_report(samples=20)
        assert len(records) == 17
        assert all(r["pass"] for r in records)

    def test_dual_ranks_match_declared_dimension(self, inter):
        by_case = {r["case"]: r for r in inter.dual_report(samples=1)}
        for colour, expected in [(1, 1), (2, 2), (3, 4)]:
            rec = by_case[f"dual surround rank at colour {colour}"]
            assert rec["lhs"] == str(expected)

    @pytest.mark.parametrize("k_max", [2, 3])
    def test_dual_report_stays_within_k_max(self, k_max, monkeypatch):
        """No white weight or dual rank record names a colour above k_max,
        and no pair the white capping check draws reaches one."""
        drawn = []

        def noted(rng, **kwargs):
            pair = random_composable_pair(rng, **kwargs)
            drawn.append(pair)
            return pair

        def top(expr):
            external, slots = expr.discs
            parts = [expr.outer, expr.inner] if isinstance(expr, ComposeExpr) else (
                [expr.inner] if isinstance(expr, RenumberExpr) else [])
            return max([external.colour] + [d.colour for d in slots] + [top(p) for p in parts])

        monkeypatch.setattr(intermediate, "random_composable_pair", noted)
        records = IntermediateAlgebra(CP3.embedded, k_max=k_max).dual_report(samples=20, seed=0)
        assert all(r["pass"] for r in records)
        weights = [re.fullmatch(r"white weight of (\w+)_(\d)", r["case"]) for r in records]
        assert max(top(GenExpr(m[1], int(m[2]))) for m in weights if m) <= k_max
        ranks = [re.fullmatch(r"dual surround rank at colour (\d)", r["case"]) for r in records]
        assert [int(m[1]) for m in ranks if m] == list(range(1, min(3, k_max) + 1))
        assert len(drawn) == 20
        assert max(top(e) for outer, _, inner in drawn for e in (outer, inner)) <= k_max

    def test_record_schema(self, inter):
        for rec in inter.jones_report(top=2):
            assert set(rec) == {"suite", "case", "lhs", "rhs", "pass"}
            assert rec["suite"] == "jones"

    def test_reports_are_deterministic(self, inter):
        first = inter.axiom_report(samples=3, seed=9)
        second = inter.axiom_report(samples=3, seed=9)
        assert first == second

    def test_planted_weight_defect_fails_only_the_weight_flags(self, monkeypatch):
        """A capping weight off by sqrt([M:Q]) on tangles with two or more
        internal discs breaks multiplicativity and substitution, which
        compare alphas, and no dressed composite, which reads loop counts.
        The defect is planted in the suites' weights and in the cut-down
        action's, which a fresh biprojection reads on first use."""
        real = intermediate.alpha

        def off(t, ratio):
            a = real(t, ratio)
            return a * pow_half(ratio, 1) if len(t.internal) >= 2 else a

        for module in (intermediate, group_algebra):
            monkeypatch.setattr(module, "alpha", off)
        inter = IntermediateAlgebra(SubgroupBiprojection(CP3.product, CP3.embedded.members), k_max=4)
        one = inter.unit_prime(2)
        assert inter.z_prime(GenExpr("M", 2), [one, one]) == one.scale(pow_half(2, 1))
        failed = [r["case"] for r in inter.theorem_main_report(samples=10, seed=0) if not r["pass"]]
        assert failed == [
            "pinned renumbered outer: multiplicativity",
            "sample 6: multiplicativity",
            "sample 8: multiplicativity",
        ]
        failed = [r["case"] for r in inter.axiom_report(samples=10, seed=1) if not r["pass"]]
        assert failed == ["substitution sample 5"]


class TestTrivialTwist:
    """With a trivial acting group the cut-down algebra is the whole algebra."""

    def test_dimensions(self, inter_t):
        assert [inter_t.dimension(k) for k in range(1, 5)] == [1, 3, 9, 27]

    def test_every_element_is_member(self, inter_t):
        for label in CPT.product.basis_labels(3):
            assert inter_t.contains(CPT.product.basis_element(3, label))

    def test_action_reduces_to_plain_evaluation(self, inter_t):
        expr = ComposeExpr(GenExpr("M", 2), 1, GenExpr("jones", 2))
        for b in inter_t.basis(2):
            assert inter_t.z_prime(expr, [b]) == inter_t.algebra.evaluate(expr, [b])

    def test_jones_prime_is_plain_jones_element(self, inter_t):
        assert inter_t.jones_prime(2) == CPT.base.jones_element(2)

    def test_jones_report(self, inter_t):
        records = inter_t.jones_report(top=3)
        assert len(records) == 8
        assert all(r["pass"] for r in records)

    def test_gram_positive(self, inter_t):
        for colour in (1, 2, 3):
            assert inter_t._gram_positive(colour)

    def test_expect_after_include_fixes_plain_labels(self, inter_t):
        # on plain labels, where a label and its group inverse differ, the
        # composite is the identity, as the planar E/I pair demands
        for label in CPT.base.basis_labels(2):
            g = CPT.base.basis_element(2, label)
            assert inter_t.expect_right(inter_t.include_prime(g)) == g


class TestGramPositivity:
    @pytest.mark.parametrize("colour", [1, 2, 3, 4])
    def test_positive_definite(self, colour, inter):
        assert inter._gram_positive(colour)

    def test_detects_degenerate_matrix(self, inter):
        # a second copy of a basis vector makes the Gram matrix singular
        a, b = inter.basis(2)
        gram = [
            [inter.inner_prime(x, y) for y in (a, b, a)] for x in (a, b, a)
        ]
        pivots_positive = True
        n = 3
        for step in range(n):
            pivot = gram[step][step]
            if pivot.sign() <= 0:
                pivots_positive = False
                break
            for r in range(step + 1, n):
                factor = gram[r][step] / pivot
                for c in range(step, n):
                    gram[r][c] = gram[r][c] - factor * gram[step][c]
        assert not pivots_positive


    def test_elimination_reads_singular_and_skewed_bases(self, inter, monkeypatch):
        """``_gram_positive`` on bases put in place of the algebra's own: a
        basis with its first element repeated has a singular Gram matrix
        (False); ``[b1, b1 + b2, b3, ...]`` is not orthogonal but is still a
        basis (True), and its elimination meets a row with a nonzero entry
        below the first pivot and rows with a zero one.  Both verdicts must
        agree with a full elimination of the same matrix."""
        colour = 3
        own = inter.basis(colour)
        assert len(own) >= 3
        skewed = [own[0], own[0] + own[1], *own[2:]]
        for basis, positive in ((own + own[:1], False), (skewed, True)):
            monkeypatch.setattr(inter, "basis", lambda c, shaded=False, b=basis: list(b))
            gram = [[inter.inner_prime(x, y) for y in basis] for x in basis]
            column = [row[0] for row in gram[1:]]
            assert any(c.is_zero() for c in column) and not all(c.is_zero() for c in column)
            n = len(basis)
            full = True
            for step in range(n):
                pivot = gram[step][step]
                if pivot.sign() <= 0:
                    full = False
                    break
                for r in range(step + 1, n):
                    factor = gram[r][step] / pivot
                    for c in range(step, n):
                        gram[r][c] = gram[r][c] - factor * gram[step][c]
            assert inter._gram_positive(colour) is positive is full


def order_six_subgroups() -> list[tuple[int, ...]]:
    """Every subgroup of the order-6 semidirect product, by brute force."""
    H = CP3.semidirect
    found = []
    for mask in range(1, 2**6, 2):  # subsets containing the identity 0
        members = [h for h in range(6) if mask >> h & 1]
        if all(H.op(a, b) in members for a in members for b in members):
            found.append(tuple(members))
    return found


SUBGROUPS = order_six_subgroups()
NONTRIVIAL = [k for k in SUBGROUPS if len(k) > 1]


@pytest.fixture(scope="module")
def subgroup_inter():
    """Subgroup members -> its cut-down algebra at k_max 3, built on first use."""
    return functools.cache(
        lambda members: IntermediateAlgebra(SubgroupBiprojection(CP3.product, members), k_max=3)
    )


class TestSubgroupInstances:
    """The cut-down algebra of every subgroup K of the order-6 group."""

    def test_six_subgroups(self):
        assert sorted(len(k) for k in SUBGROUPS) == [1, 2, 2, 2, 3, 6]

    @pytest.mark.parametrize("members", SUBGROUPS, ids=str)
    def test_dimensions_and_index_data(self, members, subgroup_inter):
        inter = subgroup_inter(members)
        expected = {1: [1, 6, 36], 2: [1, 2, 5], 3: [1, 2, 4], 6: [1, 1, 1]}[len(members)]
        assert [inter.dimension(k) for k in (1, 2, 3)] == expected
        assert (inter.index_mq, inter.index_qn) == (len(members), 6 // len(members))
        assert inter.tau == RadicalScalar.rational(Fraction(1, len(members)))
        assert inter.subgroup.members == tuple(sorted(members))

    @pytest.mark.parametrize("members", NONTRIVIAL, ids=str)
    def test_reports_pass(self, members, subgroup_inter):
        inter = subgroup_inter(members)
        records = (
            inter.theorem_main_report(samples=3, seed=0, max_colour=3)
            + inter.axiom_report(samples=3, seed=0, max_colour=3)
            + inter.jones_report(top=3)
            + inter.trace_report(kmax=3)
            + inter.dual_report(samples=3, seed=0)
        )
        assert len(records) == 13 + 9 + 8 + 18 + 17
        assert [r for r in records if not r["pass"]] == []

    def test_trivial_subgroup_surround_is_identity(self, subgroup_inter):
        surround = subgroup_inter((0,)).subgroup.surround
        for colour in (0, 1, 2, 3):
            for label in CP3.product.basis_labels(colour):
                b = CP3.product.basis_element(colour, label)
                assert surround(b) == b

    def test_trivial_subgroup_reports_without_trace(self, subgroup_inter):
        # axioms take seconds here (36 basis labels at colour 3), so they are left out
        inter = subgroup_inter((0,))
        records = (
            inter.theorem_main_report(samples=3, seed=0, max_colour=3)
            + inter.jones_report(top=3)
            + inter.dual_report(samples=3, seed=0)
        )
        assert [r for r in records if not r["pass"]] == []

    def test_trivial_subgroup_trace(self, subgroup_inter):
        records = subgroup_inter((0,)).trace_report(kmax=3)
        assert [r["case"] for r in records if not r["pass"]] == []

    def test_non_subgroup_rejected(self):
        with pytest.raises(AlgebraError, match="members do not form a subgroup"):
            SubgroupBiprojection(CP3.product, [0, CP3.semidirect.index(1, 0)])

    @pytest.mark.parametrize("members", SUBGROUPS, ids=str)
    def test_act_is_the_weighted_surround_of_each_leaf(self, members):
        """The cut-down action of every generator leaf up to colour 3, on
        every tuple of basis inputs, is the surround of the generator's
        action times alpha of its tangle at ``|K|``, the right side of the
        crossed product's intertwining checks."""
        P = CP3.product
        sub = SubgroupBiprojection(P, members)
        leaves = [
            leaf
            for disc in [Disc(0), Disc(0, True), Disc(1), Disc(2), Disc(3)]
            for leaf in generators_with_external(disc, 3)
        ]
        assert {leaf.kind for leaf in leaves} == {"unit", "id", "M", "Eprime", "jones", "E", "I"}
        for leaf in leaves:
            weight = alpha(realize(leaf), len(members))
            pools = [
                [P.basis_element(d.colour, label, d.shaded) for label in P.basis_labels(d.colour)]
                for d in slot_colours(leaf)
            ]
            for xs in itertools.product(*pools):
                expected = sub.surround(P.act_generator(leaf, xs)).scale(weight)
                assert sub.act(leaf, xs) == expected, (leaf, xs)

    @pytest.mark.parametrize("cp", [CP3, CP4, CPT], ids=["z3", "z4", "trivial"])
    def test_crossed_instance_is_the_embedded_theta(self, cp):
        members = [cp.semidirect.index(0, t) for t in range(cp.theta_order)]
        generic = SubgroupBiprojection(cp.product, members)
        sub = crossed_instance(cp)
        assert sub is cp.embedded and sub.algebra is cp.product
        assert sub.members == generic.members
        assert sub.average() == generic.average()
        for colour in (0, 1, 2, 3):
            for label in cp.product.basis_labels(colour):
                b = cp.product.basis_element(colour, label)
                assert sub.surround(b) == generic.surround(b)

    @pytest.mark.parametrize("members", SUBGROUPS, ids=str)
    def test_biprojection_report_on_every_conjugate(self, members):
        """The report written for copies of Theta holds for any subgroup:
        each conjugate h K h^-1 passes through its own average and
        surround, with every basis label counted at every colour."""
        H = CP3.semidirect
        base = SubgroupBiprojection(CP3.product, members)
        for h in range(len(H)):
            sub = base.conjugate(h)
            assert sub.algebra is CP3.product
            assert sub.members == tuple(sorted({H.op(H.op(h, k), H.inv(h)) for k in members}))
            records = biprojection_report(sub, kmax=3)
            assert [r for r in records if not r["pass"]] == []
            rows = [r["rhs"] for r in records if r["case"].startswith("surround idempotent")]
            assert rows == [f"{6 ** (c - 1)} of {6 ** (c - 1)} basis labels" for c in (1, 2, 3)]


def generated_subgroups(group) -> list[tuple[int, ...]]:
    """Every subgroup generated by at most two elements, by closure; for S4
    that is every subgroup."""
    found = set()
    for a, b in itertools.combinations_with_replacement(group.elements(), 2):
        members, frontier = {0}, [0]
        while frontier:
            frontier = {group.op(h, g) for h in frontier for g in (a, b)} - members
            members |= frontier
        found.add(tuple(sorted(members)))
    return sorted(found, key=lambda k: (len(k), k))


def conjugacy_representatives(group, subgroups) -> list[tuple[int, ...]]:
    """The first of the given subgroups in each conjugacy class."""
    reps: dict[tuple[int, ...], tuple[int, ...]] = {}
    for k in subgroups:
        key = min(
            tuple(sorted(group.op(group.op(h, x), group.inv(h)) for x in k))
            for h in group.elements()
        )
        reps.setdefault(key, k)
    return list(reps.values())


@functools.cache
def classes_by_table(stem: str, members: tuple[int, ...], colour: int) -> dict:
    """Label -> its class ``{(t h_i k_i) : t, k_i in K}``, each class
    brute-forced from the group table over all ``|K|^colour`` tuples."""
    op = CLASS_ALGEBRAS[stem].group.op
    classes: dict = {}
    for label in CLASS_ALGEBRAS[stem].basis_labels(colour):
        if label not in classes:
            cls = frozenset(
                tuple(op(op(t, h), k) for h, k in zip(label, ks))
                for t in members
                for ks in itertools.product(members, repeat=colour - 1)
            )
            classes.update(dict.fromkeys(cls, cls))
    return classes


S4 = CrossedProduct(load_action(json.loads((ACTIONS / "s4.json").read_text())))
S4_SUBGROUPS = generated_subgroups(S4.semidirect)
CLASS_ALGEBRAS = {"z3xz2": CP3.product, "s4": S4.product}
# every subgroup of the order-6 group, and one subgroup of S4 per conjugacy class
CLASS_CASES = [("z3xz2", k) for k in SUBGROUPS] + [
    ("s4", k) for k in conjugacy_representatives(S4.semidirect, S4_SUBGROUPS)
]


class TestClassAverage:
    """The surround of a label is the average over its class ``h -> t h k``,
    and the cut-down bases are the class sums."""

    def test_s4_subgroups(self):
        assert len(S4_SUBGROUPS) == 30
        assert sorted(len(k) for stem, k in CLASS_CASES if stem == "s4") == [
            1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24
        ]

    @pytest.mark.parametrize("stem, members", CLASS_CASES, ids=str)
    def test_surround_of_a_label_is_its_class_average(self, stem, members):
        P = CLASS_ALGEBRAS[stem]
        sub = SubgroupBiprojection(P, members)
        for colour in (1, 2, 3):
            classes = classes_by_table(stem, members, colour)
            for label in P.basis_labels(colour):
                image = sub.surround(P.basis_element(colour, label))
                share = RadicalScalar.rational(Fraction(1, len(classes[label])))
                assert image.coeffs.keys() == classes[label], (colour, label)
                assert set(image.coeffs.values()) == {share}, (colour, label)

    @pytest.mark.parametrize("stem, members", CLASS_CASES, ids=str)
    def test_class_table_holds_in_any_order_labels_are_met(self, stem, members):
        """A class's entry is written when its first label is met, so fresh
        biprojections that meet the labels in descending and in shuffled
        order give each label the class average, as meeting them in
        ascending order does, and ``class_reps`` still lists the least
        labels in ascending order."""
        P = CLASS_ALGEBRAS[stem]
        rng = random.Random(f"class-table-{stem}-{members}")
        ascending, descending, shuffled = (SubgroupBiprojection(P, members) for _ in range(3))
        for colour in (1, 2, 3):
            classes = classes_by_table(stem, members, colour)
            labels = list(P.basis_labels(colour))
            images = {lab: ascending.surround(P.basis_element(colour, lab)) for lab in labels}
            mixed = labels[:]
            rng.shuffle(mixed)
            for sub, order in ((descending, labels[::-1]), (shuffled, mixed)):
                for label in order:
                    share = RadicalScalar.rational(Fraction(1, len(classes[label])))
                    image = sub.surround(P.basis_element(colour, label))
                    assert image == PAElement(colour, dict.fromkeys(classes[label], share))
                    assert image == images[label], (colour, label)
                least = sorted({min(cls) for cls in classes.values()})
                assert list(sub.class_reps(colour)) == least, colour

    @pytest.mark.parametrize("stem, members", CLASS_CASES, ids=str)
    def test_basis_is_the_class_sums_by_least_label(self, stem, members):
        inter = IntermediateAlgebra(SubgroupBiprojection(CLASS_ALGEBRAS[stem], members), k_max=3)
        for colour in (1, 2, 3):
            classes = set(classes_by_table(stem, members, colour).values())
            assert inter.basis(colour) == [
                PAElement(colour, dict.fromkeys(cls, ONE)) for cls in sorted(classes, key=min)
            ]


def burnside_classes(group, members: tuple[int, ...], colour: int) -> int:
    """The classes ``h -> t h k`` at a colour, by Burnside's lemma: a class
    is a K-orbit on tuples of left cosets hK, and ``t`` fixes the coset hK
    exactly when ``h^-1 t h`` lies in K; read off the group table alone."""
    table, inside = group.table, set(members)
    inverse = [row.index(0) for row in table]
    total = 0
    for t in members:
        fixed = sum(table[table[inverse[h]][t]][h] in inside for h in range(len(table)))
        total += (fixed // len(members)) ** (colour - 1)
    assert total % len(members) == 0
    return total // len(members)


ACTION_STEMS = ["z3-trivial", "z3xz2", "z4xz2", "s4", "z7xz3"]
ACTION_PRODUCTS = {
    stem: CrossedProduct(load_action(json.loads((ACTIONS / f"{stem}.json").read_text())))
    for stem in ACTION_STEMS
}
# every subgroup of every action file's semidirect product
EVERY_SUBGROUP = [
    (stem, k) for stem in ACTION_STEMS for k in generated_subgroups(ACTION_PRODUCTS[stem].semidirect)
]


class TestClassCount:
    """One basis element and one representative per class, counted by
    Burnside's lemma for every subgroup of the five action files."""

    def test_every_subgroup_is_covered(self):
        assert len(EVERY_SUBGROUP) == 58
        assert [len(ACTION_PRODUCTS[stem].semidirect) for stem in ACTION_STEMS] == [3, 6, 8, 24, 21]

    @pytest.mark.parametrize("stem, members", EVERY_SUBGROUP, ids=str)
    def test_dimension_is_the_burnside_count(self, stem, members):
        cp = ACTION_PRODUCTS[stem]
        k_max = 3 if len(cp.semidirect) > 8 else 4
        sub = SubgroupBiprojection(cp.product, members)
        inter = IntermediateAlgebra(sub, k_max=k_max)
        for colour in range(1, k_max + 1):
            reps = list(sub.class_reps(colour))
            count = burnside_classes(cp.semidirect, members, colour)
            assert inter.dimension(colour) == len(reps) == count, colour
            assert all(a < b for a, b in zip(reps, reps[1:]))

    @pytest.mark.parametrize("stem, k_max, bound", [("s4", 3, 81), ("z4xz2", 4, 227)])
    def test_construction_surrounds_one_label_per_class(self, stem, k_max, bound, monkeypatch):
        """Building K = H surrounds one label per class, each basis element
        once for the idempotence check, and three elements per label below
        ``k_max`` for the inclusion check; surrounding every label, as
        before, took 679 calls on S4 and 808 on z4xz2."""
        cp = ACTION_PRODUCTS[stem]
        members = tuple(cp.semidirect.elements())
        calls = []
        real = SubgroupBiprojection.surround

        def counting(self, x):
            calls.append(x.colour)
            return real(self, x)

        monkeypatch.setattr(SubgroupBiprojection, "surround", counting)
        inter = IntermediateAlgebra(SubgroupBiprojection(cp.product, members), k_max=k_max)
        colours = range(1, k_max + 1)
        classes = sum(burnside_classes(cp.semidirect, members, c) for c in colours)
        basis = sum(inter.dimension(c) for c in colours)
        labels = sum(len(cp.semidirect) ** (c - 1) for c in range(1, k_max))
        assert classes + basis + 3 * labels == bound
        assert len(calls) <= bound


class TestMembership:
    """``contains`` asks the surround whether it returns its input itself;
    its verdict must be the one the values give."""

    @pytest.mark.parametrize("stem", ["z3xz2", "z4xz2"])
    def test_contains_is_fixedness_by_value(self, stem):
        """On every subgroup, a seeded pool at colours 0-4: basis elements,
        combinations of two, and non-members (one label moved off a
        combination, one label added, a few random labels); shaded and
        zero elements at colour 0."""
        cp = ACTION_PRODUCTS[stem]
        P = cp.product
        rng = random.Random(f"contains-{stem}")
        coeffs = [ONE, RadicalScalar.rational(-2), pow_half(2, 1), ONE - pow_half(6, -1)]
        verdicts = {True: 0, False: 0}
        for members in generated_subgroups(cp.semidirect):
            inter = IntermediateAlgebra(SubgroupBiprojection(P, members), k_max=4)
            pool = [P.zero(0), P.zero(0, True), P.unit(0, True).scale(coeffs[2])]
            for colour in range(5):
                labels = list(P.basis_labels(colour))
                basis = inter.basis(colour)
                for _ in range(6):
                    a, b = (rng.choice(basis) for _ in range(2))
                    combo = a.scale(rng.choice(coeffs)) + b.scale(rng.choice(coeffs))
                    pool += [a, combo]
                    if colour >= 2:
                        moved = dict(combo.coeffs) or {labels[0]: ONE}
                        moved[rng.choice(sorted(moved))] = rng.choice(coeffs) * 3
                        pool.append(PAElement(colour, moved))
                        pool.append(combo + P.basis_element(colour, rng.choice(labels)))
                        pool.append(P.element(colour, {
                            lab: rng.choice(coeffs) for lab in rng.sample(labels, 3)
                        }))
            for x in pool:
                verdict = inter.contains(x)
                assert verdict == (inter.subgroup.surround(x) == x), (members, x.colour)
                verdicts[verdict] += 1
        assert min(verdicts.values()) >= 50, verdicts


def cut_down_discs(k_max: int) -> list[Disc]:
    return [Disc(0), Disc(0, True)] + [Disc(c) for c in range(1, k_max + 1)]


def table_bound(inter: IntermediateAlgebra) -> int:
    """Sum over the generators with every colour <= k_max of the product
    of the dimensions of their slot colours."""
    return sum(
        math.prod(len(inter.basis(d.colour, d.shaded)) for d in slot_colours(leaf))
        for external in cut_down_discs(inter.k_max)
        for leaf in generators_with_external(external, inter.k_max)
    )


def cut_down_summary(inter: IntermediateAlgebra) -> str:
    """sha256 over the basis, ``z_prime`` of every generator leaf on every
    basis tuple, and three small reports of a cut-down algebra."""
    k, P = inter.k_max, inter.algebra
    parts = []
    for disc in cut_down_discs(k):
        parts += [P.render(b) for b in inter.basis(disc.colour, disc.shaded)]
        for leaf in generators_with_external(disc, k):
            for xs in inter.basis_tuples(slot_colours(leaf)):
                parts.append(P.render(inter.z_prime(leaf, list(xs))))
    records = (
        inter.theorem_main_report(samples=3, seed=0, max_colour=k)
        + inter.axiom_report(samples=3, seed=0, max_colour=k)
        + inter.trace_report()
    )
    parts.append(json.dumps(records, sort_keys=True))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def freed_cases(cp: CrossedProduct) -> list[tuple[int, ...]]:
    """Members of the normal subgroup of order 3, then of the embedded Theta."""
    return [tuple(cp.semidirect.index(g, 0) for g in range(3)), cp.embedded.members]


def fresh_summaries() -> list[str]:
    """:func:`cut_down_summary` of each of :func:`freed_cases`, each built
    on an ambient algebra of its own; run in a child process."""
    out = []
    for i in range(2):
        cp = CrossedProduct(inversion_action(3))
        members = freed_cases(cp)[i]
        out.append(cut_down_summary(IntermediateAlgebra(SubgroupBiprojection(cp.product, members), k_max=3)))
    return out


class TestBasisTable:
    """The table of generator values on basis tuples, and their surrounds,
    that a cut-down algebra keeps for its life."""

    def test_entries_are_fresh_values_within_the_bound(self):
        inter = IntermediateAlgebra(
            crossed_instance(CrossedProduct(load_action(json.loads((ACTIONS / "z3xz2.json").read_text())))),
            k_max=4,
        )
        table = inter.table
        assert not table.leaves and not table.surrounds
        records = inter.theorem_main_report(samples=40, seed=0) + inter.axiom_report(samples=40, seed=0)
        assert len(records) == 87 + 84
        assert [r["case"] for r in records if not r["pass"]] == []
        # 196 of the 311 are M_4 on pairs of the 14 colour-4 basis elements
        assert 0 < len(table.leaves) <= table_bound(inter) == 311
        assert len(table.surrounds) <= len(table.members) + len(table.leaves)
        # I_4 reaches colour 5, above k_max, so its value is not kept
        held = len(table.leaves), len(table.surrounds)
        assert inter.include_prime(inter.basis(4)[0]).colour == 5
        assert (len(table.leaves), len(table.surrounds)) == held
        ambient = GroupPlanarAlgebra(inter.algebra.group)
        sub = SubgroupBiprojection(ambient, inter.subgroup.members)

        def copy(x):
            return PAElement(x.colour, dict(x.coeffs), x.shaded)

        # every id keyed on is that of a member or a value the table holds
        for (gen, *ids), value in table.leaves.items():
            inputs = [table.members[i] for i in ids]
            assert table.values[id(value)] is value
            assert value == ambient._act(gen, [copy(x) for x in inputs]), gen
        for key, fixed in table.surrounds.items():
            x = table.members[key] if key in table.members else table.values[key]
            assert fixed == sub.surround(copy(x))
            if key in table.members:
                assert fixed is x

    def test_equal_copies_are_computed_not_kept(self):
        """An equal copy of a basis element is not a member: a leaf on it,
        and the surrounds of the copy and of that leaf's value, are computed
        afresh and equal the members' values, before and after the members'
        own entries go in, and no entry is added for them."""
        inter = IntermediateAlgebra(CP3.embedded, k_max=3)
        table, P, sub = inter.table, inter.algebra, inter.subgroup

        def counts():
            return len(table.leaves), len(table.values), len(table.surrounds)

        for colour in (2, 3):
            gen = GenExpr("M", colour)
            for b in inter.basis(colour):
                copy = PAElement(b.colour, dict(b.coeffs))

                def through_copies():
                    held = counts()
                    for inputs in ([copy, copy], [copy, b], [b, copy]):
                        value = table.act(gen, inputs)
                        assert value == P.multiply(b, b)
                        assert table.surround(value) == sub.surround(value)
                    assert table.surround(copy) == b
                    assert counts() == held

                through_copies()
                value = table.act(gen, [b, b])
                assert table.leaves[(gen, id(b), id(b))] is value
                assert table.surround(value) == sub.surround(value)
                assert table.surround(b) is b
                through_copies()

    def test_a_freed_algebra_leaves_nothing_behind(self):
        """A cut-down algebra that ran a report and was freed leaves no
        value behind for the next one built on the same ambient algebra:
        another subgroup's and the same subgroup's algebra give what a
        fresh process gives."""
        cp = CrossedProduct(inversion_action(3))
        cases = freed_cases(cp)
        first = IntermediateAlgebra(SubgroupBiprojection(cp.product, cases[1]), k_max=3)
        records = first.axiom_report(samples=3, seed=0, max_colour=3) + first.trace_report()
        assert first.table.leaves and all(r["pass"] for r in records)
        del first
        gc.collect()
        found = [
            cut_down_summary(IntermediateAlgebra(SubgroupBiprojection(cp.product, m), k_max=3))
            for m in cases
        ]
        here = Path(__file__).resolve().parent
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(here)!r})\n"
            "from test_intermediate import fresh_summaries\n"
            "print(json.dumps(fresh_summaries()))\n"
        )
        src = str(here.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert found == json.loads(proc.stdout)

    def test_planted_cap_defect_fails_as_without_the_table(self, monkeypatch):
        """A right cap that drops the least label of every result with two
        or more fails the same trace and axiom cases as it did before the
        table went in (recorded then): the table reads the planted action
        on first use, so it cannot hide it."""
        real = GroupPlanarAlgebra._act_E

        def dropping(self, target, x):
            out = real(self, target, x)
            if len(out.coeffs) < 2:
                return out
            coeffs = dict(out.coeffs)
            del coeffs[min(coeffs)]
            return PAElement(out.colour, coeffs)

        monkeypatch.setattr(GroupPlanarAlgebra, "_act_E", dropping)
        inter = IntermediateAlgebra(CrossedProduct(inversion_action(3)).embedded, k_max=4)
        failed = [r["case"] for r in inter.trace_report() if not r["pass"]]
        assert failed == [
            "tr' == [M:Q]^1 tr at colour 3",
            "tr' == [M:Q]^2 tr at colour 4",
            "right expectation preserves tr' at colour 3",
            "expectation after inclusion is id at colour 2",
            "include-expect idempotent at colour 3",
            "right expectation preserves tr' at colour 4",
            "expectation after inclusion is id at colour 3",
            "include-expect idempotent at colour 4",
        ]
        failed = [r["case"] for r in inter.axiom_report(samples=40, seed=1) if not r["pass"]]
        assert failed == ["substitution sample 11", "substitution sample 28", "substitution sample 34"]
        assert any(gen.kind == "E" for gen, *_ in inter.table.leaves)
