"""Tests for the crossed-product layer: orbit sums, twist sums, surround, transport."""

import itertools
import json
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarbox import crossed
from planarbox.crossed import CrossedProduct
from planarbox.expressions import GenExpr, realize
from planarbox.group_algebra import AlgebraError, PAElement, SubgroupBiprojection
from planarbox.groups import (
    cyclic_group,
    inversion_action,
    load_action,
    orbit_count_burnside,
    orbit_of,
    trivial_action,
)
from planarbox.scalars import ONE, ZERO, RadicalScalar, pow_half
from planarbox.suites import biprojection_report, biprojection_suite
from planarbox.tangles import alpha

CP3 = CrossedProduct(inversion_action(3))
CP4 = CrossedProduct(inversion_action(4))
CPT = CrossedProduct(trivial_action(cyclic_group(3)))
ACTIONS = Path(__file__).resolve().parent.parent / "actions"


def orbit_basis(cp, colour):
    """One orbit sum per orbit, keyed by its lexicographically least label."""
    return [(rep, cp.orbit_sum(colour, rep)) for rep in cp.orbit_reps(colour)]


class TestOrbitSums:
    def test_reps_colour_2(self):
        assert CP3.orbit_reps(2) == [(0,), (1,)]

    def test_reps_colour_3(self):
        assert CP3.orbit_reps(3) == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]

    @pytest.mark.parametrize("cp,colour", [(CP3, 2), (CP3, 3), (CP3, 4), (CP4, 2), (CP4, 3), (CP4, 4)])
    def test_rep_count_matches_burnside(self, cp, colour):
        assert len(cp.orbit_reps(colour)) == orbit_count_burnside(cp.action, colour - 1)

    def test_orbit_sum_merges_orbit(self):
        assert CP3.orbit_sum(2, (1,)) == CP3.base.element(2, {(1,): 1, (2,): 1})

    def test_fixed_label_keeps_multiplicity(self):
        assert CP3.orbit_sum(2, (0,)) == CP3.base.element(2, {(0,): 2})
        # the coefficient is divided by the stabilizer order, 2 and then 1
        assert CP3.invariant_components(CP3.orbit_sum(2, (0,))) == {(0,): ONE}
        assert CP3.invariant_components(CP3.orbit_sum(2, (1,))) == {(1,): ONE}

    def test_colour_one_orbit_sum(self):
        assert CP3.orbit_reps(1) == [()]
        assert CP3.orbit_sum(1, ()) == CP3.base.element(1, {(): 2})

    def test_colour_zero_rejected(self):
        with pytest.raises(AlgebraError, match="colour"):
            CP3.orbit_reps(0)

    def test_label_length_checked(self):
        with pytest.raises(AlgebraError, match="length"):
            CP3.orbit_sum(3, (1,))

    def test_orbit_sums_are_invariant(self):
        for colour in (2, 3, 4):
            for rep, el in orbit_basis(CP3, colour):
                assert CP3.invariant_components(el) == {rep: ONE}

    def test_plain_basis_element_not_invariant(self):
        with pytest.raises(AlgebraError, match="not invariant"):
            CP3.invariant_components(CP3.base.basis_element(2, (1,)))

    def test_orbit_basis_is_orthogonal(self):
        basis = orbit_basis(CP3, 3)
        for i, (_, x) in enumerate(basis):
            for j, (_, y) in enumerate(basis):
                inner = CP3.base.inner(x, y)
                assert inner.is_zero() == (i != j)

    def test_invariant_components_roundtrip(self):
        rng = random.Random(11)
        for colour in (2, 3):
            basis = orbit_basis(CP3, colour)
            combo = CP3.base.zero(colour)
            picked = {}
            for rep, el in basis:
                c = rng.randrange(-3, 4)
                if c:
                    picked[rep] = RadicalScalar.rational(c)
                    combo = combo + el.scale(c)
            assert CP3.invariant_components(combo) == picked

    def test_components_reject_non_invariant(self):
        with pytest.raises(AlgebraError, match="invariant"):
            CP3.invariant_components(CP3.base.basis_element(3, (1, 0)))


class TestOrbitProduct:
    def test_colour_2_worked_example(self):
        x = CP3.orbit_sum(2, (1,))
        assert CP3.orbit_multiply(x, x) == CP3.orbit_sum(2, (2,)) + CP3.orbit_sum(2, (0,))

    @pytest.mark.parametrize("cp", [CP3, CP4], ids=["z3", "z4"])
    @pytest.mark.parametrize("colour", [2, 3, 4])
    def test_closed_form_equals_expansion_exhaustively(self, cp, colour):
        basis = orbit_basis(cp, colour)
        for _, x in basis:
            for _, y in basis:
                assert cp.orbit_multiply(x, y) == cp.base.multiply(x, y)

    def test_colour_one_delegates(self):
        one = CP3.base.basis_element(1)
        assert CP3.orbit_multiply(one, one) == one

    def test_non_invariant_input_rejected(self):
        bad = CP3.base.basis_element(2, (1,))
        with pytest.raises(AlgebraError, match="invariant"):
            CP3.orbit_multiply(bad, bad)

    def test_trivial_action_reduces_to_plain_product(self):
        for g in range(3):
            for h in range(3):
                x = CPT.orbit_sum(2, (g,))
                y = CPT.orbit_sum(2, (h,))
                assert CPT.orbit_multiply(x, y) == CPT.base.basis_element(2, ((g + h) % 3,))

    @given(st.lists(st.integers(-2, 2), min_size=5, max_size=5),
           st.lists(st.integers(-2, 2), min_size=5, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_on_random_invariant_combos(self, cs, ds):
        basis = orbit_basis(CP3, 3)
        x = CP3.base.zero(3)
        y = CP3.base.zero(3)
        for (_, el), c, d in zip(basis, cs, ds):
            x = x + el.scale(c)
            y = y + el.scale(d)
        assert CP3.orbit_multiply(x, y) == CP3.base.multiply(x, y)


class TestTwistSums:
    def test_colour_2_worked_example(self):
        H = CP3.semidirect
        expected = CP3.product.element(
            2,
            {
                (H.index(1, 0),): 1,
                (H.index(1, 1),): 1,
                (H.index(2, 0),): 1,
                (H.index(2, 1),): 1,
            },
        )
        assert CP3.twist_sum(2, (1,)) == expected

    def test_depends_only_on_orbit(self):
        assert CP3.twist_sum(3, (1, 2)) == CP3.twist_sum(3, (2, 1))
        assert CP4.twist_sum(2, (1,)) == CP4.twist_sum(2, (3,))

    def test_stabilizer_multiplicity(self):
        H = CP3.semidirect
        el = CP3.twist_sum(2, (0,))
        for t in range(2):
            assert el.coefficient((H.index(0, t),)) == RadicalScalar.rational(2)

    def test_components_roundtrip(self):
        rng = random.Random(5)
        for colour in (2, 3):
            combo = CP3.product.zero(colour)
            picked = {}
            for rep in CP3.orbit_reps(colour):
                c = rng.randrange(-3, 4)
                if c:
                    picked[rep] = RadicalScalar.rational(c)
                    combo = combo + CP3.twist_sum(colour, rep).scale(c)
            assert CP3.twist_components(combo) == picked

    def test_components_reject_outside_span(self):
        lone = CP3.product.basis_element(2, (CP3.semidirect.index(1, 0),))
        with pytest.raises(AlgebraError, match="span"):
            CP3.twist_components(lone)

    def test_colour_2_product_frozen(self):
        lhs = CP3.product.multiply(CP3.twist_sum(2, (1,)), CP3.twist_sum(2, (1,)))
        rhs = (CP3.twist_sum(2, (2,)) + CP3.twist_sum(2, (0,))).scale(2)
        assert lhs == rhs
        assert CP3.twist_multiply(2, (1,), (1,)) == rhs

    @pytest.mark.parametrize("cp", [CP3, CP4], ids=["z3", "z4"])
    @pytest.mark.parametrize("colour", [2, 3, 4])
    def test_closed_form_equals_expansion_sampled(self, cp, colour):
        rng = random.Random(100 * colour + len(cp.group))
        n = len(cp.group)
        for _ in range(200):
            gbar = tuple(rng.randrange(n) for _ in range(colour - 1))
            hbar = tuple(rng.randrange(n) for _ in range(colour - 1))
            expanded = cp.product.multiply(
                cp.twist_sum(colour, gbar), cp.twist_sum(colour, hbar)
            )
            assert cp.twist_multiply(colour, gbar, hbar) == expanded

    def test_colour_below_two_rejected(self):
        with pytest.raises(AlgebraError, match="colour"):
            CP3.twist_multiply(1, (), ())

    @pytest.mark.parametrize("stem", ["z3xz2", "s4"])
    def test_components_walk_the_support(self, stem, monkeypatch):
        """Decomposition reads only the element's support: with the orbit
        enumeration of G^(c-1) made to raise, twist sums, closed-form
        products and transports at colours 2-5 still decompose, and the
        components rebuild them."""
        cp = CrossedProduct(load_action(json.loads((ACTIONS / f"{stem}.json").read_text())))

        def refuse(action, length):
            raise AssertionError("every orbit of G^(c-1) enumerated")

        monkeypatch.setattr(crossed, "orbit_representatives", refuse)
        rng = random.Random(23)
        n = len(cp.group)
        zero_products = 0
        for colour in (2, 3, 4, 5):
            for _ in range(4):
                gbar = tuple(rng.randrange(n) for _ in range(colour - 1))
                hbar = tuple(rng.randrange(n) for _ in range(colour - 1))
                rep = min(orbit_of(cp.action, gbar))
                assert cp.twist_components(cp.twist_sum(colour, gbar)) == {rep: ONE}
                product = cp.twist_multiply(colour, gbar, hbar)
                comps = cp.twist_components(product)
                zero_products += not comps
                rebuilt = cp.product.zero(colour)
                for r, c in comps.items():
                    assert r == min(orbit_of(cp.action, r))
                    rebuilt = rebuilt + cp.twist_sum(colour, r).scale(c)
                assert rebuilt == product
                x = cp.orbit_sum(colour, gbar)
                assert cp.transport_inverse(cp.transport(x)) == x
        assert 0 < zero_products < 16


def surround_per_label(cp: CrossedProduct, x: PAElement) -> PAElement:
    """The surround as a per-label spread: every input label adds its
    scaled twist sum into the output, one scalar product per twist label."""
    if x.colour == 0:
        return PAElement(0, dict(x.coeffs), x.shaded)
    pair = cp.semidirect.pair
    scale = Fraction(1, cp.theta_order**x.colour)
    acc: dict = {}
    for label, c in x.coeffs.items():
        rep = min(orbit_of(cp.action, tuple(pair(h)[0] for h in label)))
        for lbl, c2 in cp.twist_sum(x.colour, rep).coeffs.items():
            acc[lbl] = acc.get(lbl, ZERO) + c2 * c * scale
    return PAElement(x.colour, acc)


SPREAD_COEFFS = [
    ONE,
    RadicalScalar.rational(Fraction(-2, 3)),
    pow_half(2, 1),
    ONE - pow_half(3, 1),
    pow_half(6, -1),
]


class TestSurround:
    def test_worked_example(self):
        H = CP3.semidirect
        img = CP3.surround(CP3.product.basis_element(2, (H.index(1, 0),)))
        quarter = Fraction(1, 4)
        expected = CP3.product.element(
            2,
            {
                (H.index(1, 0),): quarter,
                (H.index(1, 1),): quarter,
                (H.index(2, 0),): quarter,
                (H.index(2, 1),): quarter,
            },
        )
        assert img == expected

    @pytest.mark.parametrize("cp", [CP3, CP4], ids=["z3", "z4"])
    @pytest.mark.parametrize("colour", [1, 2, 3])
    def test_idempotent_on_basis(self, cp, colour):
        for label in cp.product.basis_labels(colour):
            once = cp.surround(cp.product.basis_element(colour, label))
            assert cp.surround(once) == once

    def test_image_lies_in_twist_span(self):
        for colour in (2, 3):
            for label in CP3.product.basis_labels(colour):
                img = CP3.surround(CP3.product.basis_element(colour, label))
                CP3.twist_components(img)

    @pytest.mark.parametrize("cp,colour,rank", [
        (CP3, 2, 2), (CP3, 3, 5), (CP3, 4, 14), (CP4, 2, 3), (CP4, 3, 10),
    ])
    def test_twist_sums_have_disjoint_supports(self, cp, colour, rank):
        reps = cp.orbit_reps(colour)
        assert len(reps) == rank
        seen: set = set()
        for rep in reps:
            support = set(cp.twist_sum(colour, rep).support())
            assert not (support & seen)
            seen |= support

    def test_scalar_passthrough(self):
        plus = CP3.product.basis_element(0)
        minus = CP3.product.basis_element(0, (), shaded=True)
        assert CP3.surround(plus) == plus
        assert CP3.surround(minus) == minus
        assert CP3.surround(minus).shaded

    def test_trivial_action_is_identity(self):
        for colour in (1, 2, 3):
            for label in CPT.product.basis_labels(colour):
                b = CPT.product.basis_element(colour, label)
                assert CPT.surround(b) == b

    @pytest.mark.parametrize("cp", [CP3, CP4, CPT], ids=["z3", "z4", "trivial"])
    @pytest.mark.parametrize("colour", [1, 2, 3, 4])
    def test_matches_per_label_spread(self, cp, colour):
        """Each output label is assigned once; the per-label spread sums."""
        rng = random.Random(f"spread-{colour}-{len(cp.semidirect)}")
        labels = list(cp.product.basis_labels(colour))
        for _ in range(15):
            support = rng.sample(labels, min(len(labels), rng.randint(1, 40)))
            x = cp.product.element(colour, {lab: rng.choice(SPREAD_COEFFS) for lab in support})
            assert cp.surround(x) == surround_per_label(cp, x)
            # two labels over one orbit with opposite weights cancel
            lab = rng.choice(labels)
            parts = [cp.semidirect.pair(h)[0] for h in lab]
            moved = cp.action.apply_tuple(rng.randrange(cp.theta_order), parts)
            twin = tuple(cp.semidirect.index(g, 0) for g in moved)
            if twin != lab:
                y = cp.product.element(colour, {lab: 1, twin: -1})
                assert cp.surround(y).is_zero()
                assert surround_per_label(cp, y).is_zero()

    @given(st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_on_random_elements(self, cs):
        labels = list(CP3.product.basis_labels(3))
        coeffs = {lab: c for lab, c in zip(labels[:: len(labels) // 6], cs) if c}
        x = CP3.product.element(3, coeffs)
        once = CP3.surround(x)
        assert CP3.surround(once) == once


class TestBiprojection:
    def test_frozen_element(self):
        H = CP3.semidirect
        half = Fraction(1, 2)
        assert CP3.embedded.average() == CP3.product.element(
            2, {(H.index(0, 0),): half, (H.index(0, 1),): half}
        )

    def test_report_passes(self):
        report = biprojection_report(CP3.embedded, kmax=3)
        assert report and all(r["pass"] for r in report)

    def test_report_cases(self):
        cases = [r["case"] for r in biprojection_report(CP3.embedded, kmax=2)]
        assert cases == [
            "q*q == q",
            "star(q) == q",
            "tr(q) == 1/|Theta|",
            "q*e1 == e1",
            "e1*q == e1",
            "surround idempotent at colour 1",
            "surround idempotent at colour 2",
        ]

    def test_report_passes_z4(self):
        assert all(r["pass"] for r in biprojection_report(CP4.embedded, kmax=2))

    def test_conjugate_copies_verify_identically(self):
        for h in range(len(CP3.semidirect)):
            assert all(r["pass"] for r in biprojection_report(CP3.embedded.conjugate(h), kmax=2))

    def test_non_subgroup_rejected(self):
        H = CP3.semidirect
        with pytest.raises(AlgebraError, match="subgroup"):
            SubgroupBiprojection(CP3.product, [0, H.index(1, 0)])

    def test_trivial_action_biprojection_is_unit(self):
        assert CPT.embedded.average() == CPT.product.unit(2)

    def test_conjugate_flags_use_each_copys_own_surround(self, monkeypatch):
        """A surround broken only off the embedded copy of Theta breaks the
        conjugate copies that differ from it, and nothing else: in
        Z3 x| Z2 the four h = (g, t) with g != 0."""
        assert conjugate_flags_failed(monkeypatch, k_max=2, from_colour=1) == OFF_EMBEDDED

    def test_conjugate_copies_are_checked_up_to_k_max(self, monkeypatch):
        """The same defect from colour 2 up only, where colour 1 would not
        show it, breaks the same four conjugate flags at k_max 4."""
        assert conjugate_flags_failed(monkeypatch, k_max=4, from_colour=2) == OFF_EMBEDDED


# the conjugate-copy flags of CP3 at h = (g, t) with g != 0, whose copies
# differ from the embedded one
OFF_EMBEDDED = sorted(
    f"conjugate copy at h={CP3.semidirect.name(CP3.semidirect.index(g, t))} verifies identically"
    for g in (1, 2)
    for t in (0, 1)
)


def conjugate_flags_failed(monkeypatch, k_max, from_colour):
    """The failing cases of CP3's biprojection suite with every surround
    doubled off the embedded copy of Theta from colour ``from_colour`` up."""
    surround = SubgroupBiprojection.surround
    embedded = CP3.embedded.members

    def broken_off_embedded(self, x):
        out = surround(self, x)
        return out if self.members == embedded or x.colour < from_colour else out.scale(2)

    monkeypatch.setattr(SubgroupBiprojection, "surround", broken_off_embedded)
    return sorted(r["case"] for r in biprojection_suite(CP3, k_max=k_max) if not r["pass"])


class TestTransport:
    def test_colour_2_worked_example(self):
        img = CP3.transport(CP3.orbit_sum(2, (1,)))
        assert img == CP3.twist_sum(2, (1,)).scale(Fraction(1, 2))

    def test_prefactor_table(self):
        two = [CP3.transport_prefactor(k) for k in range(1, 6)]
        expected = [
            ONE,
            RadicalScalar.rational(Fraction(1, 2)),
            RadicalScalar({2: Fraction(1, 4)}),
            RadicalScalar({2: Fraction(1, 8)}),
            RadicalScalar.rational(Fraction(1, 8)),
        ]
        assert two == expected

    @pytest.mark.parametrize("colour", [1, 2, 3, 4])
    def test_bijection_on_bases(self, colour):
        for rep, el in orbit_basis(CP3, colour):
            carried = CP3.transport(el)
            assert CP3.twist_components(carried) != {}
            assert CP3.transport_inverse(carried) == el

    def test_scalar_passthrough(self):
        minus = CP3.base.basis_element(0, (), shaded=True)
        assert CP3.transport(minus) == CP3.product.basis_element(0, (), shaded=True)
        assert CP3.transport_inverse(CP3.transport(minus)) == minus

    def test_rejects_non_invariant(self):
        with pytest.raises(AlgebraError, match="invariant"):
            CP3.transport(CP3.base.basis_element(2, (1,)))

    def test_multiplication_intertwines_at_colour_2(self):
        x = CP3.orbit_sum(2, (1,))
        assert alpha(realize(GenExpr("M", 2)), 2) == ONE
        lhs = CP3.transport(CP3.orbit_multiply(x, x))
        tx = CP3.transport(x)
        rhs = CP3.surround(CP3.product.multiply(tx, tx))
        assert lhs == rhs

    def test_trivial_action_transport_is_identity(self):
        for g in range(3):
            el = CPT.orbit_sum(2, (g,))
            assert CPT.transport(el) == CPT.product.basis_element(2, (g,))


BUILDER_STEMS = ["z3xz2", "z4xz2", "z7xz3"]
BUILDER_PRODUCTS = {
    stem: CrossedProduct(load_action(json.loads((ACTIONS / f"{stem}.json").read_text())))
    for stem in BUILDER_STEMS
}
BUILDER_COEFFS = [
    ONE,
    -ONE,
    RadicalScalar.rational(Fraction(-2, 3)),
    pow_half(2, 1),
    -pow_half(3, 1),
    ONE - pow_half(6, 1),
]


def orbit_combination(cp: CrossedProduct, colour: int, comps: dict) -> PAElement:
    """``sum c * orbit_sum(colour, rep)`` over reps of distinct orbits,
    written out from ``orbit_of``: every label of the orbit gets ``c``
    times the stabilizer order."""
    coeffs = {}
    for rep, c in comps.items():
        orbit = orbit_of(cp.action, rep)
        coeffs.update(dict.fromkeys(orbit, c * (cp.theta_order // len(orbit))))
    return PAElement(colour, coeffs)


def cancelling_pairs(cp: CrossedProduct, colour: int, rng: random.Random) -> list:
    """Pairs ``(r (O(a) - O(b)), s O(c))``, in both orders, and at colour 2
    the difference times the sum of every label, whose product loses a
    label that one of its two term products has: a sum that cancels."""
    reps = cp.orbit_reps(colour)
    every = cp.base.element(colour, dict.fromkeys(cp.base.basis_labels(colour), 1))
    ys = [orbit_combination(cp, colour, {c: ONE}) for c in reps]
    pairs = []
    for a, b in itertools.combinations(reps, 2):
        r, s = rng.choice(BUILDER_COEFFS), rng.choice(BUILDER_COEFFS)
        x = orbit_combination(cp, colour, {a: r, b: -r})
        terms = [orbit_combination(cp, colour, {rep: ONE}) for rep in (a, b)]
        for y in ys + ([every] if colour == 2 else []):
            y = y.scale(s)
            for left, right, products in (
                (x, y, [cp.base.multiply(t, y) for t in terms]),
                (y, x, [cp.base.multiply(y, t) for t in terms]),
            ):
                labels = set().union(*(p.coeffs for p in products))
                if labels - cp.base.multiply(left, right).coeffs.keys():
                    pairs.append((left, right))
    return pairs


class TestOrbitBuilder:
    """Every map that returns orbit sums builds them through one builder;
    it must drop a sum that cancels and sum over every ``t``, ``t = 0``
    too, which seeded combinations with negative and radical coefficients
    check against the plain product and the transport round trip."""

    @pytest.mark.parametrize("stem", BUILDER_STEMS)
    @pytest.mark.parametrize("colour", [2, 3])
    def test_combinations_that_cancel(self, stem, colour):
        cp = BUILDER_PRODUCTS[stem]
        rng = random.Random(f"orbit-builder-{stem}-{colour}")
        reps = cp.orbit_reps(colour)
        pairs = cancelling_pairs(cp, colour, rng)
        assert pairs
        assert any(cp.base.multiply(x, y).is_zero() for x, y in pairs)
        for _ in range(12):
            x, y = (
                orbit_combination(cp, colour, {
                    rep: rng.choice(BUILDER_COEFFS)
                    for rep in rng.sample(reps, rng.randint(1, len(reps)))
                })
                for _ in range(2)
            )
            pairs.append((x, y))
        for x, y in pairs:
            assert cp.orbit_multiply(x, y) == cp.base.multiply(x, y)
            for z in (x, y):
                assert cp.transport_inverse(cp.transport(z)) == z


def walked_twist_components(cp: CrossedProduct, x: PAElement) -> dict:
    """The twist components by an orbit walk: each support label whose Theta
    parts are all 1 names an orbit, built once with ``orbit_of``; the
    coefficient at the orbit's least label, over the stabilizer order, is
    its component, and components that do not rebuild ``x`` are refused."""
    pair, index = cp.semidirect.pair, cp.semidirect.index
    comps, found = {}, set()
    for label in x.coeffs:
        parts = [pair(h) for h in label]
        if all(t == 0 for _, t in parts):
            gbar = tuple(g for g, _ in parts)
            if gbar in found:
                continue
            orbit = orbit_of(cp.action, gbar)
            found |= orbit
            rep = min(orbit)
            c = x.coefficient(tuple(index(g, 0) for g in rep)) / (cp.theta_order // len(orbit))
            if not c.is_zero():
                comps[rep] = c
    rebuilt = cp.product.zero(x.colour)
    for rep, c in comps.items():
        rebuilt = rebuilt + cp.twist_sum(x.colour, rep).scale(c)
    if rebuilt != x:
        raise AlgebraError("element lies outside the span of the twist sums")
    return comps


TWIST_CASES = [
    (stem, colour)
    for stem, colours in (("z3xz2", 4), ("z4xz2", 4), ("s4", 3), ("z7xz3", 3))
    for colour in range(1, colours + 1)
]
TWIST_PRODUCTS = {
    stem: CrossedProduct(load_action(json.loads((ACTIONS / f"{stem}.json").read_text())))
    for stem in ("z3xz2", "z4xz2", "s4", "z7xz3")
}


class TestTwistComponentsReading:
    """``twist_components`` reads each class once, at its least label, after
    the surround has said the element is fixed; an orbit walk with a
    rebuild must give the same dict, and refuse the same elements."""

    @pytest.mark.parametrize("stem, colour", TWIST_CASES, ids=str)
    def test_agrees_with_the_orbit_walk(self, stem, colour):
        cp = TWIST_PRODUCTS[stem]
        rng = random.Random(f"twist-reading-{stem}-{colour}")
        reps = cp.orbit_reps(colour)
        labels = list(cp.product.basis_labels(colour))
        fixed = moved = 0
        for _ in range(12):
            comps = {
                rep: rng.choice(BUILDER_COEFFS)
                for rep in rng.sample(reps, rng.randint(0, min(len(reps), 4)))
            }
            x = cp.product.zero(colour)
            for rep, c in comps.items():
                x = x + cp.twist_sum(colour, rep).scale(c)
            assert cp.twist_components(x) == walked_twist_components(cp, x) == comps
            fixed += 1
            if colour == 1:
                continue  # every colour-1 element is fixed
            off = dict(x.coeffs)
            kind = rng.choice(["drop", "other", "add"]) if off else "add"
            if kind == "drop":
                del off[rng.choice(sorted(off))]
            elif kind == "other":
                off[rng.choice(sorted(off))] = rng.choice(BUILDER_COEFFS) * 5
            else:
                off[rng.choice(labels)] = rng.choice(BUILDER_COEFFS) * 7
            y = PAElement(colour, {lab: c for lab, c in off.items() if not c.is_zero()})
            with pytest.raises(AlgebraError, match="span"):
                walked_twist_components(cp, y)
            with pytest.raises(AlgebraError, match="span"):
                cp.twist_components(y)
            moved += 1
        assert fixed == 12 and moved == (0 if colour == 1 else 12)


def swept_invariant_components(cp: CrossedProduct, x: PAElement) -> dict:
    """The orbit components by a sweep over Theta for invariance, then a
    sorted orbit walk read at each orbit's least label."""
    for t in range(1, cp.theta_order):
        for label, c in x.coeffs.items():
            if x.coefficient(cp.action.apply_tuple(t, label)) != c:
                raise AlgebraError("element is not invariant under the group action")
    comps, found = {}, set()
    for label in x.support():
        if label in found:
            continue
        orbit = orbit_of(cp.action, label)
        found |= orbit
        rep = min(orbit)
        comps[rep] = x.coefficient(rep) / (cp.theta_order // len(orbit))
    return comps


def perturbed(x: PAElement, labels: list, rng: random.Random) -> PAElement:
    """``x`` with one coefficient dropped, changed, or added at a label."""
    off = dict(x.coeffs)
    kind = rng.choice(["drop", "other", "add"]) if off else "add"
    if kind == "drop":
        del off[rng.choice(sorted(off))]
    elif kind == "other":
        off[rng.choice(sorted(off))] = rng.choice(BUILDER_COEFFS) * 5
    else:
        off[rng.choice(labels)] = rng.choice(BUILDER_COEFFS) * 7
    return PAElement(x.colour, {lab: c for lab, c in off.items() if not c.is_zero()})


def outcome(read, x: PAElement):
    """What ``read(x)`` returns, or the message it raises."""
    try:
        return read(x)
    except AlgebraError as exc:
        return str(exc)


class TestOneReaderPerFamily:
    """Each family is read one way: ``invariant_components`` decides
    invariance inside its orbit walk, and ``twist_components`` and
    ``transport_inverse`` restrict a fixed element to its labels embedded
    from G.  Each must agree with a reading that checks and reads
    separately, on seeded combinations of both families, and raise with
    the same message on elements outside them."""

    @pytest.mark.parametrize("stem, colour", TWIST_CASES, ids=str)
    def test_invariant_components_agree_with_the_sweep(self, stem, colour):
        cp = TWIST_PRODUCTS[stem]
        rng = random.Random(f"orbit-reading-{stem}-{colour}")
        reps = cp.orbit_reps(colour)
        labels = list(cp.base.basis_labels(colour))
        moved = 0
        for _ in range(12):
            comps = {
                rep: rng.choice(BUILDER_COEFFS)
                for rep in rng.sample(reps, rng.randint(0, min(len(reps), 4)))
            }
            x = orbit_combination(cp, colour, comps)
            assert cp.invariant_components(x) == swept_invariant_components(cp, x) == comps
            # a fixed label's orbit is itself, so a perturbed x may stay invariant
            y = perturbed(x, labels, rng)
            found = outcome(cp.invariant_components, y)
            assert found == outcome(partial(swept_invariant_components, cp), y)
            moved += found == "element is not invariant under the group action"
        assert (moved > 0) == (colour > 1)

    @pytest.mark.parametrize("stem, colour", TWIST_CASES, ids=str)
    def test_twist_readers_agree_with_the_orbit_walk(self, stem, colour):
        cp = TWIST_PRODUCTS[stem]
        rng = random.Random(f"restrict-reading-{stem}-{colour}")
        reps = cp.orbit_reps(colour)
        labels = list(cp.product.basis_labels(colour))
        scale = cp.transport_prefactor(colour).invert()

        def inverse(x):
            comps = walked_twist_components(cp, x)
            return cp._orbit_combination(colour, {rep: c * scale for rep, c in comps.items()})

        moved = 0
        for _ in range(12):
            comps = {
                rep: rng.choice(BUILDER_COEFFS)
                for rep in rng.sample(reps, rng.randint(0, min(len(reps), 4)))
            }
            x = cp.product.zero(colour)
            for rep, c in comps.items():
                x = x + cp.twist_sum(colour, rep).scale(c)
            assert cp.twist_components(x) == walked_twist_components(cp, x) == comps
            assert cp.transport_inverse(x) == inverse(x)
            if colour == 1:
                continue  # every colour-1 element is fixed
            y = perturbed(x, labels, rng)
            message = outcome(inverse, y)
            assert message == "element lies outside the span of the twist sums"
            assert outcome(cp.twist_components, y) == outcome(cp.transport_inverse, y) == message
            moved += 1
        assert moved == (0 if colour == 1 else 12)


INTERTWINE_GENERATORS = [
    GenExpr("M", 2),
    GenExpr("M", 3),
    GenExpr("E", 0),
    GenExpr("E", 1),
    GenExpr("E", 2),
    GenExpr("E", 3),
    GenExpr("I", 0),
    GenExpr("I", 1),
    GenExpr("I", 2),
    GenExpr("Eprime", 1),
    GenExpr("Eprime", 2),
    GenExpr("Eprime", 3),
    GenExpr("jones", 2),
    GenExpr("jones", 3),
    GenExpr("unit", 0, False),
    GenExpr("unit", 0, True),
]


class TestIntertwining:
    @pytest.mark.parametrize("gen", INTERTWINE_GENERATORS, ids=lambda g: f"{g.kind}{g.k}{'-' if g.shaded else ''}")
    def test_transport_commutes_with_generator(self, gen):
        for record in CP3.intertwine_check(gen):
            assert record["pass"], record

    @pytest.mark.parametrize("gen", [GenExpr("M", 2), GenExpr("E", 2), GenExpr("I", 2), GenExpr("jones", 2)])
    def test_transport_commutes_on_z4(self, gen):
        for record in CP4.intertwine_check(gen):
            assert record["pass"], record

    def test_record_count_matches_basis_tuples(self):
        assert len(CP3.intertwine_check(GenExpr("M", 3))) == 25
        assert len(CP3.intertwine_check(GenExpr("jones", 3))) == 1

    @pytest.mark.parametrize("gen", INTERTWINE_GENERATORS, ids=lambda g: f"{g.kind}{g.k}{'-' if g.shaded else ''}")
    def test_each_input_is_transported_once(self, gen, monkeypatch):
        """One transport per record, of its left side, and one per
        orbit-basis input of each slot, which every tuple then reads."""
        carried = []
        transport = CrossedProduct.transport

        def counted(self, x):
            carried.append(x)
            return transport(self, x)

        monkeypatch.setattr(CrossedProduct, "transport", counted)
        records = CP3.intertwine_check(gen)
        inputs = sum(1 if d.colour == 0 else len(CP3.orbit_reps(d.colour)) for d in gen.discs[1])
        assert len(carried) == len(records) + inputs

    def test_records_carry_rendered_sides(self):
        record = CP3.intertwine_check(GenExpr("E", 1))[0]
        assert record["suite"] == "crossed-product"
        assert record["lhs"] == record["rhs"]
