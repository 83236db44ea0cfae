"""End-to-end acceptance run, one test per numbered criterion.

``pytest -v tests/test_acceptance.py`` prints a single pass/fail line for
each criterion.  Everything is exact: scalars are compared with ``==`` in
the quadratic-radical ring, never with a tolerance.  The workhorse instance
is the order-6 semidirect product (inversion on the cyclic group of order
3); the order-8 instance (inversion on order 4) rides along where radical
canonicalization of sqrt(4) matters.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from planarbox.crossed import CrossedProduct
from planarbox.expressions import GenExpr, random_composable_pair, realize
from planarbox.group_algebra import row_reduce
from planarbox.groups import inversion_action
from planarbox.intermediate import IntermediateAlgebra
from planarbox.scalars import ONE, RadicalScalar, pow_half
from planarbox.suites import base_algebra_report, biprojection_report
from planarbox.tangles import alpha, compose, loops_black, make_generator

CP = CrossedProduct(inversion_action(3))
CP4 = CrossedProduct(inversion_action(4))


@pytest.fixture(scope="module")
def inter():
    """The cut-down algebra of CP at k_max 4; built here, not at import, so a
    broken surround fails the criteria that use it and no others."""
    return IntermediateAlgebra(CP.embedded, k_max=4)


def _all_pass(records):
    assert records, "empty report"
    bad = [r for r in records if not r["pass"]]
    assert not bad, f"{len(bad)} failing, first: {bad[0]}"


def _orbit_count_by_burnside(cp, colour):
    """Average fixed-label count over the twist group, as an exact integer."""
    n = len(cp.group)
    fixed = 0
    for t in range(cp.theta_order):
        fixed += sum(
            1
            for lab in itertools.product(range(n), repeat=colour - 1)
            if cp.action.apply_tuple(t, lab) == lab
        )
    count = Fraction(fixed, cp.theta_order)
    assert count.denominator == 1
    return int(count)


def test_criterion_01_generator_weight_table():
    for m in (2, 3):
        for k in range(0, 6):
            assert alpha(make_generator("id", k), m) == ONE
            assert alpha(make_generator("M", k), m) == ONE
        for k in (0, 2, 4):
            assert alpha(make_generator("E", k), m) == pow_half(m, -1)
        for k in (1, 3, 5):
            assert alpha(make_generator("E", k), m) == pow_half(m, 1)
        for k in (3, 5):
            assert alpha(make_generator("jones", k), m) == pow_half(m, 1)
        for k in (2, 4):
            assert alpha(make_generator("jones", k), m) == pow_half(m, -1)
        # the colour-1 left expectation closes an extra loop, so the
        # uniform value starts at colour 2
        for k in range(2, 6):
            assert alpha(make_generator("Eprime", k), m) == pow_half(m, 1)


def test_criterion_02_weight_ratio_identity():
    rng = random.Random(20260825)
    for _ in range(1000):
        outer, slot, inner = random_composable_pair(rng, max_colour=6, depth=2)
        t, s = realize(outer), realize(inner)
        glued = compose(t, slot, s)
        defect = (
            t.internal[slot - 1].colour
            - loops_black(t)
            - loops_black(s)
            + loops_black(glued)
        )
        for ratio in (2, 3):
            assert alpha(t, ratio) * alpha(s, ratio) == alpha(glued, ratio) * pow_half(
                ratio, defect
            )


def test_criterion_03_ambient_algebra_ring_axioms():
    _all_pass(base_algebra_report(CP, k_max=4))
    _all_pass(base_algebra_report(CP4, k_max=3))
    # the suite samples the star antihomomorphism at colour 4 where the
    # basis is large; redo it exhaustively on the integer index table
    P = CP.product
    for colour in (2, 3, 4):
        table, labels, _ = P.product_structure(colour)
        position = {lab: i for i, lab in enumerate(labels)}
        star_idx = np.empty(len(labels), dtype=np.int64)
        for i, lab in enumerate(labels):
            [(starred, coeff)] = P.star(P.basis_element(colour, lab)).coeffs.items()
            assert coeff == ONE
            star_idx[i] = position[starred]
        t = table.astype(np.int64)
        extended = np.append(star_idx, -1)
        lhs = extended[t]
        rhs = t[np.ix_(star_idx, star_idx)].T
        assert (lhs == rhs).all()


def test_criterion_04_biprojection_and_surround_rank():
    _all_pass(biprojection_report(CP.embedded, kmax=4))
    _all_pass(biprojection_report(CP4.embedded, kmax=3))
    assert CP.product.trace(CP.embedded.average()) == Fraction(1, 2)
    expected = {2: 2, 3: 5, 4: _orbit_count_by_burnside(CP, 4)}
    assert expected[4] == 14
    for cp, ranks in ((CP, expected), (CP4, None)):
        top = 4 if ranks else 3
        P = cp.product
        for colour in range(2, top + 1):
            count = _orbit_count_by_burnside(cp, colour)
            if ranks:
                assert count == ranks[colour]
            images = [
                cp.surround(P.basis_element(colour, lab))
                for lab in P.basis_labels(colour)
            ]
            assert len(row_reduce(images)) == count


def test_criterion_05_composite_tangle_identity(inter):
    records = inter.theorem_main_report(samples=200, seed=0, max_colour=4)
    assert len(records) == 1 + 2 * (200 + 3)
    _all_pass(records)


def test_criterion_06_planar_axiom_suite(inter):
    records = inter.axiom_report(samples=40, seed=1, max_colour=4)
    assert len(records) == 4 + 2 * 40
    _all_pass(records)


def test_criterion_07_jones_projection_family(inter):
    records = inter.jones_report(top=4)
    assert len(records) == 14
    _all_pass(records)
    third = RadicalScalar.rational(Fraction(1, 3))
    for colour in (2, 3, 4):
        assert inter.trace_prime(inter.jones_prime(colour)) == third


def test_criterion_08_trace_rescaling(inter):
    records = inter.trace_report()
    _all_pass(records)
    P = CP.product
    for colour in range(1, 5):
        assert inter.trace_prime(inter.unit_prime(colour)) == ONE
        grading = RadicalScalar.rational(2 ** (colour // 2))
        for x in inter.basis(colour):
            assert inter.trace_prime(x) == P.trace(x) * grading


def test_criterion_09_transport_bijection_intertwines():
    for colour in range(1, 5):
        reps = CP.orbit_reps(colour)
        images = []
        for rep in reps:
            x = CP.orbit_sum(colour, rep)
            carried = CP.transport(x)
            images.append(carried)
            assert CP.transport_inverse(carried) == x
        assert len(row_reduce(images)) == len(reps)
    generators = (
        [GenExpr("M", k) for k in (2, 3, 4)]
        + [GenExpr("E", k) for k in range(0, 4)]
        + [GenExpr("I", k) for k in range(0, 4)]
        + [GenExpr("Eprime", k) for k in range(1, 5)]
        + [GenExpr("jones", k) for k in (2, 3, 4)]
        + [GenExpr("unit", 0), GenExpr("unit", 0, True)]
    )
    for gen in generators:
        _all_pass(CP.intertwine_check(gen))


def test_criterion_10_closed_product_constants():
    for cp, top in ((CP, 4), (CP4, 3)):
        for colour in range(2, top + 1):
            reps = cp.orbit_reps(colour)
            for a in reps:
                for b in reps:
                    x = cp.orbit_sum(colour, a)
                    y = cp.orbit_sum(colour, b)
                    assert cp.orbit_multiply(x, y) == cp.base.multiply(x, y)
                    direct = cp.product.multiply(
                        cp.twist_sum(colour, a), cp.twist_sum(colour, b)
                    )
                    assert cp.twist_multiply(colour, a, b) == direct


def test_criterion_11_dual_bookkeeping(inter):
    records = inter.dual_report(samples=50, seed=7)
    assert len(records) == 17
    _all_pass(records)
    ranks = [r for r in records if r["case"].startswith("dual surround rank")]
    assert [r["rhs"] for r in ranks] == ["1", "2", "4"]
    for colour, record in zip(range(1, 4), ranks):
        assert record["lhs"] == str(CP.theta_order ** (colour - 1))
