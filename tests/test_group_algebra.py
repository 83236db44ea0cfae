import collections
import itertools
import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from planarbox.expressions import (
    MAX_DEPTH,
    ComposeExpr,
    GenExpr,
    RenumberExpr,
    arity,
    generators_with_external,
    parse_expr,
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
from planarbox.groups import SemidirectGroup, cyclic_group, inversion_action, load_action
from planarbox.intermediate import IntermediateAlgebra
from planarbox.scalars import ONE, ZERO, RadicalScalar, pow_half
from planarbox.tangles import Disc


ACTIONS = Path(__file__).resolve().parent.parent / "actions"


def algebra(n: int) -> GroupPlanarAlgebra:
    return GroupPlanarAlgebra(cyclic_group(n))


def trace_closed_form(alg: GroupPlanarAlgebra, x: PAElement) -> RadicalScalar:
    """Frozen from scripts/solve_base_constants.py, independent of the
    capping fold the implementation uses."""
    k, n = x.colour, alg.group.order
    if k <= 1:
        return x.coefficient(())
    total = ZERO
    weight = pow_half(n, 1 - (k + 1) // 2)
    for lab, c in x.coeffs.items():
        if lab[0] != 0:
            continue
        if any(lab[i - 1] != lab[k - i] for i in range(2, k // 2 + 1)):
            continue
        total = total + c * weight
    return total


def product_closed_form(alg: GroupPlanarAlgebra, x: PAElement, y: PAElement) -> PAElement:
    """Frozen from basis_product and el_mul in scripts/solve_base_constants.py,
    over the group table: the prefactor is applied to every term pair."""
    k, n, op = x.colour, alg.group.order, alg.group.op
    out: dict = {}
    for g, cg in x.coeffs.items():
        for h, ch in y.coeffs.items():
            if k <= 1:
                coeff, lab = ONE, ()
            elif k == 2:
                coeff, lab = ONE, (op(g[0], h[0]),)
            else:
                m = (k + 1) // 2
                if any(op(h[0], g[k - i]) != h[i - 1] for i in range(2, m + 1)):
                    continue
                coeff = pow_half(n, m - 1)
                lab = tuple(op(h[0], g[j]) for j in range(m)) + h[m : k - 1]
            out[lab] = out.get(lab, ZERO) + cg * ch * coeff
    return PAElement(k, out, x.shaded)


def merging_label(alg: GroupPlanarAlgebra, k: int, g: tuple, rng: random.Random) -> tuple:
    """A random label h with S(g) S(h) nonzero."""
    n, op = alg.group.order, alg.group.op
    h = [rng.randrange(n) for _ in range(max(k - 1, 0))]
    for i in range(2, (k + 1) // 2 + 1):
        h[i - 1] = op(h[0], g[k - i])
    return tuple(h)


def colliding_pairs(alg: GroupPlanarAlgebra, k: int, rng: random.Random):
    """Two distinct merging pairs (g1, h1), (g2, h2) whose basis products
    share one label, found by sampling; returns the pairs and the label."""
    n = alg.group.order
    seen: dict = {}
    while True:
        g = tuple(rng.randrange(n) for _ in range(k - 1))
        h = merging_label(alg, k, g, rng)
        product = product_closed_form(alg, alg.basis_element(k, g), alg.basis_element(k, h))
        (lab,) = product.support()
        if lab in seen and seen[lab] != (g, h):
            return seen[lab], (g, h), lab
        seen[lab] = (g, h)


def star_label(alg: GroupPlanarAlgebra, k: int, lab: tuple) -> tuple:
    inv, op = alg.group.inv, alg.group.op
    if k <= 1:
        return ()
    if k == 2:
        return (inv(lab[0]),)
    first = inv(lab[0])
    return (first,) + tuple(op(first, lab[j]) for j in range(k - 2, 0, -1))


class TestPAElement:
    def test_zero_coefficients_dropped(self):
        x = PAElement(2, {(0,): ONE, (1,): ZERO})
        assert x.support() == [(0,)]
        assert x.coefficient((1,)) == ZERO

    def test_label_length_checked(self):
        with pytest.raises(AlgebraError, match="length"):
            PAElement(3, {(0,): ONE})

    def test_vector_space_ops(self):
        alg = algebra(3)
        x = alg.basis_element(2, (1,))
        y = alg.basis_element(2, (2,))
        s = x + y - x.scale(3)
        assert s.coefficient((1,)) == ONE * (-2)
        assert s.coefficient((2,)) == ONE
        assert (s - s).is_zero()

    def test_colour_mismatch(self):
        alg = algebra(3)
        with pytest.raises(AlgebraError, match="mismatch"):
            alg.basis_element(2, (0,)) + alg.basis_element(3, (0, 0))
        with pytest.raises(AlgebraError, match="mismatch"):
            alg.unit(0, shaded=True) + alg.unit(0, shaded=False)
        with pytest.raises(AlgebraError, match="mismatch"):
            alg.basis_element(2, (0,)) - alg.basis_element(3, (0, 0))
        with pytest.raises(AlgebraError, match="mismatch"):
            alg.unit(0, shaded=True) - alg.unit(0, shaded=False)

    @pytest.mark.parametrize(
        "build",
        [
            lambda alg: PAElement(2, {(0,): ONE}, shaded=True),
            lambda alg: alg.basis_element(3, (0, 1), True),
            lambda alg: alg.unit(1, shaded=True),
        ],
        ids=["PAElement", "basis_element", "unit"],
    )
    def test_shading_flag_refused_above_colour_0(self, build):
        """Above colour 0 the shading flag has no meaning, as for a disc:
        it is refused, not dropped."""
        with pytest.raises(AlgebraError, match="shading flag only applies to colour 0"):
            build(algebra(3))

    @pytest.mark.parametrize("shaded", [False, True])
    def test_unit_scalings_return_the_element(self, shaded):
        """Scaling by 1, in any of its three spellings, gives the element
        itself, equal to a fresh rebuild; every other scalar, -1 included,
        gives a new element with every coefficient scaled."""
        alg = SEMIDIRECT["z3xz2"]
        rng = random.Random(f"unit-scalings-{shaded}")
        for colour in (0, 2, 3, 4):
            if shaded and colour:
                continue
            labels = {tuple(rng.randrange(6) for _ in range(max(colour - 1, 0))) for _ in range(8)}
            x = PAElement(colour, {lab: rng.choice(CLASS_COEFFS) for lab in labels}, shaded)
            for one in (1, Fraction(1), ONE):
                out = x.scale(one)
                assert out is x
                assert out == PAElement(colour, dict(x.coeffs), shaded)
            for c in (-1, Fraction(1, 2), -ONE, pow_half(6, 1)):
                out = x.scale(c)
                assert out is not x and out.shaded == shaded
                assert out == PAElement(colour, {lab: v * c for lab, v in x.coeffs.items()}, shaded)


class TestMultiplication:
    def test_colour_two_is_the_group_ring(self):
        alg = algebra(5)
        for g, h in itertools.product(range(5), repeat=2):
            p = alg.multiply(alg.basis_element(2, (g,)), alg.basis_element(2, (h,)))
            assert p == alg.basis_element(2, ((g + h) % 5,))

    def test_colour_three_formula(self):
        # S(g1,g2) S(h1,h2) = sqrt(n) delta(h1 g2, h2) S(h1 g1, h2)
        alg = algebra(3)
        root3 = alg.delta
        for g1, g2, h1, h2 in itertools.product(range(3), repeat=4):
            p = alg.multiply(
                alg.basis_element(3, (g1, g2)), alg.basis_element(3, (h1, h2))
            )
            if (h1 + g2) % 3 == h2:
                assert p == alg.basis_element(3, ((h1 + g1) % 3, h2)).scale(root3)
            else:
                assert p.is_zero()

    # the unit comes from inclusion, so it has no top colour; colour 6 lies
    # past every tabulated closed form
    @pytest.mark.parametrize(
        "k,n", [(k, n) for k in (2, 3, 4, 5) for n in (3, 4)] + [(6, 3)]
    )
    def test_units_are_two_sided(self, k, n):
        alg = algebra(n)
        u = alg.unit(k)
        for lab in alg.basis_labels(k):
            s = alg.basis_element(k, lab)
            assert alg.multiply(u, s) == s
            assert alg.multiply(s, u) == s

    @pytest.mark.parametrize("n,k", [(3, 3), (3, 4), (4, 3), (2, 4)])
    def test_associativity_exhaustive(self, n, k):
        alg = algebra(n)
        basis = [alg.basis_element(k, lab) for lab in alg.basis_labels(k)]
        for x, y, z in itertools.product(basis, repeat=3):
            assert alg.multiply(alg.multiply(x, y), z) == alg.multiply(
                x, alg.multiply(y, z)
            )

    def test_scalar_colours_multiply_as_numbers(self):
        alg = algebra(3)
        a = alg.unit(1).scale(2)
        b = alg.unit(1).scale(pow_half(3, 1))
        assert alg.multiply(a, b) == alg.unit(1).scale(pow_half(3, 1) * 2)

    def test_product_index_table_matches_multiply(self):
        alg = algebra(4)
        for k in (3, 4):
            table, labels, _ = alg.product_structure(k)
            prefactor = pow_half(4, (k + 1) // 2 - 1)
            rng = random.Random(5)
            for _ in range(200):
                i, j = rng.randrange(len(labels)), rng.randrange(len(labels))
                p = alg.multiply(
                    alg.basis_element(k, labels[i]), alg.basis_element(k, labels[j])
                )
                if table[i, j] < 0:
                    assert p.is_zero()
                else:
                    assert p == alg.basis_element(k, labels[table[i, j]]).scale(
                        prefactor
                    )


SEMIDIRECT = {
    "z3xz2": GroupPlanarAlgebra(SemidirectGroup(inversion_action(3))),
    "z4xz2": GroupPlanarAlgebra(SemidirectGroup(inversion_action(4))),
}
# few values, so that coefficient classes have many labels
CLASS_COEFFS = [
    ONE,
    RadicalScalar.rational(-3),
    ONE + pow_half(6, 1),
    pow_half(2, 1) - pow_half(3, -1),
    pow_half(6, -1),
]
COEFFS = [
    ONE,
    RadicalScalar.rational(-2),
    RadicalScalar.rational(Fraction(1, 3)),
    pow_half(2, 1),
    ONE - pow_half(3, 1),
    pow_half(6, -1),
    pow_half(8, 1),
]


class TestProductRule:
    """multiply, which scales once per output label, against the per-pair
    closed form, on noncommutative groups of orders 6 and 8."""

    @pytest.mark.parametrize("name", sorted(SEMIDIRECT))
    @pytest.mark.parametrize("k", range(6))
    def test_random_elements_match_closed_form(self, name, k):
        alg = SEMIDIRECT[name]
        n = alg.group.order
        rng = random.Random(f"{name}-{k}")

        def label() -> tuple:
            return tuple(rng.randrange(n) for _ in range(max(k - 1, 0)))

        for _ in range(25):
            xs = [label() for _ in range(rng.randint(1, 6))]
            ys = [merging_label(alg, k, rng.choice(xs), rng) for _ in range(rng.randint(1, 4))]
            ys += [label() for _ in range(rng.randint(0, 3))]
            shaded = k == 0 and rng.random() < 0.5
            x = PAElement(k, {g: rng.choice(COEFFS) for g in xs}, shaded)
            y = PAElement(k, {h: rng.choice(COEFFS) for h in ys}, shaded)
            expected = product_closed_form(alg, x, y)
            assert alg.multiply(x, y) == expected
            assert alg.multiply(y, x) == product_closed_form(alg, y, x)

    @pytest.mark.parametrize("name", sorted(SEMIDIRECT))
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_vanishing_products(self, name, k):
        alg = SEMIDIRECT[name]
        n = alg.group.order
        rng = random.Random(f"zero-{name}-{k}")
        for _ in range(25):
            g = tuple(rng.randrange(n) for _ in range(k - 1))
            h = list(merging_label(alg, k, g, rng))
            h[1] = (h[1] + rng.randrange(1, n)) % n  # breaks the i = 2 constraint
            x = PAElement(k, {g: rng.choice(COEFFS)})
            y = PAElement(k, {tuple(h): rng.choice(COEFFS)})
            assert product_closed_form(alg, x, y).is_zero()
            assert alg.multiply(x, y).is_zero()

    @pytest.mark.parametrize("name", sorted(SEMIDIRECT))
    @pytest.mark.parametrize("k", range(5))
    def test_product_constant_is_the_applied_prefactor(self, name, k):
        alg = SEMIDIRECT[name]
        rng = random.Random(k)
        g = tuple(rng.randrange(alg.group.order) for _ in range(max(k - 1, 0)))
        h = merging_label(alg, k, g, rng)
        product = alg.multiply(alg.basis_element(k, g), alg.basis_element(k, h))
        (label,) = product.support()
        assert product.coefficient(label) == alg.product_structure(k)[2]

    @pytest.mark.parametrize("name", sorted(SEMIDIRECT))
    @pytest.mark.parametrize("k", range(6))
    def test_coefficient_classes_match_closed_form(self, name, k):
        """Inputs with few distinct coefficients, several of them irrational,
        so that one class pair reaches a merged label many times."""
        alg = SEMIDIRECT[name]
        n = alg.group.order
        rng = random.Random(f"classes-{name}-{k}")

        def label() -> tuple:
            return tuple(rng.randrange(n) for _ in range(max(k - 1, 0)))

        for _ in range(20):
            values = rng.sample(CLASS_COEFFS, rng.randint(1, 3))
            xs = {label() for _ in range(rng.randint(1, 12))}
            ys = {merging_label(alg, k, rng.choice(sorted(xs)), rng) for _ in range(8)}
            ys |= {label() for _ in range(rng.randint(0, 6))}
            x = PAElement(k, {g: rng.choice(values) for g in xs})
            y = PAElement(k, {h: rng.choice(values) for h in ys})
            assert alg.multiply(x, y) == product_closed_form(alg, x, y)
            assert alg.multiply(y, x) == product_closed_form(alg, y, x)

    @pytest.mark.parametrize("name", sorted(SEMIDIRECT))
    @pytest.mark.parametrize("k", range(2, 6))
    def test_hit_counts_and_cancelling_classes(self, name, k):
        """Two term pairs (g1, h1), (g2, h2) that merge to one label L: with
        equal coefficients L is hit twice by one class pair, with opposite
        ones the two class pairs cancel and L must be absent."""
        alg = SEMIDIRECT[name]
        rng = random.Random(f"hits-{name}-{k}")
        for _ in range(10):
            (g1, h1), (g2, h2), lab = colliding_pairs(alg, k, rng)
            c, d = rng.sample(CLASS_COEFFS, 2)
            prefactor = pow_half(alg.group.order, (k + 1) // 2 - 1)
            y = PAElement(k, {h1: d, h2: d})
            x = PAElement(k, {g1: c, g2: c})
            twice = alg.multiply(x, y)
            assert twice == product_closed_form(alg, x, y)
            assert twice.coefficient(lab) == c * d * prefactor * 2
            x = PAElement(k, {g1: c, g2: -c})
            cancelled = alg.multiply(x, y)
            assert lab not in cancelled.coeffs
            assert cancelled == product_closed_form(alg, x, y)
            y = PAElement(k, {h1: d, h2: d, merging_label(alg, k, g1, rng): rng.choice(CLASS_COEFFS)})
            assert alg.multiply(x, y) == product_closed_form(alg, x, y)

    @pytest.mark.parametrize("name", sorted(SEMIDIRECT))
    @pytest.mark.parametrize("k", range(3, 6))
    def test_one_label_class_cancels_against_a_counted_class(self, name, k):
        """A left class of one label, written without hit counting, and a
        left class of two labels, counted, meet on one label with opposite
        coefficients: the label must be absent, whichever class comes
        first."""
        alg = SEMIDIRECT[name]
        n = alg.group.order
        rng = random.Random(f"one-label-{name}-{k}")
        for _ in range(10):
            (g1, h1), (g2, h2), lab = colliding_pairs(alg, k, rng)
            # a third left label whose own product lands elsewhere
            g3 = g2
            while g3 in (g1, g2) or h3 in (h1, h2) or alg._merge(k, g3, h3) == lab:
                g3 = tuple(rng.randrange(n) for _ in range(k - 1))
                h3 = merging_label(alg, k, g3, rng)
            c, d, e = rng.sample(CLASS_COEFFS, 3)
            y = PAElement(k, {h1: d, h2: d, h3: e})
            for x in (PAElement(k, {g1: c, g2: -c, g3: -c}), PAElement(k, {g2: -c, g3: -c, g1: c})):
                out = alg.multiply(x, y)
                assert lab not in out.coeffs
                assert not out.is_zero()
                assert_trusted(out)
                assert out == product_closed_form(alg, x, y)


class TestStarAndTrace:
    @pytest.mark.parametrize("n", [3, 4])
    def test_star_involutive(self, n):
        alg = algebra(n)
        for k in range(2, 6):
            for lab in alg.basis_labels(k):
                s = alg.basis_element(k, lab)
                assert alg.star(alg.star(s)) == s
                assert alg.star(s) == alg.basis_element(k, star_label(alg, k, lab))

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (3, 4), (4, 3)])
    def test_star_antimultiplicative(self, n, k):
        alg = algebra(n)
        for g, h in itertools.product(alg.basis_labels(k), repeat=2):
            x, y = alg.basis_element(k, g), alg.basis_element(k, h)
            assert alg.star(alg.multiply(x, y)) == alg.multiply(
                alg.star(y), alg.star(x)
            )

    @pytest.mark.parametrize("n", [3, 4])
    def test_trace_matches_closed_form(self, n):
        alg = algebra(n)
        for k in range(2, 6):
            for lab in alg.basis_labels(k):
                s = alg.basis_element(k, lab)
                assert alg.trace(s) == trace_closed_form(alg, s)
            assert alg.trace(alg.unit(k)) == ONE

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
    def test_orthonormal_basis(self, n, k):
        alg = algebra(n)
        for g, h in itertools.product(alg.basis_labels(k), repeat=2):
            ip = alg.inner(alg.basis_element(k, g), alg.basis_element(k, h))
            assert ip == (ONE if g == h else ZERO)

    def test_trace_of_group_ring_element(self):
        alg = algebra(3)
        assert alg.trace(alg.basis_element(2, (0,))) == ONE
        assert alg.trace(alg.basis_element(2, (1,))) == ZERO

    @pytest.mark.parametrize("n", [3, 4])
    def test_inclusion_preserves_trace(self, n):
        alg = algebra(n)
        for k in range(1, 5):
            for lab in alg.basis_labels(k):
                s = alg.basis_element(k, lab)
                assert alg.trace(alg._act_I(k, s)) == alg.trace(s)


def chain_trace(alg: GroupPlanarAlgebra, x: PAElement) -> RadicalScalar:
    """The uncached capping chain on the whole element: ``E`` one colour at
    a time, each closed loop divided by ``delta``."""
    cur = x
    for k in range(x.colour - 1, 0, -1):
        cur = alg._act_E(k, cur).scale(alg.delta.invert())
    return cur.coefficient(())


def traced_label(k: int, n: int, rng: random.Random) -> tuple:
    """A random label at colour k whose basis trace is nonzero: first entry
    the identity, mirrored about the middle (see trace_closed_form)."""
    lab = [rng.randrange(n) for _ in range(max(k - 1, 0))]
    if lab:
        lab[0] = 0
    for i in range(2, k // 2 + 1):
        lab[k - i] = lab[i - 1]
    return tuple(lab)


def action_algebra(stem: str) -> GroupPlanarAlgebra:
    data = json.loads((ACTIONS / f"{stem}.json").read_text())
    return GroupPlanarAlgebra(SemidirectGroup(load_action(data)))


class TestTraceMemo:
    """``trace`` by linearity from the per-label memo, against the closed
    form and the uncached chain, with a cold memo and a warm one."""

    @pytest.mark.parametrize("stem", ["z3xz2", "z7xz3"])
    def test_memo_matches_closed_form_and_chain(self, stem):
        cold = action_algebra(stem)
        n = cold.group.order
        rng = random.Random(f"trace-memo-{stem}")
        elements = [cold.unit(0, shaded=True).scale(pow_half(2, 1))]
        for k in range(6):
            for _ in range(8):
                labels = {traced_label(k, n, rng) for _ in range(rng.randint(0, 4))}
                labels |= {
                    tuple(rng.randrange(n) for _ in range(max(k - 1, 0)))
                    for _ in range(rng.randint(1, 6))
                }
                coeffs = {lab: rng.choice(COEFFS) for lab in labels}
                # one draw per element, so the samples stay as they were
                elements.append(PAElement(k, coeffs, shaded=rng.random() < 0.5 and k == 0))
        assert {x.shaded for x in elements if x.colour == 0} == {False, True}
        expected = [chain_trace(cold, x) for x in elements]
        assert expected == [trace_closed_form(cold, x) for x in elements]
        assert sum(not t.is_zero() for t in expected) > len(elements) // 2
        assert cold._trace_cache == {}
        for rounds in range(2):  # a cold memo, then the same memo warm
            for x, t in zip(elements, expected):
                assert cold.trace(x) == t
            for colour, memo in cold._trace_cache.items():
                assert len(memo) <= cold.dimension(colour)
                traced = {lab for x in elements if x.colour == colour for lab in x.coeffs}
                assert set(memo) == traced
        # one algebra per element, so each trace starts from an empty memo
        for x, t in zip(elements[:12], expected):
            fresh = action_algebra(stem)
            assert fresh.trace(x) == t
            assert set(fresh._trace_cache) == {x.colour}

    def test_memo_is_bounded_by_the_dimension(self):
        """Every label of colours 0 to 4 traced twice over: each colour's
        memo holds exactly its dimension."""
        alg = action_algebra("z3xz2")
        for _ in range(2):
            for k in range(5):
                for lab in alg.basis_labels(k):
                    s = alg.basis_element(k, lab)
                    assert alg.trace(s) == trace_closed_form(alg, s)
        assert {k: len(m) for k, m in alg._trace_cache.items()} == {
            k: alg.dimension(k) for k in range(5)
        }


def table_by_merge(alg: GroupPlanarAlgebra, k: int) -> np.ndarray:
    """The reference index table: ``_merge`` on every pair of labels."""
    labels = list(alg.basis_labels(k))
    index = {lab: i for i, lab in enumerate(labels)}
    rows = []
    for g in labels:
        merged = [alg._merge(k, g, h) for h in labels]
        rows.append([-1 if lab is None else index[lab] for lab in merged])
    return np.array(rows, dtype=np.int32)


@pytest.mark.parametrize(
    "stem,k",
    [(stem, k) for stem in ("z3xz2", "z3-trivial") for k in range(5)]
    + [("z7xz3", k) for k in range(4)]
    + [("z4xz2", 4)],
)
def test_product_structure_matches_merge_on_every_pair(stem, k):
    """The table walked from left parts against right-part buckets equals
    the per-pair rule, entry for entry, with the colour's prefactor."""
    alg = action_algebra(stem)
    table, labels, prefactor = alg.product_structure(k)
    assert labels == list(alg.basis_labels(k))
    assert table.dtype == np.int32 and table.shape == (alg.dimension(k),) * 2
    assert np.array_equal(table, table_by_merge(action_algebra(stem), k))
    assert prefactor == pow_half(alg.group.order, max((k + 1) // 2 - 1, 0))


# keyed so that the case ids read "<colour>-<order>" on the cyclic groups
JONES_ALGEBRAS = {
    "3": algebra(3),
    "4": algebra(4),
    "z3xz2": action_algebra("z3xz2"),
}
JONES_CASES = [
    pytest.param(name, k, id=f"{k}-{name}")
    for name, top in (("3", 7), ("4", 7), ("z3xz2", 6))
    for k in range(2, top + 1)
]


class TestJones:
    """The rule at every colour against what characterizes the Jones
    projections: a self-adjoint idempotent of trace ``1/n`` capped to
    ``unit/delta``, the Temperley-Lieb relations with the included element
    one colour down, commutation with the one two colours down, and the
    Markov property on every basis element one colour down."""

    @pytest.mark.parametrize("name,k", JONES_CASES)
    def test_characterizing_system(self, name, k):
        alg = JONES_ALGEBRAS[name]
        n = alg.group.order
        e = alg.jones_element(k)
        assert alg.multiply(e, e) == e
        assert alg.star(e) == e
        assert alg.trace(e) == pow_half(n, -2)
        assert alg._act_E(k - 1, e) == alg.unit(k - 1).scale(alg.delta.invert())

    @pytest.mark.parametrize("name,k", [case for case in JONES_CASES if case.values[1] >= 3])
    def test_temperley_lieb(self, name, k):
        alg = JONES_ALGEBRAS[name]
        tau = pow_half(alg.group.order, -2)
        e = alg.jones_element(k)
        f = alg._act_I(k - 1, alg.jones_element(k - 1))
        assert alg.multiply(alg.multiply(e, f), e) == e.scale(tau)
        assert alg.multiply(alg.multiply(f, e), f) == f.scale(tau)
        if k >= 4:
            g = alg._act_I(k - 1, alg._act_I(k - 2, alg.jones_element(k - 2)))
            assert alg.multiply(e, g) == alg.multiply(g, e)

    @pytest.mark.parametrize("name,k", JONES_CASES)
    def test_markov(self, name, k):
        alg = JONES_ALGEBRAS[name]
        tau = pow_half(alg.group.order, -2)
        e = alg.jones_element(k)
        for lab in alg.basis_labels(k - 1):
            b = alg.basis_element(k - 1, lab)
            assert alg.trace(alg.multiply(alg._act_I(k - 1, b), e)) == alg.trace(b) * tau

    def test_colour_range(self):
        alg = algebra(3)
        for k in (0, 1):
            with pytest.raises(AlgebraError, match="colour >= 2"):
                alg.jones_element(k)
        # colour 6: (0, a, b, t, a) with coefficient 3^-2
        ninth = RadicalScalar.rational(Fraction(1, 9))
        assert alg.jones_element(6) == PAElement(
            6, {(0, a, b, t, a): ninth for a, b, t in itertools.product(range(3), repeat=3)}
        )


class TestGeneratorActions:
    def test_right_expectation_cases(self):
        alg = algebra(3)
        root3 = alg.delta
        # target colour 2: the printed anomaly S(g1,g2) -> S(-g1)
        for g1, g2 in itertools.product(range(3), repeat=2):
            out = alg._act_E(2, alg.basis_element(3, (g1, g2)))
            assert out == alg.basis_element(2, ((-g1) % 3,))
        # target colour 4: drop the middle entry
        out = alg._act_E(4, alg.basis_element(5, (1, 2, 0, 1)))
        assert out == alg.basis_element(4, (1, 2, 1))
        # target colour 3: delta factor and a loop weight
        out = alg._act_E(3, alg.basis_element(4, (1, 2, 2)))
        assert out == alg.basis_element(3, (1, 2)).scale(root3)
        assert alg._act_E(3, alg.basis_element(4, (1, 2, 0))).is_zero()
        # target colour 1: only the identity label survives
        assert alg._act_E(1, alg.basis_element(2, (0,))) == alg.unit(1).scale(root3)
        assert alg._act_E(1, alg.basis_element(2, (1,))).is_zero()

    def test_inclusion_cases(self):
        alg = algebra(3)
        inv_root = alg.delta.invert()
        # colour 2 includes S(g^-1): its labels multiply in the reverse order
        out = alg._act_I(2, alg.basis_element(2, (1,)))
        assert out == PAElement(
            3, {(2, u): inv_root for u in range(3)}
        )
        out = alg._act_I(3, alg.basis_element(3, (1, 2)))
        assert out == alg.basis_element(4, (1, 2, 2))
        assert alg._act_I(1, alg.unit(1)) == alg.basis_element(2, (0,))
        assert alg._act_I(0, alg.unit(0)) == alg.unit(1)

    def test_left_expectation_cases(self):
        alg = algebra(3)
        root3 = alg.delta
        out = alg._act_Eprime(3, alg.basis_element(3, (0, 2)))
        assert out == alg.basis_element(3, (0, 2)).scale(root3)
        assert alg._act_Eprime(3, alg.basis_element(3, (1, 2))).is_zero()
        assert alg._act_Eprime(1, alg.unit(1)) == alg.unit(1).scale(root3)

    def test_act_via_expressions(self):
        alg = algebra(3)
        g = alg.basis_element(2, (1,))
        h = alg.basis_element(2, (2,))
        prod = alg.act_generator(GenExpr("M", 2), [g, h])
        assert prod == alg.basis_element(2, (0,))
        assert alg.act_generator(GenExpr("id", 2), [g]) == g
        jones = alg.act_generator(GenExpr("jones", 2), [])
        assert jones == alg.jones_element(2).scale(alg.delta)
        one_minus = alg.act_generator(GenExpr("unit", 0, True), [])
        assert one_minus.shaded

    def test_input_validation(self):
        alg = algebra(3)
        with pytest.raises(AlgebraError, match="input"):
            alg.act_generator(GenExpr("M", 2), [alg.basis_element(2, (0,))])
        with pytest.raises(AlgebraError, match="slot"):
            alg.act_generator(
                GenExpr("M", 2),
                [alg.basis_element(2, (0,)), alg.basis_element(3, (0, 0))],
            )


class TestEvaluate:
    def test_capped_inclusion_frozen_value(self):
        # frozen in scripts/solve_base_constants.py: the composite sends
        # S(g) to sqrt(n) S(g), one closed loop, as at every other colour
        alg = algebra(3)
        expr = parse_expr("(compose (gen E 2 3) 1 (gen I 3 2))")
        for g in range(3):
            out = alg.evaluate(expr, [alg.basis_element(2, (g,))])
            assert out == alg.basis_element(2, (g,)).scale(alg.delta)

    def test_renumber_swaps_factors(self):
        alg = GroupPlanarAlgebra(SemidirectGroup(inversion_action(3)))
        expr = parse_expr("(renumber (2 1) (gen M 2))")
        # (1,0) and (0,inv) do not commute in the semidirect product
        a = alg.basis_element(2, (alg.group.index(1, 0),))
        b = alg.basis_element(2, (alg.group.index(0, 1),))
        direct = alg.evaluate(parse_expr("(gen M 2)"), [a, b])
        swapped = alg.evaluate(expr, [a, b])
        ia, ib = alg.group.index(1, 0), alg.group.index(0, 1)
        assert direct == alg.basis_element(2, (alg.group.op(ia, ib),))
        assert swapped == alg.basis_element(2, (alg.group.op(ib, ia),))
        assert direct != swapped

    def test_composition_folds(self):
        alg = algebra(3)
        expr = parse_expr("(compose (gen M 2) 2 (compose (gen M 2) 1 (gen id 2)))")
        xs = [alg.basis_element(2, (g,)) for g in (1, 2, 2)]
        out = alg.evaluate(expr, xs)
        assert out == alg.basis_element(2, ((1 + 2 + 2) % 3,))

    def test_arity_checked(self):
        alg = algebra(3)
        with pytest.raises(AlgebraError, match="input"):
            alg.evaluate(parse_expr("(gen M 2)"), [alg.basis_element(2, (0,))])

    def test_every_leaf_lands_on_its_external_disc(self):
        """Why the inputs are checked at the root only: every generator the
        sampler offers, given inputs on its slot discs, returns a value on
        its external disc, so a validated tree feeds every slot a value
        that fits it."""
        alg = SEMIDIRECT["z3xz2"]
        rng = random.Random("leaf-discs")
        discs = [Disc(0), Disc(0, True)] + [Disc(c) for c in range(1, 5)]
        leaves = {leaf for d in discs for leaf in generators_with_external(d, 4)}
        assert {leaf.kind for leaf in leaves} == {"unit", "id", "M", "Eprime", "jones", "E", "I"}
        for leaf in leaves:
            external, slots = leaf.discs
            for _ in range(3):
                inputs = [
                    PAElement(d.colour, {
                        tuple(rng.randrange(6) for _ in range(max(d.colour - 1, 0))):
                            rng.choice(CLASS_COEFFS)
                        for _ in range(3)
                    }, d.shaded)
                    for d in slots
                ]
                assert alg.evaluate(leaf, inputs).disc() == external, leaf

    @pytest.mark.parametrize("cached", [False, True])
    def test_inputs_checked_against_the_root_slots(self, cached):
        """A wrong colour, or the wrong shading at colour 0, is refused with
        the message a generator gives, also when the input reaches a leaf
        deep in the tree and when the ``last`` dict already holds the tree."""
        alg = algebra(3)
        s0, t0 = alg.basis_element(2, (0,)), alg.basis_element(3, (0, 0))
        plus, minus = alg.unit(0), alg.unit(0, shaded=True)
        capped = parse_expr("(compose (gen M 2) 2 (gen E 2 3))")
        cases = [
            # (tree, inputs that fit, misfit inputs, message)
            (capped, [s0, t0], [s0, s0], "input colour 2 does not fit slot 3"),
            (capped, [s0, t0], [t0, t0], "input colour 3 does not fit slot 2"),
            (ComposeExpr(GenExpr("M", 0), 2, GenExpr("id", 0)), [plus, plus], [plus, minus],
             "input colour 0- does not fit slot 0+"),
            (ComposeExpr(GenExpr("M", 0, True), 1, GenExpr("id", 0, True)), [minus, minus],
             [plus, minus], "input colour 0+ does not fit slot 0-"),
        ]
        for expr, good, bad, message in cases:
            last = {} if cached else None
            if cached:
                alg.evaluate(expr, good, last=last)
            with pytest.raises(AlgebraError, match=re.escape(message)):
                alg.evaluate(expr, bad, last=last)

    def test_unit_expression(self):
        alg = algebra(3)
        out = alg.evaluate(parse_expr("(gen unit minus)"), [])
        assert out == alg.unit(0, shaded=True)

    def test_deep_tree_validated_once(self, disc_makes):
        """A chain of 300 products folds to the product of its inputs, and
        each composition makes its discs once: the evaluation that reads
        the root's slots first, and a later refused call, make none again."""
        alg = algebra(5)
        depth = 300
        expr = GenExpr("id", 2)
        chain = []
        for _ in range(depth):
            expr = ComposeExpr(GenExpr("M", 2), 2, expr)
            chain.append(expr)
        rng = random.Random("deep")
        gs = [rng.randrange(5) for _ in range(depth + 1)]
        out = alg.evaluate(expr, [alg.basis_element(2, (g,)) for g in gs])
        assert out == alg.basis_element(2, (sum(gs) % 5,))
        assert list(map(id, disc_makes)) == list(map(id, chain))  # post-order: innermost first
        with pytest.raises(AlgebraError, match="input"):
            alg.evaluate(expr, [alg.basis_element(2, (0,))] * depth)
        assert list(map(id, disc_makes)) == list(map(id, chain))

    @pytest.mark.parametrize("read", ["slot_colours", "arity", "realize", "evaluate"])
    @pytest.mark.parametrize("leaf, slot", [("id", 1), ("M", 2)], ids=["id", "M"])
    def test_chain_at_the_depth_bound_on_first_read(self, read, leaf, slot):
        """A fresh ``MAX_DEPTH``-deep ``compose`` chain, nested as the CLI
        tests build theirs, goes through each reader as the first read of
        its discs, under the default recursion limit: the first read
        recurses one frame per level.  The product chain folds to the
        product of its inputs, the identity chain to its one input."""
        assert sys.getrecursionlimit() == 1000
        chain = parse_expr(f"(compose (gen {leaf} 2) {slot} " * MAX_DEPTH
                           + "(gen id 2)" + ")" * MAX_DEPTH)
        n = MAX_DEPTH + 1 if leaf == "M" else 1
        if read == "slot_colours":
            assert slot_colours(chain) == (Disc(2),) * n
        elif read == "arity":
            assert arity(chain) == n
        elif read == "realize":
            t = realize(chain)
            assert (t.external, t.internal, t.closed_loops) == (Disc(2), (Disc(2),) * n, 0)
            if leaf == "id":
                assert t == realize(GenExpr("id", 2))
        else:
            alg = algebra(5)
            rng = random.Random(f"depth-bound-{leaf}")
            gs = [rng.randrange(5) for _ in range(n)]
            out = alg.evaluate(chain, [alg.basis_element(2, (g,)) for g in gs])
            assert out == alg.basis_element(2, (sum(gs) % 5,))


class TestEvaluationCache:
    """One ``last`` dict per record must give every value a call without
    one gives."""

    def basis_pools(self, alg, discs):
        # built once, so the same objects recur across tuples, as in the
        # suites' basis_tuples
        return [
            [alg.basis_element(d.colour, lab, d.shaded) for lab in alg.basis_labels(d.colour)]
            for d in discs
        ]

    def test_cached_equals_uncached_on_every_basis_tuple(self):
        """Seeded composable pairs over z3xz2 at colours <= 3: the inner
        tree, the outer tree around its value, the glued tree and a
        renumbering of it share one ``last`` dict, in the order the composite
        checks use it."""
        alg = SEMIDIRECT["z3xz2"]
        rng = random.Random("evaluation-cache")
        checked = 0
        while checked < 25:
            outer, slot, inner = random_composable_pair(rng, max_colour=3, depth=2, max_arity=3)
            glued = ComposeExpr(outer, slot, inner)
            n = len(slot_colours(glued))
            renumbered = RenumberExpr(tuple(range(n, 0, -1)), glued)
            inner_pools = self.basis_pools(alg, slot_colours(inner))
            outer_slots = slot_colours(outer)
            rest_pools = self.basis_pools(alg, outer_slots[: slot - 1] + outer_slots[slot:])
            if math.prod(map(len, inner_pools + rest_pools)) > 1500:
                continue
            last = {}
            for xs in itertools.product(*inner_pools):
                xs = list(xs)
                value = alg.evaluate(inner, xs, last=last)
                assert value == alg.evaluate(inner, xs)
                for rest in itertools.product(*rest_pools):
                    before, after = list(rest[: slot - 1]), list(rest[slot - 1 :])
                    ys = before + [value] + after
                    zs = before + xs + after
                    assert alg.evaluate(outer, ys, last=last) == alg.evaluate(outer, ys)
                    assert alg.evaluate(glued, zs, last=last) == alg.evaluate(glued, zs)
                    assert alg.evaluate(renumbered, zs[::-1], last=last) == alg.evaluate(glued, zs)
            checked += 1

    def test_recycled_addresses_do_not_hit(self):
        """Fresh temporaries fed to one ``last`` dict reuse the addresses of
        freed ones; a dict that kept only ids would return stale values."""
        alg = algebra(5)
        expr = parse_expr("(compose (gen E 2 3) 1 (gen I 3 2))")
        last = {}
        addresses = []
        for i in range(200):
            # consecutive inputs differ, so a stale value would be wrong
            x = alg.basis_element(2, (i % 5,))
            addresses.append(id(x))
            assert alg.evaluate(expr, [x], last=last) == alg.evaluate(expr, [x])
            del x
        assert len(set(addresses)) < len(addresses)

    def test_renumbered_then_base_multiplies_once(self, monkeypatch):
        alg = SEMIDIRECT["z3xz2"]
        t = GenExpr("M", 3)
        perm = (2, 1)
        rng = random.Random("renumber-once")
        labels = list(alg.basis_labels(3))
        xs = [alg.basis_element(3, rng.choice(labels)) for _ in range(2)]
        permuted = [xs[perm[i] - 1] for i in range(2)]
        calls = 0
        original = GroupPlanarAlgebra.multiply

        def counted(self, x, y):
            nonlocal calls
            calls += 1
            return original(self, x, y)

        monkeypatch.setattr(GroupPlanarAlgebra, "multiply", counted)
        last = {}
        lhs = alg.evaluate(RenumberExpr(perm, t), xs, last=last)
        rhs = alg.evaluate(t, permuted, last=last)
        assert lhs == rhs
        assert calls == 1
        # without a shared dict, each call multiplies
        alg.evaluate(RenumberExpr(perm, t), xs)
        alg.evaluate(t, permuted)
        assert calls == 3

    def test_tree_validated_once_per_cache(self, disc_makes):
        """Each node makes its discs once for its life: evaluating one tree
        through several ``last`` dicts, and without one, makes them on the
        first call only, and a misfit input is still refused at the root."""
        alg = algebra(3)
        glued = parse_expr("(compose (gen M 2) 2 (gen id 2))")
        expr = RenumberExpr((2, 1), glued)
        for _ in range(3):
            last = {}
            for g in range(3):
                alg.evaluate(expr, [alg.basis_element(2, (g,)), alg.basis_element(2, (0,))], last=last)
        alg.evaluate(expr, [alg.basis_element(2, (0,)), alg.basis_element(2, (1,))])
        assert list(map(id, disc_makes)) == [id(glued), id(expr)]
        with pytest.raises(AlgebraError, match="input"):
            alg.evaluate(expr, [alg.basis_element(2, (0,))], last={})
        assert list(map(id, disc_makes)) == [id(glued), id(expr)]


class TestRendering:
    def test_symbols(self):
        alg = algebra(3)
        assert alg.render(alg.basis_element(2, (1,))) == "S(1)"
        assert alg.render(PAElement(2, {})) == "0"
        assert alg.render(alg.unit(0, shaded=True)) == "1[0-]"
        assert alg.render(alg.unit(1).scale(-1)) == "-1[1]"

    def test_coefficients(self):
        alg = algebra(3)
        x = alg.basis_element(2, (0,)).scale(pow_half(3, -2))
        y = alg.basis_element(2, (1,)).scale(ONE + pow_half(2, 1))
        assert alg.render(x + y) == "1/3*S(0) + (1 + sqrt(2))*S(1)"

    def test_semidirect_names(self):
        alg = GroupPlanarAlgebra(SemidirectGroup(inversion_action(3)))
        assert alg.render(alg.basis_element(2, (3,))) == "S((1,1))"


class TestLeftPartCache:
    def test_bounded_by_the_labels_multiplied(self):
        """Colour 5 on the order-8 group: the cache holds one entry per left
        factor label met, never more than the colour's dimension."""
        alg = GroupPlanarAlgebra(SemidirectGroup(inversion_action(4)))
        n, k = alg.group.order, 5
        rng = random.Random("left-cache")
        labels = list(alg.basis_labels(k))

        def sparse():
            hs = {tuple(rng.randrange(n) for _ in range(k - 1)) for _ in range(30)}
            return PAElement(k, {h: rng.choice(CLASS_COEFFS) for h in hs})

        left, right = sparse(), sparse()
        alg.multiply(left, right)
        assert set(alg._left_parts(k)) == set(left.coeffs)
        dense = PAElement(k, {lab: rng.choice(CLASS_COEFFS) for lab in labels})
        for _ in range(3):
            y = sparse()
            alg.multiply(dense, y)
            alg.multiply(y, dense)
            assert set(alg._left_parts(k)) == set(labels)
            assert len(alg._left_parts(k)) == alg.dimension(k) == 4096
        assert set(alg._left_cache) == {k}
        for g in rng.sample(labels, 20):
            keys, prefixes = alg._left_parts(k)[g]
            assert len(keys) == len(prefixes) == n

    @pytest.mark.parametrize("k", range(2, 6))
    def test_pairs_share_their_keys_and_prefixes(self, k):
        """Every label of a colour gets ``n`` keys and ``n`` prefixes; labels
        with the same tail ``g[k-m:k-1]`` share one keys tuple (``is``) and
        labels with the same head ``g[:m]`` one prefixes tuple."""
        alg = GroupPlanarAlgebra(SemidirectGroup(inversion_action(4)))
        n = alg.group.order
        parts = alg._left_parts(k)
        m = parts.m
        by_tail: dict = {}
        by_head: dict = {}
        for g in alg.basis_labels(k):
            keys, prefixes = parts[g]
            assert len(keys) == len(prefixes) == n
            assert by_tail.setdefault(g[k - m : k - 1], keys) is keys
            assert by_head.setdefault(g[:m], prefixes) is prefixes
        assert len(by_tail) == n ** (m - 1)
        assert len(by_head) == n**m

    def test_merge_reads_the_split_rule(self):
        alg = SEMIDIRECT["z4xz2"]
        rng = random.Random("merge-split")
        n = alg.group.order
        for k in range(6):
            m = (k + 1) // 2
            for _ in range(30):
                g = tuple(rng.randrange(n) for _ in range(max(k - 1, 0)))
                h = merging_label(alg, k, g, rng)
                expected = product_closed_form(alg, alg.basis_element(k, g), alg.basis_element(k, h))
                (lab,) = expected.support()
                assert alg._merge(k, g, h) == lab
                keys, prefixes = alg._left_parts(k)[g]
                i = h[0] if h else 0
                assert keys[i] == h[:m]
                assert prefixes[i] + h[m:] == lab

    @pytest.mark.parametrize("name", sorted(SEMIDIRECT))
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_merge_refuses_a_key_that_differs_past_h0(self, name, k):
        """``h[0]`` picks the key ``keys[h[0]]``; a label that agrees with it
        in ``h[0]`` but not in the rest of ``h[:m]`` gives no product."""
        alg = SEMIDIRECT[name]
        rng = random.Random(f"merge-miss-{name}-{k}")
        n, m = alg.group.order, (k + 1) // 2
        for _ in range(40):
            g = tuple(rng.randrange(n) for _ in range(k - 1))
            h = list(merging_label(alg, k, g, rng))
            i = rng.randrange(1, m)
            h[i] = (h[i] + rng.randrange(1, n)) % n
            h = tuple(h)
            keys, _ = alg._left_parts(k)[g]
            assert keys[h[0]][0] == h[0] and keys[h[0]] != h[:m]
            assert alg._merge(k, g, h) is None
            assert product_closed_form(alg, alg.basis_element(k, g), alg.basis_element(k, h)).is_zero()


class TestRightFactorMemo:
    @pytest.mark.parametrize(
        "k,shaded", [(0, False), (0, True), (1, False), (2, False), (3, False), (4, False)]
    )
    def test_memoised_right_factor_multiplies_as_a_fresh_copy(self, k, shaded):
        """Once ``y`` has served as a right factor, a product with another
        left factor equals the product with a fresh copy of ``y``."""
        alg = SEMIDIRECT["z3xz2"]
        n = alg.group.order
        rng = random.Random(f"right-memo-{k}-{shaded}")

        def element() -> PAElement:
            labels = {tuple(rng.randrange(n) for _ in range(max(k - 1, 0))) for _ in range(25)}
            return PAElement(k, {lab: rng.choice(CLASS_COEFFS) for lab in labels}, shaded)

        for _ in range(5):
            x1, x2, y = element(), element(), element()
            assert alg.multiply(x1, y) == product_closed_form(alg, x1, y)
            assert y._right_classes is not None
            fresh = PAElement(y.colour, y.coeffs, y.shaded)
            assert fresh._right_classes is None
            assert alg.multiply(x2, y) == alg.multiply(x2, fresh) == product_closed_form(alg, x2, y)


    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_memo_regroups_in_an_algebra_of_another_order(self, k):
        """The memo folds in the prefactor ``sqrt(n)^(m-1)``, which differs
        between z3xz2 (n = 6) and z4xz2 (n = 8) from colour 3 on: a right
        factor used in one algebra and then the other must multiply there
        as a fresh copy.  Labels use elements 0..5, valid in both groups."""
        rng = random.Random(f"right-memo-orders-{k}")

        def element() -> PAElement:
            labels = {tuple(rng.randrange(6) for _ in range(k - 1)) for _ in range(20)}
            return PAElement(k, {lab: rng.choice(CLASS_COEFFS) for lab in labels})

        for first, second in [("z3xz2", "z4xz2"), ("z4xz2", "z3xz2")]:
            for _ in range(3):
                x1, x2, y = element(), element(), element()
                SEMIDIRECT[first].multiply(x1, y)
                for name in (second, first):
                    alg = SEMIDIRECT[name]
                    fresh = PAElement(y.colour, y.coeffs)
                    assert alg.multiply(x2, y) == alg.multiply(x2, fresh)
                    assert alg.multiply(x2, y) == product_closed_form(alg, x2, y)


    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_memo_regroups_against_another_algebras_table(self, k):
        """The memo is keyed on the identity of the colour's left-parts
        table: a right factor used in z3xz2 and then in the algebra of the
        cyclic group of the same order, whose prefactor is equal, is
        regrouped against that algebra's table each time, and multiplies
        there as a fresh copy."""
        rng = random.Random(f"right-memo-tables-{k}")
        algebras = [SEMIDIRECT["z3xz2"], algebra(6)]

        def element() -> PAElement:
            labels = {tuple(rng.randrange(6) for _ in range(k - 1)) for _ in range(20)}
            return PAElement(k, {lab: rng.choice(CLASS_COEFFS) for lab in labels})

        for _ in range(3):
            x, y = element(), element()
            for alg in algebras + algebras[::-1]:
                fresh = PAElement(y.colour, y.coeffs)
                assert alg.multiply(x, y) == alg.multiply(x, fresh) == product_closed_form(alg, x, y)
                assert y._right_classes[0] is alg._left_parts(k)


class TestLeftFactorMemo:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_memo_regroups_in_an_algebra_of_another_order(self, k):
        """The memo holds left parts read off one group table: a left
        factor used in z3xz2 and then in z4xz2, or the other way round,
        must multiply there as a fresh copy.  Labels use elements 0..5,
        valid in both groups."""
        rng = random.Random(f"left-memo-orders-{k}")

        def element() -> PAElement:
            labels = {tuple(rng.randrange(6) for _ in range(k - 1)) for _ in range(20)}
            return PAElement(k, {lab: rng.choice(CLASS_COEFFS) for lab in labels})

        for first, second in [("z3xz2", "z4xz2"), ("z4xz2", "z3xz2")]:
            for _ in range(3):
                x, y1, y2 = element(), element(), element()
                SEMIDIRECT[first].multiply(x, y1)
                assert x._left_classes is not None
                for name in (second, first):
                    alg = SEMIDIRECT[name]
                    fresh = PAElement(x.colour, x.coeffs)
                    assert alg.multiply(x, y2) == alg.multiply(fresh, y2)
                    assert alg.multiply(x, y2) == product_closed_form(alg, x, y2)


def assert_trusted(x: PAElement) -> None:
    """``x`` has no zero coefficient and survives the checked constructor."""
    assert all(not c.is_zero() for c in x.coeffs.values())
    assert x == PAElement(x.colour, dict(x.coeffs), x.shaded)


class TestTrustedResults:
    """Results built without the label checks still drop the coefficients
    that cancel, here planted in each operation that sums."""

    @pytest.mark.parametrize("k", [3, 4])
    def test_multiply(self, k):
        alg = SEMIDIRECT["z3xz2"]
        rng = random.Random(f"trusted-multiply-{k}")
        for _ in range(5):
            (g1, h1), (g2, h2), lab = colliding_pairs(alg, k, rng)
            c, d = rng.sample(CLASS_COEFFS, 2)
            x = PAElement(k, {g1: c, g2: -c})
            y = PAElement(k, {h1: d, h2: d})
            out = alg.multiply(x, y)
            assert lab not in out.coeffs
            assert_trusted(out)
            assert out == product_closed_form(alg, x, y)
            # a third term keeps the product from vanishing
            y = PAElement(k, {h1: d, h2: d, merging_label(alg, k, g1, rng): c})
            out = alg.multiply(x, y)
            assert not out.is_zero()
            assert_trusted(out)
            assert out == product_closed_form(alg, x, y)

    def test_right_cap(self):
        """At an even target the cap forgets one entry, so two labels that
        differ only there meet; with opposite coefficients they cancel."""
        alg = SEMIDIRECT["z3xz2"]
        c = CLASS_COEFFS[2]
        x = PAElement(5, {(1, 2, 0, 1): c, (1, 2, 3, 1): -c, (4, 4, 4, 5): ONE})
        out = alg._act_E(4, x)
        assert_trusted(out)
        assert out == PAElement(4, {(4, 4, 5): ONE})
        assert alg._act_E(4, PAElement(5, {(1, 2, 0, 1): c, (1, 2, 3, 1): -c})).is_zero()

    def test_add(self):
        x = PAElement(3, {(0, 1): CLASS_COEFFS[2], (2, 2): ONE})
        y = PAElement(3, {(0, 1): -CLASS_COEFFS[2], (1, 5): CLASS_COEFFS[3]})
        out = x + y
        assert_trusted(out)
        assert out == PAElement(3, {(2, 2): ONE, (1, 5): CLASS_COEFFS[3]})
        assert_trusted(x - x)
        assert (x - x) == PAElement(3, {})

    def test_surround(self):
        """Two labels of one class under ``h -> t h k`` with opposite
        coefficients gather a zero weight."""
        alg = SEMIDIRECT["z3xz2"]
        group = alg.group
        members = (0, 2, 4)
        sub = SubgroupBiprojection(alg, members)
        c = CLASS_COEFFS[3]
        moved = tuple(group.op(group.op(2, h), 4) for h in (1, 3))
        x = PAElement(3, {(1, 3): c, moved: -c, (5, 0): ONE})
        out = sub.surround(x)
        assert_trusted(out)
        assert out == spread_by_definition(group, members, x)
        assert out == sub.surround(PAElement(3, {(5, 0): ONE}))
        assert sub.surround(PAElement(3, {(1, 3): c, moved: -c})).is_zero()

    def test_surround_counted_weights_cancel(self):
        """Four labels of one class, two with ``c``, one with ``-3 c`` and
        one with ``c``: the surround counts ``c`` three times, so the class
        weight ``3 c - 3 c`` cancels and the class is dropped, while a
        second class, met twice by 1, keeps the weight 2."""
        alg = SEMIDIRECT["z3xz2"]
        group = alg.group
        members = (0, 2, 4)
        sub = SubgroupBiprojection(alg, members)
        c = CLASS_COEFFS[3]
        cls = sorted({
            tuple(group.op(group.op(t, h), k) for h, k in zip((1, 3), ks))
            for t in members for ks in itertools.product(members, repeat=2)
        })
        a, b, d, e = cls[:4]
        x = PAElement(3, {a: c, b: c, d: c * -3, e: c, (5, 0): ONE, (5, 2): ONE})
        out = sub.surround(x)
        assert_trusted(out)
        assert not set(cls) & out.coeffs.keys()
        assert out == spread_by_definition(group, members, x)
        assert out == sub.surround(PAElement(3, {(5, 0): RadicalScalar.rational(2)}))

    def test_operations_that_cannot_cancel(self):
        """Star, a nonzero scaling, ``Eprime`` and the surround's label
        assignments only copy nonzero coefficients or multiply them by
        nonzero scalars, so their results hold no zero through the same
        trusted constructor as the sums; a scaling by zero gives the zero
        element."""
        alg = SEMIDIRECT["z3xz2"]
        sub = SubgroupBiprojection(alg, (0, 2, 4))
        x = PAElement(3, {(0, 1): CLASS_COEFFS[2], (0, 4): -CLASS_COEFFS[2], (2, 2): ONE})
        for c in CLASS_COEFFS[1:]:
            assert_trusted(x.scale(c))
        for zero in (ZERO, 0, Fraction(0)):
            assert_trusted(x.scale(zero))
            assert x.scale(zero) == PAElement(3, {})
        shaded = PAElement(0, {(): CLASS_COEFFS[3]}, shaded=True)
        one = PAElement(1, {(): CLASS_COEFFS[3]})
        for y in (shaded, one, x):
            for out in (alg.star(y), sub.surround(y)):
                assert_trusted(out)
                assert out.shaded == y.shaded
        assert alg._act_Eprime(1, one) == one.scale(alg.delta)
        assert alg._act_Eprime(3, x) == PAElement(
            3, {(0, 1): CLASS_COEFFS[2] * alg.delta, (0, 4): -CLASS_COEFFS[2] * alg.delta}
        )


def test_cap_agrees_with_the_right_cap_on_every_symbol():
    """``_cap`` is the per-symbol rule of ``_act_E``: on every basis symbol
    of colours 1 to 5, the capped symbol times ``delta**e``, or zero."""
    alg = SEMIDIRECT["z3xz2"]
    n = alg.group.order
    for colour in range(1, 6):
        for g in alg.basis_labels(colour):
            capped = alg._cap(colour - 1, g)
            expected = (
                PAElement(colour - 1, {})
                if capped is None
                else alg.basis_element(colour - 1, capped[0]).scale(pow_half(n, capped[1]))
            )
            assert alg._act_E(colour - 1, alg.basis_element(colour, g)) == expected


def test_row_reduce_skips_repeated_inputs():
    """Repeats, as the same object or an equal copy, leave the echelon
    basis as it is over the first copies."""
    rng = random.Random("row-reduce-repeats")
    firsts = [
        PAElement(3, {(rng.randrange(6), rng.randrange(6)): rng.choice(COEFFS) for _ in range(3)})
        for _ in range(8)
    ]
    repeated = []
    for x in firsts:
        repeated += [x, PAElement(3, x.coeffs), x] if rng.random() < 0.5 else [x]
    repeated += [PAElement(3, rng.choice(firsts).coeffs) for _ in range(10)]
    assert len(repeated) > len(firsts) + 10
    assert row_reduce(repeated) == row_reduce(firsts)
    assert row_reduce(firsts + [PAElement(3, {})]) == row_reduce(firsts)


def test_row_reduce_keeps_unequal_inputs_of_the_same_lead_and_size():
    """Inputs that agree in colour, least label and term count but not in
    every coefficient are all reduced: each raises the rank."""
    rng = random.Random("row-reduce-same-key")
    support = [(0, 0), (1, 2), (3, 4)]
    vectors = [
        PAElement(3, {lab: rng.choice(COEFFS) for lab in support}) for _ in range(12)
    ]
    vectors.append(PAElement(3, {lab: ONE for lab in support}))
    vectors.append(PAElement(3, {(0, 0): ONE, (1, 2): RadicalScalar.rational(2), (3, 4): ONE}))
    vectors.append(PAElement(3, {(0, 0): ONE, (1, 2): ONE, (3, 4): RadicalScalar.rational(2)}))
    reduced = row_reduce(vectors)
    assert len(reduced) == 3
    assert reduced == row_reduce_every_pivot(vectors)
    assert len(row_reduce(vectors[-3:])) == 3
    assert len(row_reduce(vectors[-2:])) == 2


def row_reduce_every_pivot(vectors):
    """Echelon list by scanning every pivot label, in ascending order, for
    every input vector: the quadratic form that row_reduce must agree with."""
    pivots = {}
    for v in vectors:
        for lab in sorted(pivots):
            c = v.coefficient(lab)
            if not c.is_zero():
                v = v - pivots[lab].scale(c)
        if not v.is_zero():
            lead = v.support()[0]
            pivots[lead] = v.scale(v.coefficient(lead).invert())
    return [pivots[lab] for lab in sorted(pivots)]


@pytest.mark.parametrize("seed", range(6))
def test_row_reduce_matches_scanning_every_pivot(seed):
    """Overlapping supports over few labels, so subtractions happen and
    bring in pivot labels that were not in the vector's support."""
    rng = random.Random(f"row-reduce-overlap-{seed}")
    vectors = [
        PAElement(3, {(rng.randrange(3), rng.randrange(3)): rng.choice(COEFFS)
                      for _ in range(rng.randint(1, 4))})
        for _ in range(12)
    ]
    assert row_reduce(vectors) == row_reduce_every_pivot(vectors)


def subgroups(group) -> list[tuple[int, ...]]:
    """Every subgroup of a small group, by brute force over subsets with 0."""
    found = []
    for r in range(group.order):
        for rest in itertools.combinations(range(1, group.order), r):
            members = {0, *rest}
            if all(group.op(a, b) in members for a in members for b in members):
                found.append(tuple(sorted(members)))
    return found


def spread_by_definition(group, members, x: PAElement) -> PAElement:
    """|K|^-c sum over t, k_i in K of S(t h_1 k_1, ..., t h_{c-1} k_{c-1}),
    term by term with no grouping or caching."""
    op, c = group.op, x.colour
    scale = RadicalScalar.rational(Fraction(1, len(members) ** c))
    out: dict = {}
    for lab, coeff in x.coeffs.items():
        for t in members:
            for ks in itertools.product(members, repeat=len(lab)):
                moved = tuple(op(op(t, h), k) for h, k in zip(lab, ks))
                out[moved] = out.get(moved, ZERO) + coeff * scale
    return PAElement(c, out)


def classes_by_definition(alg: GroupPlanarAlgebra, members, colour: int) -> dict:
    """Label -> the sorted labels of its class under ``h -> t h k``, each
    class enumerated over every ``t`` and ``k_i`` in the subgroup."""
    op = alg.group.op
    classes: dict = {}
    for label in alg.basis_labels(colour):
        if label not in classes:
            cls = sorted({
                tuple(op(op(t, h), k) for h, k in zip(label, ks))
                for t in members
                for ks in itertools.product(members, repeat=colour - 1)
            })
            classes.update(dict.fromkeys(cls, cls))
    return classes


def class_average(classes: dict, x: PAElement) -> PAElement:
    """The coefficients of ``x`` summed per class, one field addition per
    label, and the sum over ``|class|`` put on every label of the class."""
    weights: dict = {}
    for lab, c in x.coeffs.items():
        cls = tuple(classes[lab])
        weights[cls] = weights.get(cls, ZERO) + c
    out: dict = {}
    for cls, w in weights.items():
        out.update(dict.fromkeys(cls, w * RadicalScalar.rational(Fraction(1, len(cls)))))
    return PAElement(x.colour, out)


class TestSubgroupBiprojection:
    ORDER6 = SEMIDIRECT["z3xz2"].group

    def test_order_six_group_has_six_subgroups(self):
        assert [len(k) for k in subgroups(self.ORDER6)] == [1, 2, 2, 2, 3, 6]

    @pytest.mark.parametrize("members", [[0, 1, 2], [], [0, 6], [0, -1], [1]])
    def test_non_subgroups_rejected(self, members):
        with pytest.raises(AlgebraError, match="members do not form a subgroup"):
            SubgroupBiprojection(SEMIDIRECT["z3xz2"], members)

    @pytest.mark.parametrize("name", ["z3xz2", "z4xz2"])
    def test_surround_matches_definition(self, name):
        alg = SEMIDIRECT[name]
        group = alg.group
        rng = random.Random(f"subgroup-spread-{name}")
        for members in subgroups(group):
            sub = SubgroupBiprojection(alg, reversed(members))
            assert sub.members == members
            for colour in (1, 2, 3):
                labels = list(alg.basis_labels(colour))
                for _ in range(6):
                    picked = rng.sample(labels, min(len(labels), rng.randint(1, 6)))
                    x = PAElement(colour, {lab: rng.choice(CLASS_COEFFS) for lab in picked})
                    once = sub.surround(x)
                    assert once == spread_by_definition(group, members, x)
                    assert sub.surround(once) == once

    @pytest.mark.parametrize("name", ["z3xz2", "z4xz2"])
    def test_surround_matches_the_label_by_label_average(self, name):
        """Seeded inputs over a few classes at colours 1-3, on every
        subgroup: all labels met in a class share one coefficient, each has
        its own, or all but one share ``c`` and the last carries ``-(j-1) c``
        so the class weight cancels exactly.  The surround, which counts
        each class's coefficients in integers, must equal an average made
        one label and one field addition at a time."""
        alg = SEMIDIRECT[name]
        group = alg.group
        rng = random.Random(f"surround-by-label-{name}")
        pool = [ONE, -ONE, RadicalScalar.rational(Fraction(-2, 3)), pow_half(2, 1),
                pow_half(2, 1) - pow_half(3, -1)]
        cancelled = repeated = 0
        for members in subgroups(group):
            sub = SubgroupBiprojection(alg, members)
            for colour in (1, 2, 3):
                classes = classes_by_definition(alg, members, colour)
                distinct = sorted(set(map(tuple, classes.values())))
                for _ in range(8):
                    coeffs, dropped = {}, []
                    for cls in rng.sample(distinct, min(len(distinct), 4)):
                        met = rng.sample(cls, rng.randint(1, min(len(cls), 6)))
                        c = rng.choice(pool)
                        kind = rng.choice(["repeat", "mixed", "cancel"])
                        if kind == "cancel" and len(met) > 1:
                            coeffs.update(dict.fromkeys(met[:-1], c))
                            coeffs[met[-1]] = c * -(len(met) - 1)
                            dropped.append(cls)
                        elif kind == "mixed":
                            coeffs.update((lab, rng.choice(pool)) for lab in met)
                        else:
                            coeffs.update(dict.fromkeys(met, c))
                            repeated += len(met) > 1
                    x = PAElement(colour, coeffs)
                    expected: dict = {}
                    for lab, c in x.coeffs.items():
                        cls = classes[lab]
                        share = c * RadicalScalar.rational(Fraction(1, len(cls)))
                        for member in cls:
                            expected[member] = expected.get(member, ZERO) + share
                    out = sub.surround(x)
                    assert out == PAElement(colour, expected), (members, colour)
                    assert all(not c.is_zero() for c in out.coeffs.values())
                    for cls in dropped:
                        assert not set(cls) & out.coeffs.keys()
                    cancelled += len(dropped)
        assert min(cancelled, repeated) >= 40, (cancelled, repeated)

    @pytest.mark.parametrize("name", ["z3xz2", "z4xz2"])
    def test_fixed_element_is_its_own_surround(self, name):
        """``surround(x) is x`` exactly when the class average equals ``x``,
        on seeded elements over one to three classes at colours 1-4, on
        every subgroup.  Each class met is planted whole with one
        coefficient, or as a near miss: whole but one label, or whole with
        one label given another coefficient.  Two whole classes with
        different coefficients are still fixed.  The cut-down algebra's
        membership test gives the same verdict as the average."""
        alg = SEMIDIRECT[name]
        rng = random.Random(f"fixed-is-surround-{name}")
        kinds = collections.Counter()
        for members in subgroups(alg.group):
            sub = SubgroupBiprojection(alg, members)
            inter = IntermediateAlgebra(sub, k_max=4)
            for colour in (1, 2, 3, 4):
                classes = classes_by_definition(alg, members, colour)
                distinct = sorted(set(map(tuple, classes.values())))
                for _ in range(24):
                    coeffs, planted = {}, []
                    for cls in rng.sample(distinct, min(len(distinct), rng.randint(1, 3))):
                        c, other = rng.sample(CLASS_COEFFS, 2)
                        coeffs.update(dict.fromkeys(cls, c))
                        kind = rng.choice(["whole", "whole", "missing", "other"])
                        if kind == "missing" and len(cls) > 1:
                            del coeffs[rng.choice(cls)]
                        elif kind == "other" and len(cls) > 1:
                            coeffs[rng.choice(cls)] = other
                        else:
                            kind = "whole"
                        planted.append(kind)
                    x = PAElement(colour, coeffs)
                    average = class_average(classes, x)
                    fixed = average == x
                    assert fixed == (set(planted) == {"whole"}), planted
                    out = sub.surround(x)
                    assert out == average
                    assert (out is x) == fixed, (members, colour, planted)
                    assert inter.contains(x) == fixed
                    kinds["fixed" if fixed else "moved"] += 1
                    kinds["two whole"] += fixed and len(planted) > 1
                    kinds["near miss"] += planted.count("missing") + planted.count("other")
        assert min(kinds.values()) >= 80, kinds

    @pytest.mark.parametrize("name", ["z3xz2", "z4xz2"])
    def test_low_colour_element_is_its_own_surround(self, name):
        """Every element at colours 0 and 1 is fixed, since the empty label
        is a class of one, so the surround returns it as the very object,
        shaded or not, the zero element too; so does a cut-down algebra's
        table, for its colour-0 and colour-1 basis elements."""
        alg = SEMIDIRECT[name]
        elements = [
            PAElement(colour, {(): c} if c else {}, shaded)
            for colour, shaded in ((0, False), (0, True), (1, False))
            for c in [None, *CLASS_COEFFS]
        ]
        for members in subgroups(alg.group):
            sub = SubgroupBiprojection(alg, members)
            for x in elements:
                assert sub.surround(x) is x, (members, x.colour, x.shaded)
            inter = IntermediateAlgebra(sub, k_max=2)
            for colour, shaded in ((0, False), (0, True), (1, False)):
                for b in inter.basis(colour, shaded):
                    assert inter.table.surround(b) is b
                    assert inter.contains(b)

    def test_trivial_subgroup_surround_is_identity(self):
        alg = SEMIDIRECT["z3xz2"]
        sub = SubgroupBiprojection(alg, [0])
        for colour in (1, 2, 3):
            for lab in alg.basis_labels(colour):
                b = alg.basis_element(colour, lab)
                assert sub.surround(b) == b

    def test_surround_of_copies_and_reused_addresses(self):
        """The surround depends on the value only: an equal but distinct
        copy gets an equal surround, and fresh objects that may reuse a
        freed object's address are each surrounded by definition."""
        alg = SEMIDIRECT["z3xz2"]
        group = alg.group
        members = (0, 2, 4)
        sub = SubgroupBiprojection(alg, members)
        x = PAElement(3, {(1, 3): CLASS_COEFFS[2], (5, 0): ONE})
        once = sub.surround(x)
        assert once == spread_by_definition(group, members, x)
        assert sub.surround(PAElement(3, x.coeffs)) == once
        addresses = []
        for i in range(200):
            # consecutive inputs differ, so a stale value would be wrong
            y = alg.basis_element(3, (i % 6, (i // 6) % 6))
            addresses.append(id(y))
            assert sub.surround(y) == spread_by_definition(group, members, y)
            del y
        assert len(set(addresses)) < len(addresses)

    def test_colour_zero_passes_through(self):
        alg = SEMIDIRECT["z3xz2"]
        sub = SubgroupBiprojection(alg, [0, 2, 4])
        for shaded in (False, True):
            x = alg.basis_element(0, (), shaded).scale(RadicalScalar.rational(3))
            assert sub.surround(x) == x
            assert sub.dual_surround(x) == x

    def test_average_and_dual_surround(self):
        alg = SEMIDIRECT["z3xz2"]
        sub = SubgroupBiprojection(alg, [0, 2, 4])
        third = RadicalScalar.rational(Fraction(1, 3))
        assert sub.average() == PAElement(2, {(0,): third, (2,): third, (4,): third})
        x = PAElement(3, {(0, 2): ONE, (2, 1): ONE, (4, 4): CLASS_COEFFS[2]})
        assert sub.dual_surround(x) == PAElement(3, {(0, 2): ONE, (4, 4): CLASS_COEFFS[2]})
