import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from planarbox.scalars import ONE, ZERO, RadicalScalar, canonical_sqrt, pow_half


def rat(c):
    return RadicalScalar.rational(c)


class TestCanonicalSqrt:
    def test_perfect_square(self):
        assert canonical_sqrt(4) == rat(2)

    def test_square_content_extracted(self):
        assert canonical_sqrt(12) == 2 * canonical_sqrt(3)
        assert canonical_sqrt(12).terms == {3: Fraction(2)}

    def test_squarefree_untouched(self):
        assert canonical_sqrt(3).terms == {3: Fraction(1)}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            canonical_sqrt(0)
        with pytest.raises(ValueError):
            canonical_sqrt(-3)


class TestAddMul:
    def test_add_like_terms(self):
        assert canonical_sqrt(3) + canonical_sqrt(3) == 2 * canonical_sqrt(3)

    def test_additive_inverse(self):
        assert (canonical_sqrt(3) - canonical_sqrt(3)) == ZERO

    def test_rational_parts_combine(self):
        x = 1 + canonical_sqrt(2)
        y = 1 - canonical_sqrt(2)
        assert x + y == rat(2)

    def test_mul_merges_radicands(self):
        assert canonical_sqrt(2) * canonical_sqrt(6) == 2 * canonical_sqrt(3)

    def test_mul_same_radicand(self):
        assert canonical_sqrt(3) * canonical_sqrt(3) == rat(3)

    def test_norm_product(self):
        assert (1 + canonical_sqrt(2)) * (1 - canonical_sqrt(2)) == rat(-1)

    def test_subtraction_is_adding_the_negative(self):
        """``a - b`` sums the coordinates once, with no negated copy; it
        agrees with ``a + (-b)`` for scalars over mixed radicands and for
        plain rationals on either side, cancellations included."""
        rng = random.Random("scalar-subtraction")

        def fraction():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

        def scalar():
            return RadicalScalar(
                {rng.choice((1, 2, 3, 6, 8, 10)): fraction() for _ in range(rng.randint(0, 4))}
            )

        for _ in range(300):
            x, y, q, n = scalar(), scalar(), fraction(), rng.randint(-5, 5)
            for a, b in ((x, y), (x, x), (x, q), (q, x), (x, n), (n, x)):
                diff = a - b
                assert type(diff) is RadicalScalar
                assert diff == a + (-b) and diff.terms == (a + (-b)).terms


class TestInvert:
    def test_sqrt(self):
        assert canonical_sqrt(3).invert() == Fraction(1, 3) * canonical_sqrt(3)

    def test_rational(self):
        assert rat(2).invert() == rat(Fraction(1, 2))

    def test_conjugate(self):
        assert (1 + canonical_sqrt(2)).invert() == canonical_sqrt(2) - 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.invert()

    def test_mixed_radicands(self):
        x = rat(Fraction(2, 3)) + canonical_sqrt(2) - 5 * canonical_sqrt(6)
        assert x * x.invert() == ONE


class TestPowHalf:
    def test_negative_odd(self):
        assert pow_half(3, -1) == Fraction(1, 3) * canonical_sqrt(3)

    def test_positive_odd(self):
        assert pow_half(2, 3) == 2 * canonical_sqrt(2)

    def test_zero_exponent(self):
        assert pow_half(6, 0) == ONE

    def test_even_exponents(self):
        assert pow_half(6, 4) == rat(36)
        assert pow_half(6, -2) == rat(Fraction(1, 6))

    def test_rejects_zero_base(self):
        with pytest.raises(ValueError):
            pow_half(0, 1)

    def test_halves_multiply(self):
        assert pow_half(6, 1) * pow_half(6, 1) == rat(6)
        assert pow_half(6, 3) * pow_half(6, -3) == ONE


class TestSign:
    def test_rationals_and_zero(self):
        assert ZERO.sign() == 0
        assert rat(Fraction(-1, 3)).sign() == -1
        assert rat(2).sign() == 1

    def test_opposite_parts_compared_exactly(self):
        assert (5 - 2 * canonical_sqrt(6)).sign() == 1  # 25 > 24
        assert (canonical_sqrt(2) + canonical_sqrt(3) - 3).sign() == 1
        assert (canonical_sqrt(2) + canonical_sqrt(3) - canonical_sqrt(10)).sign() == -1

    def test_pell_witness_below_float_resolution(self):
        # (p, q) -> (p + 2q, p + q) keeps p^2 - 2q^2 = 1, so p - q*sqrt(2)
        # is positive, but it is smaller than the float rounding of p
        p, q = 1, 1
        for _ in range(31):
            p, q = p + 2 * q, p + q
        assert p * p - 2 * q * q == 1
        x = RadicalScalar({1: p, 2: -q})
        assert p - q * math.sqrt(2) == 0.0
        assert x.sign() == 1
        assert (-x).sign() == -1


class TestRendering:
    def test_zero(self):
        assert ZERO.render() == "0"

    def test_plain_sqrt(self):
        assert canonical_sqrt(3).render() == "sqrt(3)"

    def test_mixed(self):
        x = rat(2) - Fraction(1, 3) * canonical_sqrt(2)
        assert x.render() == "2 - 1/3*sqrt(2)"

    def test_leading_negative(self):
        assert (-canonical_sqrt(5)).render() == "-sqrt(5)"

    def test_ordering_by_radicand(self):
        x = canonical_sqrt(5) + canonical_sqrt(2) + 1
        assert x.render() == "1 + sqrt(2) + sqrt(5)"


# -- property tests -------------------------------------------------

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10])


@st.composite
def radical_scalars(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n):
        d = draw(radicands)
        c = draw(rationals)
        terms[d] = terms.get(d, 0) + c
    return RadicalScalar(terms)


@settings(max_examples=60, deadline=None)
@given(radical_scalars(), radical_scalars(), radical_scalars())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x


@settings(max_examples=60, deadline=None)
@given(radical_scalars())
def test_invert_two_sided(x):
    if x.is_zero():
        return
    assert x * x.invert() == ONE
    assert x.invert() * x == ONE


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=1, max_value=10_000))
def test_sqrt_multiplicative(a, b):
    assert canonical_sqrt(a) * canonical_sqrt(b) == canonical_sqrt(a * b)


@settings(max_examples=60, deadline=None)
@given(radical_scalars(), radical_scalars())
def test_zero_sum_means_termwise_zero(x, y):
    if (x + y).is_zero():
        xt, yt = x.terms, y.terms
        assert set(xt) == set(yt)
        assert all(xt[d] == -yt[d] for d in xt)


@settings(max_examples=40, deadline=None)
@given(radical_scalars())
def test_float_embedding_tracks_sign(x):
    if x.is_zero():
        assert x.sign() == 0
    else:
        assert x.sign() in (-1, 1)
        assert (-x).sign() == -x.sign()


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(min_value=-10**12, max_value=10**12), rationals))
def test_hash_agrees_with_rational_equality(q):
    assert RadicalScalar.rational(q) == q
    assert hash(RadicalScalar.rational(q)) == hash(q)
    assert {q: "found"}[RadicalScalar.rational(q)] == "found"


@settings(max_examples=60, deadline=None)
@given(radical_scalars(), radical_scalars())
def test_equal_values_hash_alike(x, y):
    assert hash(x + y) == hash(y + x)
    assert hash(x * y - y * x + x) == hash(x)


def _sympy_value(x: RadicalScalar):
    return sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(d) for d, c in x.terms.items())
    )


@settings(max_examples=60, deadline=None)
@given(radical_scalars(), radical_scalars())
def test_sign_matches_sympy(x, y):
    for v in (x, x * y, x * x - y * y):
        assert v.sign() == int(sympy.sign(_sympy_value(v)))


# -- differential test: integer coordinates against Fractions and sympy ----

DIFF_RADICANDS = [1, 2, 3, 5, 6, 10, 30]


@st.composite
def fraction_terms(draw):
    """Reference coordinates: squarefree radicand -> nonzero Fraction,
    mostly with non-unit denominators."""
    terms: dict[int, Fraction] = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        d = draw(st.sampled_from(DIFF_RADICANDS))
        c = Fraction(draw(st.integers(min_value=-60, max_value=60)),
                     draw(st.integers(min_value=1, max_value=36)))
        terms[d] = terms.get(d, Fraction(0)) + c
    return {d: c for d, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, Fraction(0)) + c
    return {d: c for d, c in out.items() if c}


def ref_neg(a):
    return {d: -c for d, c in a.items()}


def ref_mul(a, b):
    out: dict[int, Fraction] = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            g = math.gcd(d1, d2)
            d = (d1 // g) * (d2 // g)
            out[d] = out.get(d, Fraction(0)) + c1 * c2 * g
    return {d: c for d, c in out.items() if c}


def ref_render(terms, parenthesize=False):
    """The text form written out over Fraction coefficients."""
    if not terms:
        return "0"
    parts = []
    for d in sorted(terms):
        c = terms[d]
        mag = abs(c)
        if d == 1:
            body = str(mag)
        elif mag == 1:
            body = f"sqrt({d})"
        elif parenthesize and mag.denominator != 1:
            body = f"({mag})*sqrt({d})"
        else:
            body = f"{mag}*sqrt({d})"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _sympy_terms(terms):
    return sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(d) for d, c in terms.items())
    )


@settings(max_examples=150, deadline=None)
@given(fraction_terms(), fraction_terms())
def test_integer_coordinates_match_fraction_reference(a, b):
    x, y = RadicalScalar(a), RadicalScalar(b)
    assert x.terms == a and y.terms == b
    assert (x + y).terms == ref_add(a, b)
    assert (x - y).terms == ref_add(a, ref_neg(b))
    assert (-x).terms == ref_neg(a)
    assert (x * y).terms == ref_mul(a, b)
    assert (x == y) == (a == b)
    assert (x + y == y + x) and hash(x + y) == hash(y + x)
    for v, terms in ((x, a), (x * y, ref_mul(a, b)), (x + y, ref_add(a, b))):
        assert v.render() == ref_render(terms)
        assert v.render(parenthesize=True) == ref_render(terms, parenthesize=True)
        assert v.sign() == int(sympy.sign(_sympy_terms(terms)))
        if set(terms) <= {1}:
            q = terms.get(1, Fraction(0))
            assert v == q and set(v.terms) <= {1} and v.terms.get(1, 0) == q
            assert hash(v) == hash(q)


DENOMINATORS = [1, 1, 2, 3, 4, 6, 35]


def test_render_matches_the_fraction_reference_on_a_seeded_corpus():
    """``render``, both ways, writes what ``ref_render`` writes over the
    Fraction terms: zero, integers, negative and fractional coefficients,
    several radicands, and terms whose coefficient reduces to a unit over
    a common denominator above 1 (``1/3 + sqrt(2)``)."""
    rng = random.Random(3401)
    unit_root = {1: Fraction(1, 3), 2: Fraction(1)}
    corpus = [({}, ZERO), (unit_root, RadicalScalar(unit_root))]

    def draw():
        terms = {
            rng.choice(DIFF_RADICANDS): Fraction(rng.randint(-12, 12), rng.choice(DENOMINATORS))
            for _ in range(rng.randint(0, 4))
        }
        return {d: c for d, c in terms.items() if c}

    for _ in range(600):
        a, b = draw(), draw()
        x, y = RadicalScalar(a), RadicalScalar(b)
        corpus += [(a, x), (ref_neg(a), -x), (ref_add(a, b), x + y), (ref_mul(a, b), x * y)]
    kinds = {"zero": 0, "negative": 0, "fractional": 0, "multi": 0, "unit root": 0}
    for terms, v in corpus:
        for parenthesize in (False, True):
            assert v.render(parenthesize) == ref_render(terms, parenthesize), terms
        kinds["zero"] += not terms
        kinds["negative"] += any(c < 0 for c in terms.values())
        kinds["fractional"] += any(c.denominator > 1 for c in terms.values())
        kinds["multi"] += len(terms) > 1
        kinds["unit root"] += v._den > 1 and any(abs(c) == 1 for d, c in terms.items() if d > 1)
    assert min(kinds.values()) >= 20, kinds


@settings(max_examples=100, deadline=None)
@given(fraction_terms(), fraction_terms())
def test_integer_coordinates_match_sympy(a, b):
    x, y = RadicalScalar(a), RadicalScalar(b)
    sx, sy = _sympy_terms(a), _sympy_terms(b)
    assert sympy.expand(_sympy_terms((x + y).terms) - (sx + sy)) == 0
    assert sympy.expand(_sympy_terms((x - y).terms) - (sx - sy)) == 0
    assert sympy.expand(_sympy_terms((x * y).terms) - sx * sy) == 0
    if not y.is_zero():
        q = x / y
        assert q * y == x
        assert sympy.expand(_sympy_terms(q.terms) * sy - sx) == 0
        assert (x / y).sign() == int(sympy.sign(sx)) * int(sympy.sign(sy))
