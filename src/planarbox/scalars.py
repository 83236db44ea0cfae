"""Exact arithmetic in real radical extensions of the rationals.

An element is a finite sum ``sum_d c_d * sqrt(d)`` with rational
coefficients ``c_d`` and squarefree positive integer radicands ``d``;
the radicand ``d = 1`` carries the rational part.  Square roots of
distinct squarefree integers are linearly independent over Q, so the
coefficients are a canonical form and equality is structural.  The set
of such sums is a field: products of square roots reduce by gcd
extraction and inverses come from iterated norm rationalization.

The coefficients are stored as integer coordinates over one positive
common denominator, reduced by a single gcd, so equality and hashing
compare plain ints and each sum or product normalizes once instead of
once per term.  Python ints do not overflow, so nothing falls back.

Everything here is exact, signs included; there is no floating-point
method.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

Rational = Union[int, Fraction]

# integer coordinates: squarefree radicand -> nonzero int coefficient
Coords = dict[int, int]


@lru_cache(maxsize=None)
def _square_split(n: int) -> tuple[int, int]:
    """Write ``n = s*s*d`` with ``d`` squarefree; return ``(s, d)``."""
    if n <= 0:
        raise ValueError(f"positive integer required, got {n}")
    s, d, m = 1, 1, n
    f = 2
    while f * f <= m:
        e = 0
        while m % f == 0:
            m //= f
            e += 1
        if e:
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    # whatever survives trial division is 1 or a prime appearing once
    return s, d * m


@lru_cache(maxsize=None)
def _least_prime_factor(n: int) -> int:
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1 if f == 2 else 2
    return n


# -- integer coordinates ---------------------------------------------------


def _coords_mul(a: Coords, b: Coords) -> Coords:
    """The product of two integer-coordinate sums, zeros dropped."""
    out: Coords = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            # both radicands squarefree, so the square content of
            # d1*d2 is exactly gcd(d1, d2)^2
            g = math.gcd(d1, d2)
            d = (d1 // g) * (d2 // g)
            out[d] = out.get(d, 0) + c1 * c2 * g
    if 0 in out.values():
        out = {d: c for d, c in out.items() if c}
    return out


def _coords_add(a: Coords, fa: int, b: Coords, fb: int) -> Coords:
    """``fa*a + fb*b``, zeros dropped."""
    out = {d: c * fa for d, c in a.items()} if fa != 1 else dict(a)
    for d, c in b.items():
        out[d] = out.get(d, 0) + c * fb
    if 0 in out.values():
        out = {d: c for d, c in out.items() if c}
    return out


def _split_prime(a: Coords) -> int:
    """The least prime factor of some radicand above 1, or 0 if rational."""
    for d in a:
        if d > 1:
            return _least_prime_factor(d)
    return 0


def _split(a: Coords, p: int) -> tuple[Coords, Coords]:
    """``(x, y)`` with ``a == x + y*sqrt(p)`` and neither involving ``p``."""
    x: Coords = {}
    y: Coords = {}
    for d, c in a.items():
        if d % p:
            x[d] = c
        else:
            y[d // p] = c
    return x, y


def _coords_sign(a: Coords) -> int:
    """-1, 0 or +1 for an integer-coordinate sum, decided exactly.

    With ``a = x + y*sqrt(p)`` split at one prime, ``a`` has the sign of
    ``x`` or ``y`` when they agree or one vanishes; when they disagree,
    ``|x|`` and ``|y|*sqrt(p)`` are compared through the sign of
    ``x^2 - p*y^2``.  Each of ``x``, ``y`` and that difference is free of
    ``p``, so the recursion ends at integers.
    """
    p = _split_prime(a)
    if not p:
        c = a.get(1, 0)
        return (c > 0) - (c < 0)
    x, y = _split(a, p)
    sx, sy = _coords_sign(x), _coords_sign(y)
    if sx == sy or not sy:
        return sx
    if not sx:
        return sy
    return sx * _coords_sign(_coords_add(_coords_mul(x, x), 1, _coords_mul(y, y), -p))


def _scalar(num: Coords, den: int) -> "RadicalScalar":
    """The scalar ``num / den``; ``num`` has no zeros and ``den > 0``.

    Normalizes with one gcd over the denominator and all numerators.
    """
    if den != 1:
        if not num:
            den = 1
        else:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {d: c // g for d, c in num.items()}
    obj = object.__new__(RadicalScalar)
    obj._num = num
    obj._den = den
    obj._hash = None
    return obj


class RadicalScalar:
    """A field element ``sum_d c_d * sqrt(d)`` in canonical form.

    Stored as ``_num`` (radicand -> nonzero int numerator) over ``_den``,
    a positive int sharing no factor with every numerator; the zero
    element has no numerators and denominator 1.  Instances are
    immutable; all arithmetic returns new objects.  Construction
    canonicalizes: perfect-square content of every radicand is folded
    into the coefficient and zero terms are dropped.
    """

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, terms: Mapping[int, Rational] | None = None):
        acc: dict[int, Fraction] = {}
        if terms:
            for d, c in terms.items():
                c = Fraction(c)
                if c:
                    s, sf = _square_split(d)
                    acc[sf] = acc.get(sf, _ZERO_FRACTION) + c * s
        den = 1
        for c in acc.values():
            if c:
                den = math.lcm(den, c.denominator)
        # den is the lcm of reduced denominators, so no further gcd applies
        self._num = {d: c.numerator * (den // c.denominator) for d, c in acc.items() if c}
        self._den = den
        self._hash = None

    # -- constructors ------------------------------------------------

    @classmethod
    def rational(cls, c: Rational) -> "RadicalScalar":
        q = Fraction(c)
        return _scalar({1: q.numerator} if q else {}, q.denominator)

    # -- views -------------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        den = self._den
        return {d: Fraction(c, den) for d, c in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def sign(self) -> int:
        """-1, 0 or +1, decided exactly (the denominator is positive)."""
        return _coords_sign(self._num)

    # -- ring structure ----------------------------------------------

    def __add__(self, other: "RadicalScalar | Rational") -> "RadicalScalar":
        if type(other) is not RadicalScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, da = self._num, self._den
        b, db = other._num, other._den
        if not b:
            return self
        if not a:
            return other
        if da == db:
            return _scalar(_coords_add(a, 1, b, 1), da)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return _scalar(_coords_add(a, fa, b, fb), da * fa)

    __radd__ = __add__

    def __neg__(self) -> "RadicalScalar":
        return _scalar({d: -c for d, c in self._num.items()}, self._den)

    def __sub__(self, other: "RadicalScalar | Rational") -> "RadicalScalar":
        if type(other) is not RadicalScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + -other

    def __rsub__(self, other: Rational) -> "RadicalScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: "RadicalScalar | Rational") -> "RadicalScalar":
        if type(other) is not RadicalScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _scalar(_coords_mul(self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def invert(self) -> "RadicalScalar":
        """Multiplicative inverse by norm rationalization.

        Split off one prime ``p`` occurring under a root, write the
        numerator as ``a + sqrt(p) * b`` with ``a``, ``b`` free of ``p``,
        and multiply by the conjugate ``a - sqrt(p) * b``; the product is
        free of ``p``, so recursion terminates at a plain rational.
        """
        num, den = self._num, self._den
        if not num:
            raise ZeroDivisionError("inverse of zero")
        p = _split_prime(num)
        if not p:
            c = num[1]
            return _scalar({1: den if c > 0 else -den}, abs(c))
        a, b = _split(num, p)
        conj = dict(a)
        conj.update({d * p: -c for d, c in b.items()})
        norm = _coords_mul(num, conj)
        if not norm:  # impossible in a field; guard anyway
            raise ArithmeticError(f"norm rationalization degenerated on {self}")
        # 1/x = den * conj / (num * conj)
        return _scalar({d: c * den for d, c in conj.items()}, 1) * _scalar(norm, 1).invert()

    def __truediv__(self, other: "RadicalScalar | Rational") -> "RadicalScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other: Rational) -> "RadicalScalar":
        return _coerce(other) * self.invert()

    # -- identity ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is RadicalScalar:
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return self._den == other.denominator and self._num == ({1: n} if n else {})
        return NotImplemented

    def __hash__(self) -> int:
        # cached, since multiply groups its inputs by coefficient value;
        # a rational value hashes like the Fraction it equals
        if self._hash is None:
            num, den = self._num, self._den
            if not num:
                self._hash = 0
            elif len(num) == 1 and 1 in num:
                self._hash = hash(num[1]) if den == 1 else hash(Fraction(num[1], den))
            else:
                self._hash = hash((den, tuple(sorted(num.items()))))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- rendering ---------------------------------------------------

    def render(self, parenthesize: bool = False) -> str:
        """Deterministic text form, radicands ascending.

        Examples: ``0``, ``1/2``, ``sqrt(3)``, ``2 - 1/3*sqrt(2)``.  With
        ``parenthesize`` a non-integer coefficient of a root is wrapped,
        as in ``2 - (1/3)*sqrt(2)``.  Each coefficient is reduced from the
        integer coordinates by one gcd and written as ``str(Fraction)``
        writes it.
        """
        num, den = self._num, self._den
        if not num:
            return "0"
        parts: list[str] = []
        for d in sorted(num):
            c = num[d]
            g = math.gcd(c, den)
            top, bottom = abs(c) // g, den // g
            mag = f"{top}/{bottom}" if bottom != 1 else str(top)
            if d == 1:
                body = mag
            elif top == bottom == 1:
                body = f"sqrt({d})"
            elif parenthesize and bottom != 1:
                body = f"({mag})*sqrt({d})"
            else:
                body = f"{mag}*sqrt({d})"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return self.render()


def _coerce(value: "RadicalScalar | Rational"):
    if isinstance(value, RadicalScalar):
        return value
    if isinstance(value, (int, Fraction)):
        n = value.numerator
        return _scalar({1: n} if n else {}, value.denominator)
    return NotImplemented


_ZERO_FRACTION = Fraction(0)

ZERO = RadicalScalar()
ONE = RadicalScalar.rational(1)


@lru_cache(maxsize=None)
def canonical_sqrt(n: int) -> RadicalScalar:
    """``sqrt(n)`` in canonical form: ``n = s^2 * d`` gives ``s*sqrt(d)``.

    Memoized: scalars are immutable, so callers may share the result.
    """
    if n < 1:
        raise ValueError(f"canonical_sqrt needs a positive integer, got {n}")
    return RadicalScalar({n: 1})


@lru_cache(maxsize=None)
def pow_half(n: int, p: int) -> RadicalScalar:
    """``n ** (p/2)`` exactly, for a positive integer ``n`` and any integer ``p``.

    Memoized like :func:`canonical_sqrt`.
    """
    if n < 1:
        raise ValueError(f"pow_half needs a positive base, got {n}")
    q, r = divmod(p, 2)  # r in {0, 1} also for negative p
    whole = Fraction(n) ** q if q >= 0 else Fraction(1, n ** (-q))
    out = RadicalScalar.rational(whole)
    if r:
        out = out * canonical_sqrt(n)
    return out
