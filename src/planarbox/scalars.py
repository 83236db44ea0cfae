"""Exact arithmetic in real radical extensions of the rationals.

An element is a finite sum ``sum_d c_d * sqrt(d)`` with rational
coefficients ``c_d`` and squarefree positive integer radicands ``d``;
the radicand ``d = 1`` carries the rational part.  Square roots of
distinct squarefree integers are linearly independent over Q, so the
term dict is a canonical form and equality is structural.  The set of
such sums is a field: products of square roots reduce by gcd extraction
and inverses come from iterated norm rationalization.

Everything here is exact, signs included.  The only approximate method
is :meth:`RadicalScalar.to_float`, which nothing in the library decides on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

Rational = Union[int, Fraction]


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


class RadicalScalar:
    """A field element ``sum_d c_d * sqrt(d)`` in canonical form.

    Instances are immutable; all arithmetic returns new objects.
    Construction canonicalizes: perfect-square content of every radicand
    is folded into the coefficient and zero terms are dropped.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, Rational] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for d, c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                s, sf = _square_split(d)
                acc = clean.get(sf, _ZERO_FRACTION) + c * s
                if acc:
                    clean[sf] = acc
                elif sf in clean:
                    del clean[sf]
        self._terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------

    @classmethod
    def rational(cls, c: Rational) -> "RadicalScalar":
        return cls({1: c})

    @classmethod
    def _raw(cls, terms: dict[int, Fraction]) -> "RadicalScalar":
        """Internal: terms already canonical (squarefree keys, no zeros)."""
        obj = cls.__new__(cls)
        obj._terms = terms
        obj._hash = None
        return obj

    # -- views -------------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(d == 1 for d in self._terms)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return self._terms.get(1, _ZERO_FRACTION)

    def to_float(self) -> float:
        return sum(float(c) * math.sqrt(d) for d, c in self._terms.items())

    def sign(self) -> int:
        """-1, 0 or +1, decided exactly.

        With ``x = a + b*sqrt(p)`` split as in :meth:`invert`, ``x`` has
        the sign of ``a`` or ``b`` when they agree or one vanishes; when
        they disagree, ``|a|`` and ``|b|*sqrt(p)`` are compared through
        the sign of ``a^2 - p*b^2``.  Each of ``a``, ``b`` and that
        difference is free of ``p``, so the recursion ends at rationals.
        """
        p = self._split_prime()
        if not p:
            c = self._terms.get(1, _ZERO_FRACTION)
            return (c > 0) - (c < 0)
        a, b = self._split(p)
        sa, sb = a.sign(), b.sign()
        if sa == sb or not sb:
            return sa
        if not sa:
            return sb
        return sa * (a * a - b * b * p).sign()

    # -- ring structure ----------------------------------------------

    def __add__(self, other: "RadicalScalar | Rational") -> "RadicalScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._terms)
        for d, c in other._terms.items():
            acc = merged.get(d, _ZERO_FRACTION) + c
            if acc:
                merged[d] = acc
            elif d in merged:
                del merged[d]
        return RadicalScalar._raw(merged)

    __radd__ = __add__

    def __neg__(self) -> "RadicalScalar":
        return RadicalScalar._raw({d: -c for d, c in self._terms.items()})

    def __sub__(self, other: "RadicalScalar | Rational") -> "RadicalScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Rational) -> "RadicalScalar":
        return _coerce(other) + (-self)

    def __mul__(self, other: "RadicalScalar | Rational") -> "RadicalScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in other._terms.items():
                # both radicands squarefree, so the square content of
                # d1*d2 is exactly gcd(d1, d2)^2
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                acc = out.get(d, _ZERO_FRACTION) + c1 * c2 * g
                if acc:
                    out[d] = acc
                elif d in out:
                    del out[d]
        return RadicalScalar._raw(out)

    __rmul__ = __mul__

    def invert(self) -> "RadicalScalar":
        """Multiplicative inverse by norm rationalization.

        Split off one prime ``p`` occurring under a root, write
        ``x = a + sqrt(p) * b`` with ``a``, ``b`` free of ``p``, and
        multiply by the conjugate ``a - sqrt(p) * b``; the product is
        free of ``p``, so recursion terminates at a plain rational.
        """
        if not self._terms:
            raise ZeroDivisionError("inverse of zero")
        p = self._split_prime()
        if not p:
            return RadicalScalar.rational(1 / self._terms[1])
        a, b = self._split(p)
        conj = a - RadicalScalar({p: 1}) * b
        norm = self * conj
        if norm.is_zero():  # impossible in a field; guard anyway
            raise ArithmeticError(f"norm rationalization degenerated on {self}")
        return conj * norm.invert()

    def _split_prime(self) -> int:
        """The least prime factor of some radicand above 1, or 0 if rational."""
        for d in self._terms:
            if d > 1:
                return _least_prime_factor(d)
        return 0

    def _split(self, p: int) -> tuple["RadicalScalar", "RadicalScalar"]:
        """``(a, b)`` with ``self == a + b*sqrt(p)`` and neither involving ``p``."""
        a_terms: dict[int, Fraction] = {}
        b_terms: dict[int, Fraction] = {}
        for d, c in self._terms.items():
            if d % p:
                a_terms[d] = c
            else:
                b_terms[d // p] = c
        return RadicalScalar._raw(a_terms), RadicalScalar._raw(b_terms)

    def __truediv__(self, other: "RadicalScalar | Rational") -> "RadicalScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other: Rational) -> "RadicalScalar":
        return _coerce(other) * self.invert()

    def __pow__(self, n: int) -> "RadicalScalar":
        if n < 0:
            return self.invert() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- identity ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RadicalScalar.rational(other)
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # cached, since multiply groups its inputs by coefficient value;
        # a rational value hashes like the Fraction it equals
        if self._hash is None:
            if self.is_rational():
                self._hash = hash(self._terms.get(1, _ZERO_FRACTION))
            else:
                self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- rendering ---------------------------------------------------

    def render(self) -> str:
        """Deterministic text form, radicands ascending.

        Examples: ``0``, ``1/2``, ``sqrt(3)``, ``2 - 1/3*sqrt(2)``.
        """
        if not self._terms:
            return "0"
        parts: list[str] = []
        for d in sorted(self._terms):
            c = self._terms[d]
            mag = abs(c)
            if d == 1:
                body = str(mag)
            elif mag == 1:
                body = f"sqrt({d})"
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
        return RadicalScalar.rational(value)
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
