"""Derive and pin the closed-form constants of the group planar algebra.

Standalone oracle: everything here is written directly from the basis
product rule and the generator action rules over a group given by its
multiplication table (element 0 the identity), with sympy doing the exact
arithmetic.  It never imports planarbox.  Outputs:

  * unit elements of colours 2..5 verified two-sided on every basis
    element (uniqueness then being automatic: u = u u' = u'),
  * the trace closed form checked against the fold of capping steps,
  * the star closed form re-derived from the trace pairing and checked
    involutive and antimultiplicative,
  * orthonormality of the S-basis,
  * the Jones idempotents verified against their characterizing system,
    with the colour-2 system solved outright for the order-3 cyclic
    group, and the order-4 non-uniqueness (the sign character) exhibited,
  * the expansion of the capped inclusion acting on a colour-2 basis
    element.

Run on the cyclic groups of orders 3 and 4; those are the instances the
test suite freezes.  The kernel and the checks are table-generic:
``scripts/expand_crossed_constants.py`` imports them and runs the same
checks on the nonabelian semidirect products of orders 6 and 8.
"""

from __future__ import annotations

import itertools
import random

import sympy as sp


def cyclic(n: int) -> list:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def inverse(table, a: int) -> int:
    return next(b for b in range(len(table)) if table[a][b] == 0)


def labels(table, k: int):
    return list(itertools.product(range(len(table)), repeat=max(k - 1, 0)))


def basis_product(table, k: int, g: tuple, h: tuple):
    """Product of two basis elements: (coefficient, label) or None."""
    if k <= 1:
        return sp.Integer(1), ()
    if k == 2:
        return sp.Integer(1), (table[g[0]][h[0]],)
    m = (k + 1) // 2
    for i in range(2, m + 1):
        if table[h[0]][g[k - i]] != h[i - 1]:
            return None
    coeff = sp.sqrt(len(table)) ** (m - 1)
    label = tuple(table[h[0]][g[j]] for j in range(m)) + h[m : k - 1]
    return coeff, label


def _collect(terms) -> dict:
    """Sum (label, coefficient) terms, dropping zero coefficients."""
    out: dict = {}
    for lab, c in terms:
        out[lab] = sp.expand(out.get(lab, 0) + c)
    return {lab: c for lab, c in out.items() if c != 0}


def el_mul(table, k: int, x: dict, y: dict) -> dict:
    products = (
        (r[1], cg * ch * r[0])
        for g, cg in x.items()
        for h, ch in y.items()
        if (r := basis_product(table, k, g, h)) is not None
    )
    return _collect(products)


def act_E(table, k: int, x: dict) -> dict:
    """The capping step from colour k+1 down to colour k."""
    root = sp.sqrt(len(table))
    out = []
    for g, cg in x.items():
        if k == 0:
            out.append(((), cg * root))
        elif k == 1:
            if g[0] == 0:
                out.append(((), cg * root))
        elif k == 2:
            out.append(((inverse(table, g[0]),), cg))
        elif k % 2 == 0:
            out.append((g[: k // 2] + g[k // 2 + 1 :], cg))
        else:
            m = (k + 1) // 2
            if g[m - 1] == g[m]:
                out.append((g[:m] + g[m + 1 :], cg * root))
    return _collect(out)


def act_I(table, k: int, x: dict) -> dict:
    """The inclusion step from colour k up to colour k+1."""
    n = len(table)
    out = []
    for g, cg in x.items():
        if k == 0:
            out.append(((), cg))
        elif k == 1:
            out.append(((0,), cg))
        elif k % 2 == 0:
            # colour 2 multiplies labels in the reverse order, so it includes S(g^-1)
            head = (inverse(table, g[0]),) if k == 2 else g[: k // 2]
            out += [(head + (u,) + g[k // 2 :], cg / sp.sqrt(n)) for u in range(n)]
        else:
            m = (k + 1) // 2
            out.append((g[:m] + (g[m - 1],) + g[m:], cg))
    return _collect(out)


def unit(n: int, k: int) -> dict:
    if k <= 1:
        return {(): sp.Integer(1)}
    if k == 2:
        return {(0,): sp.Integer(1)}
    if k == 3:
        return {(0, h): 1 / sp.sqrt(n) for h in range(n)}
    if k == 4:
        return {(0, h, h): 1 / sp.sqrt(n) for h in range(n)}
    if k == 5:
        return {(0, h, u, h): sp.Rational(1, n) for h in range(n) for u in range(n)}
    raise ValueError(k)


def jones(n: int, k: int) -> dict:
    if k == 2:
        return {(g,): sp.Rational(1, n) for g in range(n)}
    if k == 3:
        return {(0, 0): 1 / sp.sqrt(n)}
    if k == 4:
        return {(0, b, c): sp.sqrt(n) ** -3 for b in range(n) for c in range(n)}
    if k == 5:
        return {(0, b, b, b): sp.Rational(1, n) for b in range(n)}
    raise ValueError(k)


def trace_closed(table, k: int, lab: tuple):
    if k <= 1:
        return sp.Integer(1)
    if lab[0] != 0:
        return sp.Integer(0)
    # the matching condition pairs position i with position k+1-i
    for i in range(2, k // 2 + 1):
        if lab[i - 1] != lab[k - i]:
            return sp.Integer(0)
    return sp.sqrt(len(table)) ** (1 - (k + 1) // 2)


def trace_el(table, k: int, x: dict):
    return sp.expand(sum(c * trace_closed(table, k, lab) for lab, c in x.items()))


def trace_fold(table, k: int, x: dict):
    cur = dict(x)
    for j in range(k - 1, 0, -1):
        cur = act_E(table, j, cur)
        cur = {lab: sp.expand(c / sp.sqrt(len(table))) for lab, c in cur.items()}
    return cur.get((), sp.Integer(0))


def star_closed(table, k: int, lab: tuple) -> tuple:
    if k <= 1:
        return ()
    first = inverse(table, lab[0])
    return (first,) + tuple(table[first][lab[j]] for j in range(k - 2, 0, -1))


def star_el(table, k: int, x: dict) -> dict:
    return _collect((star_closed(table, k, lab), c) for lab, c in x.items())


def eq_el(x: dict, y: dict) -> bool:
    keys = set(x) | set(y)
    return all(sp.expand(x.get(kk, 0) - y.get(kk, 0)) == 0 for kk in keys)


def check_units(table, kmax: int):
    n = len(table)
    for k in range(2, kmax + 1):
        u = unit(n, k)
        for lab in labels(table, k):
            s = {lab: sp.Integer(1)}
            assert eq_el(el_mul(table, k, u, s), s), (n, k, lab, "left")
            assert eq_el(el_mul(table, k, s, u), s), (n, k, lab, "right")
    print(f"  unit property: two-sided on all basis elements, k<={kmax}, n={n}")


def check_trace(table, kmax: int):
    n = len(table)
    for k in range(2, kmax + 1):
        for lab in labels(table, k):
            closed = trace_closed(table, k, lab)
            folded = trace_fold(table, k, {lab: sp.Integer(1)})
            assert sp.expand(closed - folded) == 0, (n, k, lab, closed, folded)
        total = trace_el(table, k, unit(n, k))
        assert total == 1, (n, k, total)
    print(f"  trace: closed form == capping fold, tr(unit)=1, k<={kmax}, n={n}")


def derive_star_from_pairing(table, kmax: int):
    """tr(x S(g)) = delta pins star(S(h)) uniquely; recover it."""
    n = len(table)
    for k in range(2, kmax + 1):
        basis = labels(table, k)
        for h in basis:
            hits = []
            for a in basis:
                r = basis_product(table, k, a, h)
                if r is None:
                    continue
                c, lab = r
                t = sp.expand(c * trace_closed(table, k, lab))
                if t != 0:
                    hits.append((a, t))
            assert len(hits) == 1, (n, k, h, hits)
            a, t = hits[0]
            assert t == 1, (n, k, h, t)
            assert a == star_closed(table, k, h), (n, k, h, a)
    print(f"  star: pairing tr(x*y) re-derives the closed form, k<={kmax}, n={n}")


def check_star_properties(table, kmax: int):
    n = len(table)
    for k in range(2, kmax + 1):
        basis = labels(table, k)
        for lab in basis:
            assert star_closed(table, k, star_closed(table, k, lab)) == lab
        for g, h in itertools.product(basis, repeat=2):
            lhs = star_el(table, k, el_mul(table, k, {g: sp.Integer(1)}, {h: sp.Integer(1)}))
            rhs = el_mul(
                table,
                k,
                {star_closed(table, k, h): sp.Integer(1)},
                {star_closed(table, k, g): sp.Integer(1)},
            )
            assert eq_el(lhs, rhs), (n, k, g, h)
    print(f"  star: involutive and antimultiplicative, exhaustive k<={kmax}, n={n}")


def check_orthonormality(table, kmax: int, sample: int = 0, kmin: int = 2):
    """tr(star(S(h)) S(g)) = delta(g, h) on every pair of basis labels at
    colours ``kmin..kmax``, or, with ``sample``, on that many pairs drawn
    from seed 0 at each colour with more pairs than that."""
    n = len(table)
    rng = random.Random(0)
    for k in range(kmin, kmax + 1):
        basis = labels(table, k)
        pairs = itertools.product(basis, repeat=2)
        if sample and len(basis) ** 2 > sample:
            pairs = [(rng.choice(basis), rng.choice(basis)) for _ in range(sample)]
        for g, h in pairs:
            p = el_mul(table, k, {star_closed(table, k, h): sp.Integer(1)}, {g: sp.Integer(1)})
            t = trace_el(table, k, p)
            assert t == (1 if g == h else 0), (n, k, g, h, t)
    drawn = f", {sample} seeded pairs per larger colour" if sample else ""
    low = f"{kmin}<=" if kmin > 2 else ""
    print(f"  orthonormality: Gram matrix is the identity, {low}k<={kmax}, n={n}{drawn}")


def check_jones(table, kmax: int):
    n = len(table)
    for k in range(2, kmax + 1):
        f = jones(n, k)
        assert eq_el(el_mul(table, k, f, f), f), (n, k, "idempotent")
        assert eq_el(star_el(table, k, f), f), (n, k, "self-adjoint")
        t = trace_el(table, k, f)
        assert t == sp.Rational(1, n), (n, k, t)
        capped = act_E(table, k - 1, f)
        target = {lab: c / sp.sqrt(n) for lab, c in unit(n, k - 1).items()}
        assert eq_el(capped, target), (n, k, "capping")
    print(f"  jones: f^2=f=f*, tr(f)=1/n, capping gives unit/sqrt(n), k<={kmax}, n={n}")


def solve_jones_colour2(n: int):
    """Solve the full colour-2 characterizing system symbolically."""
    cs = sp.symbols(f"c0:{n}")
    eqs = []
    # idempotent: convolution square equals itself
    for j in range(n):
        eqs.append(sp.expand(sum(cs[a] * cs[(j - a) % n] for a in range(n)) - cs[j]))
    # self-adjoint: coefficient at g equals coefficient at -g
    for a in range(n):
        eqs.append(cs[a] - cs[(-a) % n])
    # capping compatibility: sqrt(n) c_e = 1/sqrt(n)
    eqs.append(sp.sqrt(n) * cs[0] - 1 / sp.sqrt(n))
    sols = sp.solve(eqs, cs, dict=True)
    print(f"  colour-2 system over Z_{n}: {len(sols)} solution(s)")
    for s in sols:
        vec = tuple(s[c] for c in cs)
        print(f"    {vec}")
    return sols


def capped_inclusion_expansion(table):
    n = len(table)
    for g in range(n):
        x = {(g,): sp.Integer(1)}
        out = act_E(table, 2, act_I(table, 2, x))
        expect = {(g,): sp.sqrt(n)}
        assert eq_el(out, expect), (g, out)
    print(f"  capping the inclusion of S(g) gives sqrt(n) S(g), n={n}")


def main():
    print("cyclic group of order 3:")
    z3 = cyclic(3)
    check_units(z3, 5)
    check_trace(z3, 5)
    derive_star_from_pairing(z3, 5)
    check_star_properties(z3, 4)
    check_orthonormality(z3, 4)
    check_jones(z3, 5)
    sols = solve_jones_colour2(3)
    assert len(sols) == 1
    assert tuple(sols[0].values()) == (sp.Rational(1, 3),) * 3
    capped_inclusion_expansion(z3)

    print("cyclic group of order 4:")
    z4 = cyclic(4)
    check_units(z4, 5)
    check_trace(z4, 5)
    derive_star_from_pairing(z4, 4)
    check_star_properties(z4, 3)
    check_orthonormality(z4, 3)
    check_jones(z4, 5)
    sols = solve_jones_colour2(4)
    # order 4 admits a second solution built from the order-2 character;
    # the planar value is the all-positive one (the closed loop of the
    # cup-cap picture weights every group element equally)
    assert len(sols) == 2
    capped_inclusion_expansion(z4)

    print("all base-constant checks passed")


if __name__ == "__main__":
    main()
