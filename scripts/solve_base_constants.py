"""Derive and pin the closed-form constants of the group planar algebra.

Standalone oracle: everything here is written directly from the basis
product rule and the generator action rules, with sympy doing the exact
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
test suite freezes.
"""

from __future__ import annotations

import itertools

import sympy as sp


def labels(n: int, k: int):
    length = max(k - 1, 0)
    return list(itertools.product(range(n), repeat=length))


def basis_product(n: int, k: int, g: tuple, h: tuple):
    """Product of two basis elements: (coefficient, label) or None."""
    if k <= 1:
        return sp.Integer(1), ()
    if k == 2:
        return sp.Integer(1), (((g[0] + h[0]) % n),)
    m = (k + 1) // 2
    for i in range(2, m + 1):
        if (h[0] + g[k - i]) % n != h[i - 1]:
            return None
    coeff = sp.sqrt(n) ** (m - 1)
    label = tuple((h[0] + g[j]) % n for j in range(m)) + h[m : k - 1]
    return coeff, label


def el_mul(n: int, k: int, x: dict, y: dict) -> dict:
    out: dict = {}
    for g, cg in x.items():
        for h, ch in y.items():
            r = basis_product(n, k, g, h)
            if r is None:
                continue
            c, lab = r
            out[lab] = sp.expand(out.get(lab, 0) + cg * ch * c)
    return {lab: c for lab, c in out.items() if c != 0}


def act_E(n: int, k: int, x: dict) -> dict:
    """The capping step from colour k+1 down to colour k."""
    out: dict = {}

    def put(lab, c):
        out[lab] = sp.expand(out.get(lab, 0) + c)

    for g, cg in x.items():
        if k == 0:
            put((), cg * sp.sqrt(n))
        elif k == 1:
            if g[0] == 0:
                put((), cg * sp.sqrt(n))
        elif k == 2:
            put(((-g[0]) % n,), cg)
        elif k % 2 == 0:
            put(g[: k // 2] + g[k // 2 + 1 :], cg)
        else:
            m = (k + 1) // 2
            if g[m - 1] == g[m]:
                put(g[:m] + g[m + 1 :], cg * sp.sqrt(n))
    return {lab: c for lab, c in out.items() if c != 0}


def act_I(n: int, k: int, x: dict) -> dict:
    """The inclusion step from colour k up to colour k+1."""
    out: dict = {}

    def put(lab, c):
        out[lab] = sp.expand(out.get(lab, 0) + c)

    for g, cg in x.items():
        if k == 0:
            put((), cg)
        elif k == 1:
            put((0,), cg)
        elif k % 2 == 0:
            # colour 2 multiplies labels in the reverse order, so it includes S(-g)
            head = ((-g[0]) % n,) if k == 2 else g[: k // 2]
            for u in range(n):
                put(head + (u,) + g[k // 2 :], cg / sp.sqrt(n))
        else:
            m = (k + 1) // 2
            put(g[:m] + (g[m - 1],) + g[m:], cg)
    return {lab: c for lab, c in out.items() if c != 0}


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
        return {
            (0, h, u, h): sp.Rational(1, n)
            for h in range(n)
            for u in range(n)
        }
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


def trace_closed(n: int, k: int, lab: tuple):
    if k <= 1:
        return sp.Integer(1)
    m = (k + 1) // 2
    if lab[0] != 0:
        return sp.Integer(0)
    # the matching condition pairs position i with position k+1-i
    for i in range(2, k // 2 + 1):
        if lab[i - 1] != lab[k - i]:
            return sp.Integer(0)
    return sp.sqrt(n) ** (1 - m)


def trace_fold(n: int, k: int, x: dict):
    cur = dict(x)
    for j in range(k - 1, 0, -1):
        cur = act_E(n, j, cur)
        cur = {lab: sp.expand(c / sp.sqrt(n)) for lab, c in cur.items()}
    return cur.get((), sp.Integer(0))


def star_closed(n: int, k: int, lab: tuple) -> tuple:
    if k <= 1:
        return ()
    if k == 2:
        return ((-lab[0]) % n,)
    first = (-lab[0]) % n
    rest = tuple((lab[j] - lab[0]) % n for j in range(k - 2, 0, -1))
    return (first,) + rest


def star_el(n: int, k: int, x: dict) -> dict:
    out: dict = {}
    for lab, c in x.items():
        s = star_closed(n, k, lab)
        out[s] = sp.expand(out.get(s, 0) + c)
    return {lab: c for lab, c in out.items() if c != 0}


def eq_el(x: dict, y: dict) -> bool:
    keys = set(x) | set(y)
    return all(sp.expand(x.get(kk, 0) - y.get(kk, 0)) == 0 for kk in keys)


def check_units(n: int, kmax: int):
    for k in range(2, kmax + 1):
        u = unit(n, k)
        for lab in labels(n, k):
            s = {lab: sp.Integer(1)}
            assert eq_el(el_mul(n, k, u, s), s), (n, k, lab, "left")
            assert eq_el(el_mul(n, k, s, u), s), (n, k, lab, "right")
    print(f"  unit property: two-sided on all basis elements, k<=%d, n=%d" % (kmax, n))


def check_trace(n: int, kmax: int):
    for k in range(2, kmax + 1):
        for lab in labels(n, k):
            closed = trace_closed(n, k, lab)
            folded = trace_fold(n, k, {lab: sp.Integer(1)})
            assert sp.expand(closed - folded) == 0, (n, k, lab, closed, folded)
        u = unit(n, k)
        total = sp.expand(sum(c * trace_closed(n, k, lab) for lab, c in u.items()))
        assert total == 1, (n, k, total)
    print(f"  trace: closed form == capping fold, tr(unit)=1, k<=%d, n=%d" % (kmax, n))


def derive_star_from_pairing(n: int, kmax: int):
    """tr(x S(g)) = delta pins star(S(h)) uniquely; recover it."""
    for k in range(2, kmax + 1):
        basis = labels(n, k)
        for h in basis:
            hits = []
            for a in basis:
                r = basis_product(n, k, a, h)
                if r is None:
                    continue
                c, lab = r
                t = c * trace_closed(n, k, lab)
                if sp.expand(t) != 0:
                    hits.append((a, sp.expand(t)))
            assert len(hits) == 1, (n, k, h, hits)
            a, t = hits[0]
            assert t == 1, (n, k, h, t)
            assert a == star_closed(n, k, h), (n, k, h, a)
    print(f"  star: pairing tr(x*y) re-derives the closed form, k<=%d, n=%d" % (kmax, n))


def check_star_properties(n: int, kmax: int):
    for k in range(2, kmax + 1):
        basis = labels(n, k)
        for lab in basis:
            assert star_closed(n, k, star_closed(n, k, lab)) == lab
        for g, h in itertools.product(basis, repeat=2):
            lhs = star_el(n, k, el_mul(n, k, {g: sp.Integer(1)}, {h: sp.Integer(1)}))
            rhs = el_mul(
                n, k, {star_closed(n, k, h): sp.Integer(1)}, {star_closed(n, k, g): sp.Integer(1)}
            )
            assert eq_el(lhs, rhs), (n, k, g, h)
    print(f"  star: involutive and antimultiplicative, exhaustive k<=%d, n=%d" % (kmax, n))


def check_orthonormality(n: int, kmax: int):
    for k in range(2, kmax + 1):
        basis = labels(n, k)
        for g, h in itertools.product(basis, repeat=2):
            p = el_mul(n, k, {star_closed(n, k, h): sp.Integer(1)}, {g: sp.Integer(1)})
            t = sp.expand(sum(c * trace_closed(n, k, lab) for lab, c in p.items()))
            assert t == (1 if g == h else 0), (n, k, g, h, t)
    print(f"  orthonormality: Gram matrix is the identity, k<=%d, n=%d" % (kmax, n))


def check_jones(n: int, kmax: int):
    for k in range(2, kmax + 1):
        f = jones(n, k)
        assert eq_el(el_mul(n, k, f, f), f), (n, k, "idempotent")
        assert eq_el(star_el(n, k, f), f), (n, k, "self-adjoint")
        t = sp.expand(sum(c * trace_closed(n, k, lab) for lab, c in f.items()))
        assert t == sp.Rational(1, n), (n, k, t)
        capped = act_E(n, k - 1, f)
        target = {lab: c / sp.sqrt(n) for lab, c in unit(n, k - 1).items()}
        assert eq_el(capped, target), (n, k, "capping")
    print(f"  jones: f^2=f=f*, tr(f)=1/n, capping gives unit/sqrt(n), k<=%d, n=%d" % (kmax, n))


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


def capped_inclusion_expansion(n: int):
    for g in range(n):
        x = {(g,): sp.Integer(1)}
        out = act_E(n, 2, act_I(n, 2, x))
        expect = {(g,): sp.sqrt(n)}
        assert eq_el(out, expect), (g, out)
    print(f"  capping the inclusion of S(g) gives sqrt(n) S(g), n=%d" % n)


def main():
    print("cyclic group of order 3:")
    check_units(3, 5)
    check_trace(3, 5)
    derive_star_from_pairing(3, 5)
    check_star_properties(3, 4)
    check_orthonormality(3, 4)
    check_jones(3, 5)
    sols = solve_jones_colour2(3)
    assert len(sols) == 1
    assert tuple(sols[0].values()) == (sp.Rational(1, 3),) * 3
    capped_inclusion_expansion(3)

    print("cyclic group of order 4:")
    check_units(4, 5)
    check_trace(4, 5)
    derive_star_from_pairing(4, 4)
    check_star_properties(4, 3)
    check_orthonormality(4, 3)
    check_jones(4, 5)
    sols = solve_jones_colour2(4)
    # order 4 admits a second solution built from the order-2 character;
    # the planar value is the all-positive one (the closed loop of the
    # cup-cap picture weights every group element equally)
    assert len(sols) == 2
    capped_inclusion_expansion(4)

    print("all base-constant checks passed")


if __name__ == "__main__":
    main()
