"""Adjudicate the crossed-product constants by brute expansion.

Standalone oracle (sympy only, no planarbox import).  It reads the exact
planar-algebra kernel over a group table (labels, basis product, star,
trace, cap, unit, Jones idempotents) and the base checks from
``solve_base_constants.py`` next to it, which imports nothing of the
package either.  Work happens in two algebras: the planar algebra of the
base group G, where the invariant elements ThetaS live, and the planar
algebra of the semidirect product H = G x| Theta, where the surround
images U live.  Everything asserted here is a closed-form-versus-expansion
comparison:

  * the base checks (unit, trace fold, star pairing and properties,
    orthonormality, Jones idempotents, capped inclusion) on the
    nonabelian order-6 and order-8 semidirect tables,
  * the ThetaS product closed form against expanded multiplication,
  * the U product closed form against expanded multiplication,
    including the colour-2 case, whose printed right-hand side symbol
    is settled here (it is a U, not a ThetaS),
  * the surround operator: worked example, idempotence, rational rank
    equal to the orbit count,
  * the biprojection: idempotent, self-adjoint, trace 1/|Theta|,
    dominating the colour-2 Jones projection,
  * the multiplication intertwining of Phi at colours 2 and 3.

Run:  python3 scripts/expand_crossed_constants.py (from any directory: the
script's own directory is first on the import path)
"""

from __future__ import annotations

import itertools

import sympy as sp
from solve_base_constants import (
    capped_inclusion_expansion, check_jones, check_orthonormality, check_star_properties,
    check_trace, check_units, cyclic, derive_star_from_pairing, el_mul, eq_el, jones, labels,
    star_el, trace_el,
)


def semidirect(n):
    """Z_n x| Z_2 by inversion; pair (g, t) encoded as 2 g + t."""
    size = 2 * n
    table = [[0] * size for _ in range(size)]
    for g1, t1, g2, t2 in itertools.product(range(n), (0, 1), range(n), (0, 1)):
        img = g2 if t1 == 0 else (-g2) % n
        table[2 * g1 + t1][2 * g2 + t2] = 2 * ((g1 + img) % n) + (t1 + t2) % 2
    return table


def act_theta(n, t, g):
    return g if t == 0 else (-g) % n


# --- invariant elements and their product closed form ---------------------


def theta_S(n, gs):
    out = {}
    for t in (0, 1):
        lab = tuple(act_theta(n, t, g) for g in gs)
        out[lab] = out.get(lab, 0) + sp.Integer(1)
    return out


def orbit_reps(n, length):
    reps, seen = [], set()
    for tup in itertools.product(range(n), repeat=length):
        if tup in seen:
            continue
        orb = {tuple(act_theta(n, t, g) for g in tup) for t in (0, 1)}
        seen.update(orb)
        reps.append(min(orb))
    return reps


def merged_target(n, k, t, gs, hs):
    """The one label that the basis product of ``S(gs)`` and the
    ``t``-twist of ``S(hs)`` meets, read off ``Z_n``, or None where it
    vanishes.  At colour 2 it is ``gs[0] + t(hs[0])``.  Above it, with
    ``m = (k + 1) // 2``, the product is nonzero exactly when
    ``hs[i-1] == hs[0] + t(gs[k-i])`` for ``i = 2..m``, and then the label
    is ``hs[0] + t(gs[j])`` for ``j < m`` followed by ``hs[m:]``.  The
    ThetaS and U closed forms, and the colour-2 adjudication, all read it."""
    if k == 2:
        return ((gs[0] + act_theta(n, t, hs[0])) % n,)
    m = (k + 1) // 2
    if any((hs[0] + act_theta(n, t, gs[k - i])) % n != hs[i - 1] for i in range(2, m + 1)):
        return None
    return tuple((hs[0] + act_theta(n, t, gs[j])) % n for j in range(m)) + hs[m : k - 1]


def theta_product_closed(n, k, gs, hs):
    out = {}
    coeff = sp.sqrt(n) ** ((k + 1) // 2 - 1)
    for t in (0, 1):
        target = merged_target(n, k, t, gs, hs)
        if target is None:
            continue
        for lab, c in theta_S(n, target).items():
            out[lab] = sp.expand(out.get(lab, 0) + c * coeff)
    return {lab: c for lab, c in out.items() if c != 0}


# --- U elements inside the semidirect-product algebra ---------------------


def u_element(n, gs):
    out = {}
    k1 = len(gs)
    for t in (0, 1):
        for gam in itertools.product((0, 1), repeat=k1):
            lab = tuple(2 * act_theta(n, t, g) + c for g, c in zip(gs, gam))
            out[lab] = out.get(lab, 0) + sp.Integer(1)
    return out


def u_product_closed(n, k, gs, hs):
    out = {}
    m = (k + 1) // 2
    pref = sp.sqrt(n) ** (m - 1) * sp.sqrt(2) ** (m - 1) * sp.Integer(2) ** (k // 2)
    for t in (0, 1):
        target = merged_target(n, k, t, gs, hs)
        if target is None:
            continue
        for lab, c in u_element(n, target).items():
            out[lab] = sp.expand(out.get(lab, 0) + c * pref)
    return {lab: c for lab, c in out.items() if c != 0}


def check_products(n, kmax):
    """The ThetaS and U product closed forms against expanded
    multiplication, on every pair of orbit representatives."""
    g_table, h_table = cyclic(n), semidirect(n)
    for k in range(2, kmax + 1):
        reps = orbit_reps(n, k - 1)
        for gs, hs in itertools.product(reps, repeat=2):
            closed = theta_product_closed(n, k, gs, hs)
            expanded = el_mul(g_table, k, theta_S(n, gs), theta_S(n, hs))
            assert eq_el(closed, expanded), (n, k, gs, hs, "ThetaS")
            closed = u_product_closed(n, k, gs, hs)
            expanded = el_mul(h_table, k, u_element(n, gs), u_element(n, hs))
            assert eq_el(closed, expanded), (n, k, gs, hs, "U")
    print(f"  ThetaS product closed form == expansion, k<={kmax}, |G|={n}")
    print(f"  U product closed form == expansion, k<={kmax}, |G|={n}")


def adjudicate_colour2(n):
    """The printed colour-2 right-hand side says ThetaS; show it is U."""
    h_table = semidirect(n)
    for g, h in itertools.product(range(n), repeat=2):
        expanded = el_mul(h_table, 2, u_element(n, (g,)), u_element(n, (h,)))
        as_u = {}
        for t in (0, 1):
            for lab, c in u_element(n, merged_target(n, 2, t, (g,), (h,))).items():
                as_u[lab] = sp.expand(as_u.get(lab, 0) + 2 * c)
        assert eq_el(expanded, as_u), (g, h)
        # the literal ThetaS reading lives in the wrong algebra: its
        # labels index G, not the semidirect product, so it cannot even
        # be compared without reinterpretation
    print(
        f"  colour-2 U product == |Theta| sum of U terms (the printed ThetaS is a U), |G|={n}"
    )


# --- surround operator, biprojection, Phi ---------------------------------


def surround_F(n, k, x):
    out = {}
    for lab, c in x.items():
        gs = tuple(l // 2 for l in lab)
        spread = c / sp.Integer(2) ** k
        for ulab, uc in u_element(n, gs).items():
            out[ulab] = sp.expand(out.get(ulab, 0) + spread * uc)
    return {lab: c for lab, c in out.items() if c != 0}


def check_surround(n, kmax):
    h_table = semidirect(n)
    if n == 3:
        x = {(2 * 1 + 0,): sp.Integer(1)}  # S((1, id))
        img = surround_F(3, 2, x)
        expect = {
            (2 * 1 + 0,): sp.Rational(1, 4),
            (2 * 1 + 1,): sp.Rational(1, 4),
            (2 * 2 + 0,): sp.Rational(1, 4),
            (2 * 2 + 1,): sp.Rational(1, 4),
        }
        assert eq_el(img, expect)
        print("  worked example: F2(S((1,id))) spreads over four labels with weight 1/4")
    for k in range(2, kmax + 1):
        basis = labels(h_table, k)
        index = {lab: i for i, lab in enumerate(basis)}
        rows = []
        for lab in basis:
            img = surround_F(n, k, {lab: sp.Integer(1)})
            assert eq_el(surround_F(n, k, img), img), (n, k, lab)
            row = [sp.Integer(0)] * len(basis)
            for l2, c in img.items():
                row[index[l2]] = c
            rows.append(row)
        rank = sp.Matrix(rows).rank()
        expected = len(orbit_reps(n, k - 1))
        assert rank == expected, (n, k, rank, expected)
        print(f"  F idempotent with rank {rank} = orbit count, k={k}, |G|={n}")


def check_biprojection(n):
    h_table = semidirect(n)
    q = {(2 * 0 + t,): sp.Rational(1, 2) for t in (0, 1)}
    assert eq_el(el_mul(h_table, 2, q, q), q)
    assert eq_el(star_el(h_table, 2, q), q)
    assert trace_el(h_table, 2, q) == sp.Rational(1, 2)
    e1 = jones(len(h_table), 2)
    assert eq_el(el_mul(h_table, 2, q, e1), e1)
    assert eq_el(el_mul(h_table, 2, e1, q), e1)
    print(f"  biprojection: q^2 = q = q*, tr(q) = 1/2, q dominates e1, |G|={n}")


def phi(n, k, x_theta):
    """Phi on the ThetaS span, returned in the semidirect algebra."""
    pref = sp.Integer(2) ** (-(k // 2)) * sp.sqrt(2) ** (1 - (k + 1) // 2)
    out = {}
    seen = set()
    for lab in x_theta:
        orb = {tuple(act_theta(n, t, g) for g in lab) for t in (0, 1)}
        rep = min(orb)
        if rep in seen:
            continue
        seen.add(rep)
        stab = 2 // len(orb)
        coeff = sp.expand(x_theta[lab] / stab)
        for ulab, uc in u_element(n, rep).items():
            out[ulab] = sp.expand(out.get(ulab, 0) + coeff * pref * uc)
    return {lab: c for lab, c in out.items() if c != 0}


def check_phi_multiplication(n, kmax):
    g_table = cyclic(n)
    h_table = semidirect(n)
    for k in range(2, kmax + 1):
        for gs, hs in itertools.product(orbit_reps(n, k - 1), repeat=2):
            lhs = phi(n, k, el_mul(g_table, k, theta_S(n, gs), theta_S(n, hs)))
            rhs = surround_F(
                n, k, el_mul(h_table, k, phi(n, k, theta_S(n, gs)), phi(n, k, theta_S(n, hs)))
            )
            assert eq_el(lhs, rhs), (n, k, gs, hs)
    print(f"  Phi intertwines multiplication (alpha(M)=1), k<={kmax}, |G|={n}")


def main():
    print("order-6 semidirect instance:")
    h6 = semidirect(3)
    check_units(h6, 4)
    check_trace(h6, 4)
    check_orthonormality(h6, 3)
    check_orthonormality(h6, 4, sample=300, kmin=4)
    derive_star_from_pairing(h6, 3)
    check_star_properties(h6, 3)
    check_jones(h6, 5)
    capped_inclusion_expansion(h6)
    check_products(3, 4)
    adjudicate_colour2(3)
    check_surround(3, 3)
    check_biprojection(3)
    check_phi_multiplication(3, 3)

    print("order-8 semidirect instance:")
    h8 = semidirect(4)
    check_units(h8, 3)
    check_trace(h8, 3)
    check_orthonormality(h8, 3, sample=300)
    derive_star_from_pairing(h8, 3)
    check_star_properties(h8, 3)
    check_jones(h8, 4)
    capped_inclusion_expansion(h8)
    check_products(4, 3)
    adjudicate_colour2(4)
    check_surround(4, 2)
    check_biprojection(4)
    check_phi_multiplication(4, 2)

    print("all crossed-product constant checks passed")


if __name__ == "__main__":
    main()
