"""Named verification suites assembled into flat report records.

Every suite takes an action plus (k_max, samples, seed) and returns a
list of record dicts with keys suite, case, lhs, rhs, pass.  Identical
configuration gives identical records, so serialized reports can be
compared byte for byte.  The CLI turns these into JSON files; the
acceptance tests consume them directly.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import numpy as np

from .crossed import CrossedProduct
from .expressions import GenExpr, generator_signature
from .group_algebra import flag, record, row_reduce
from .groups import GroupAction
from .intermediate import IntermediateAlgebra, crossed_instance
from .scalars import ONE, ZERO, pow_half

# transport commutes with these generators; a check runs only when every
# disc of its generator lies within the suite's k_max
INTERTWINE_GENERATORS = (
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
    GenExpr("unit", 0),
    GenExpr("unit", 0, True),
)


# the highest colour any suite checks: base-algebra's Markov check reads the
# Jones element at colour k_max + 1, and its closed forms stop at colour 5
MAX_KMAX = 4

# base-algebra visits every pair of basis labels at k_max (the Gram matrix
# and the index table), dimension(k_max)^2 of them; run_suite refuses more
# than this before any work starts.  z4xz2 at k_max 4 has 512^2 and z7xz3 at
# k_max 3 has 441^2, while z7xz3 at k_max 4 would have 9261^2 (about 86M).
MAX_BASE_ALGEBRA_PAIRS = 2**20


class SuiteError(ValueError):
    """Unknown suite name, a k_max outside 2..MAX_KMAX, or a base-algebra
    run above MAX_BASE_ALGEBRA_PAIRS."""


def index_table_associative(table: np.ndarray) -> bool:
    """Whether a basis product index table is associative, over all
    ``size^3`` triples.

    ``table`` is what :meth:`GroupPlanarAlgebra.product_structure` returns:
    ``int32`` entries, -1 for a zero product.  One copy padded with a row
    and a column of -1 lets a zero product index a zero row or entry, and
    it keeps the table's dtype.  One ``size^2`` block per left factor i
    compares ``(x_i x_j) x_k`` with ``x_i (x_j x_k)``, so memory stays
    quadratic in the basis size.
    """
    size = len(table)
    padded = np.full((size + 1, size + 1), -1, dtype=table.dtype)
    padded[:size, :size] = table
    rows = padded[:, :size]
    return all((rows[table[i]] == padded[i][table]).all() for i in range(size))


def base_algebra_report(
    cp: CrossedProduct, k_max: int = 4, samples: int = 40, seed: int = 0
) -> list[dict]:
    """Ring structure of the ambient labelled algebra, exhaustively.

    One walk over the label pairs of a colour gives the index table and the
    shared prefactor (:meth:`GroupPlanarAlgebra.product_structure`).
    Associativity is checked on that ``int32`` table
    (:func:`index_table_associative`), which is valid because the
    prefactor record pins all nonzero products to one shared constant;
    everything else runs element by element over the bases.  The traces
    read the algebra's per-label memo, so each basis trace is computed once.
    ``run_suite`` bounds the cost at ``MAX_BASE_ALGEBRA_PAIRS``.
    """
    suite = "base-algebra"
    P = cp.product
    n = len(P.group)
    rng = random.Random(seed)
    records = []
    for colour in range(1, k_max + 1):
        one = P.unit(colour)
        basis = [P.basis_element(colour, lab) for lab in P.basis_labels(colour)]
        two_sided = all(P.multiply(one, b) == b and P.multiply(b, one) == b for b in basis)
        records += [
            flag(suite, f"unit is a two-sided identity at colour {colour}", two_sided,
                 "identity", "broken"),
            record(suite, f"trace of the unit at colour {colour}", P.trace(one).render(), "1"),
        ]
    for colour in range(2, k_max + 1):
        table, labels, prefactor = P.product_structure(colour)
        size = len(labels)
        records += [
            flag(suite, f"associativity of the index table at colour {colour} ({size}^3 triples)",
                 index_table_associative(table), "associative", "broken"),
            record(suite, f"shared product prefactor at colour {colour}",
                   prefactor.render(), pow_half(n, (colour + 1) // 2 - 1).render()),
        ]
        basis = [P.basis_element(colour, lab) for lab in P.basis_labels(colour)]
        records.append(
            flag(suite, f"star is an involution at colour {colour}",
                 all(P.star(P.star(b)) == b for b in basis), "involution", "broken")
        )
        if size * size <= 2000:
            pairs = [(x, y) for x in basis for y in basis]
        else:
            pairs = [(rng.choice(basis), rng.choice(basis)) for _ in range(samples)]
        records.append(
            flag(suite, f"star reverses products at colour {colour} ({len(pairs)} pairs)",
                 all(P.star(P.multiply(x, y)) == P.multiply(P.star(y), P.star(x))
                     for x, y in pairs),
                 "antihomomorphism", "broken")
        )
        stars = [P.star(y) for y in basis]
        gram_ok = True
        for i, x in enumerate(basis):
            for j, y_star in enumerate(stars):
                inner = P.trace(P.multiply(y_star, x))
                if inner != (ONE if i == j else ZERO):
                    gram_ok = False
        include = GenExpr("I", colour)
        e_up = P.jones_element(colour + 1)
        inv_order = Fraction(1, n)
        records += [
            flag(suite, f"Gram matrix of the label basis is the identity at colour {colour}",
                 gram_ok, "orthonormal", "degenerate"),
            flag(suite, f"trace is star-invariant at colour {colour}",
                 all(P.trace(P.star(b)) == P.trace(b) for b in basis), "invariant", "broken"),
            flag(suite, f"inclusion preserves the trace at colour {colour}",
                 all(P.trace(P.act_generator(include, [b])) == P.trace(b) for b in basis),
                 "preserved", "broken"),
            flag(suite, f"Markov property at colour {colour}",
                 all(P.trace(P.multiply(P.act_generator(include, [b]), e_up))
                     == P.trace(b) * inv_order for b in basis),
                 "markov", "broken"),
        ]
    return records


def crossed_product_report(
    cp: CrossedProduct, k_max: int = 4, samples: int = 40, seed: int = 0
) -> list[dict]:
    """Closed product formulas against expansion, and the transport map."""
    suite = "crossed-product"
    rng = random.Random(seed)
    records = []
    for colour in range(2, k_max + 1):
        reps = cp.orbit_reps(colour)
        ok = True
        for _ in range(samples):
            x = cp.orbit_sum(colour, rng.choice(reps))
            y = cp.orbit_sum(colour, rng.choice(reps))
            if cp.orbit_multiply(x, y) != cp.base.multiply(x, y):
                ok = False
        records.append(
            flag(suite, f"orbit product closed form at colour {colour} ({samples} pairs)",
                 ok, "matches expansion", "differs")
        )
        ok = True
        for _ in range(samples):
            a, b = rng.choice(reps), rng.choice(reps)
            direct = cp.product.multiply(
                cp.twist_sum(colour, a), cp.twist_sum(colour, b)
            )
            if cp.twist_multiply(colour, a, b) != direct:
                ok = False
        records.append(
            flag(suite, f"twist product closed form at colour {colour} ({samples} pairs)",
                 ok, "matches expansion", "differs")
        )
    for colour in range(1, k_max + 1):
        reps = cp.orbit_reps(colour)
        images = []
        ok = True
        for rep in reps:
            x = cp.orbit_sum(colour, rep)
            carried = cp.transport(x)
            images.append(carried)
            if cp.transport_inverse(carried) != x:
                ok = False
        records += [
            flag(suite, f"transport inverts at colour {colour}", ok, "bijective", "broken"),
            record(suite, f"transport image rank at colour {colour}",
                   str(len(row_reduce(images))), str(len(reps))),
        ]
    for gen in INTERTWINE_GENERATORS:
        external, slots = generator_signature(gen)
        if max([external.colour] + [d.colour for d in slots]) <= k_max:
            records.extend(cp.intertwine_check(gen, suite=suite))
    return records


def biprojection_suite(
    cp: CrossedProduct, k_max: int = 4, samples: int = 40, seed: int = 0
) -> list[dict]:
    """The biprojection facts plus conjugate copies and surround ranks."""
    records = cp.biprojection_report(kmax=k_max)
    P = cp.product
    for h in range(len(cp.semidirect)):
        sub = cp.biprojection_report(cp.conjugate_biprojection(h), kmax=1)
        records.append(
            flag("biprojection",
                 f"conjugate copy at h={cp.semidirect.name(h)} verifies identically",
                 all(r["pass"] for r in sub), "verified", "broken")
        )
    for colour in range(1, k_max + 1):
        images = [
            cp.surround(P.basis_element(colour, lab)) for lab in P.basis_labels(colour)
        ]
        records.append(
            record("biprojection", f"surround rank at colour {colour}",
                   str(len(row_reduce(images))), str(len(cp.orbit_reps(colour))))
        )
    return records


def _build_intermediate(cp: CrossedProduct, k_max: int) -> IntermediateAlgebra:
    return IntermediateAlgebra(crossed_instance(cp), k_max=k_max)


# suite name -> runner(cp, inter, k_max, samples, seed), in the order of
# `all`; ``inter()`` returns the cut-down algebra, built on first use
_RUNNERS = {
    "base-algebra": lambda cp, inter, k, n, s: base_algebra_report(cp, k_max=k, samples=n, seed=s),
    "crossed-product": lambda cp, inter, k, n, s: crossed_product_report(
        cp, k_max=k, samples=n, seed=s
    ),
    "biprojection": lambda cp, inter, k, n, s: biprojection_suite(cp, k_max=k, samples=n, seed=s),
    "theorem-main": lambda cp, inter, k, n, s: inter().theorem_main_report(
        samples=n, seed=s, max_colour=k
    ),
    "axioms": lambda cp, inter, k, n, s: inter().axiom_report(samples=n, seed=s, max_colour=k),
    "jones": lambda cp, inter, k, n, s: inter().jones_report(top=k),
    "trace": lambda cp, inter, k, n, s: inter().trace_report(kmax=k),
    "dual": lambda cp, inter, k, n, s: inter().dual_report(samples=n, seed=s),
}

SUITE_NAMES = (*_RUNNERS, "all")


def run_suite(
    name: str,
    action: GroupAction,
    k_max: int = 4,
    samples: int = 40,
    seed: int = 0,
) -> list[dict]:
    """Dispatch one named suite (or all of them, concatenated)."""
    if name not in SUITE_NAMES:
        raise SuiteError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if not 2 <= k_max <= MAX_KMAX:
        raise SuiteError(f"k_max must lie in 2..{MAX_KMAX}, got {k_max}")
    wanted = list(_RUNNERS) if name == "all" else [name]
    if "base-algebra" in wanted:
        order = action.group.order * action.theta.order
        dimension = order ** (k_max - 1)
        if dimension**2 > MAX_BASE_ALGEBRA_PAIRS:
            raise SuiteError(
                f"base-algebra at k_max {k_max} checks {dimension}^2 = {dimension**2} "
                f"basis label pairs (group order {order}), above the maximum "
                f"{MAX_BASE_ALGEBRA_PAIRS}; lower k_max"
            )
    cp = CrossedProduct(action)
    inter = functools.cache(lambda: _build_intermediate(cp, k_max))
    records: list[dict] = []
    for current in wanted:
        records.extend(_RUNNERS[current](cp, inter, k_max, samples, seed))
    return records


def summarize(records: list[dict]) -> dict:
    failed = sum(1 for r in records if not r["pass"])
    return {"cases": len(records), "failed": failed, "ok": failed == 0}
