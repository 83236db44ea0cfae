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
from typing import TYPE_CHECKING

from .crossed import CrossedProduct
from .expressions import GenExpr
from .group_algebra import (
    GroupPlanarAlgebra,
    Label,
    PAElement,
    SubgroupBiprojection,
    flag,
    record,
    row_reduce,
)
from .groups import GroupAction
from .intermediate import IntermediateAlgebra
from .scalars import ONE, RadicalScalar, pow_half

if TYPE_CHECKING:
    import numpy as np

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


# the highest colour any suite checks; nothing above it is bounded or timed:
# the sampled suites have no cost bound (z7xz3 axioms and theorem-main at
# k_max 4 each run past a 120 s timeout with nothing printed), and the pair
# bound refuses z3xz2 at colour 5 (1296^2 > 2**20)
MAX_KMAX = 4

# base-algebra checks every pair of basis labels at k_max, dimension(k_max)^2
# of them: the index table holds one entry per pair, and nothing else does;
# associativity reads one entry per pair of nonzero products (x_i x_j,
# x_j x_k) and counts the rest, star reversal reads each row against one
# column gathered through the star, and the multiply check makes k_max
# products per label against k_max fixed dimension(k_max)-term right
# factors, each grouped once.
# run_suite refuses more pairs than this before any work starts.  z4xz2 at
# k_max 4 has 512^2 and z7xz3 at k_max 3 has 441^2, while z7xz3 at k_max 4
# would have 9261^2 (about 86M).
MAX_BASE_ALGEBRA_PAIRS = 2**20


class SuiteError(ValueError):
    """Unknown suite name, a k_max outside 2..MAX_KMAX, or a base-algebra
    run above MAX_BASE_ALGEBRA_PAIRS."""


def _row_supports(table: np.ndarray):
    """What :func:`index_table_associative` reads off a table besides its
    entries: each row's nonzero columns and its entries there, both padded
    with -1 to the widest row; each row's count of nonzero entries; and
    for each i the counts of nonzero right and left sides over all j, k.
    The supports are filled row by row in the table's dtype, so no scratch
    array has an entry per entry of the table."""
    import numpy as np

    size = len(table)
    row_counts = np.array([np.count_nonzero(row >= 0) for row in table])
    support = np.full((size, int(row_counts.max(initial=0))), -1, dtype=table.dtype)
    products = support.copy()
    for i, row in enumerate(table):
        cols = np.flatnonzero(row >= 0)  # columns ascending
        support[i, : len(cols)] = cols
        products[i, : len(cols)] = row[cols]
    # for each row i: over its nonzero columns l, the pairs (j, k) with
    # T[j, k] = l; over its entries l there, the nonzero entries of row l.
    # A padding -1 reads the 0 appended to each count.
    landing = np.bincount(products[products >= 0], minlength=size)
    right_expected = np.append(landing, 0)[support].sum(axis=1)
    left_expected = np.append(row_counts, 0)[products].sum(axis=1)
    return support, products, row_counts, right_expected, left_expected


def index_table_associative(table: np.ndarray) -> bool:
    """Whether a basis product index table is associative, over all
    ``size^3`` triples, comparing only where ``x_i x_j`` and ``x_j x_k``
    are both nonzero.

    ``table`` is what :meth:`GroupPlanarAlgebra.product_structure` returns:
    ``int32`` entries, -1 for a zero product.  It is read in place.

    Write ``T`` for the table, ``J`` for the columns ``j`` with
    ``T[i, j] >= 0`` and ``K_j`` for those ``k`` with ``T[j, k] >= 0``.  For
    a left factor i, ``(x_i x_j) x_k`` is compared with ``x_i (x_j x_k)``
    for ``j`` in J and ``k`` in ``K_j`` only.  Rows of unequal support are
    padded with -1, and where a block of rows ``j`` reads padding both sides
    are set to -1 there; a block of equal supports is compared as read.  On
    every other triple one side is zero, so the other must be too, and one
    count per side confirms it without reading those entries:

    * ``x_i (x_j x_k)`` is nonzero exactly when ``l = T[j, k] >= 0`` and
      ``T[i, l] >= 0``, and the pairs ``(j, k)`` with ``T[j, k] = l``
      number ``bincount(T[T >= 0])[l]``; summed over the nonzero entries
      of row i this counts every nonzero right side, which equals those
      compared exactly when none has ``j`` outside J.
    * ``(x_i x_j) x_k`` runs along row ``T[i, j]``; summed over J, the
      nonzero entries of those rows count every nonzero left side, which
      equals those compared exactly when none has ``k`` outside ``K_j``.

    The compared sides are equal, so both counts must equal the nonzero
    entries compared.  The work is one entry per pair of nonzero products
    ``(x_i x_j, x_j x_k)``.  The scratch is the two padded supports, in the
    table's dtype, and one left factor's block at a time.
    """
    import numpy as np

    support, products, row_counts, right_expected, left_expected = _row_supports(table)
    narrow = row_counts < support.shape[1]
    # a view; flat takes beat 2-d indexing, and an intp size keeps the
    # flat indices from overflowing the table's dtype
    size, flat = np.intp(len(table)), table.reshape(-1)
    for i, row in enumerate(table):
        js = support[i, : row_counts[i]]
        ks = support.take(js, axis=0)
        left = flat.take(row.take(js)[:, None] * size + ks)
        right = row.take(products.take(js, axis=0))
        if narrow.take(js).any():
            padding = ks < 0
            left[padding] = right[padding] = -1
        if not (left == right).all():
            return False
        compared = np.count_nonzero(right >= 0)
        if compared != right_expected[i] or compared != left_expected[i]:
            return False
    return True


def star_map(labels: list[Label], stars: list[PAElement]) -> np.ndarray | None:
    """The star as an index map ``s`` on ``labels``: ``stars[j]`` is the
    basis element of ``labels[s[j]]`` with coefficient 1, or None when
    some star is not one label with coefficient 1."""
    import numpy as np

    # keyed by the coefficient items of the one star each index may have
    index = {((lab, ONE),): i for i, lab in enumerate(labels)}
    found = [index.get(tuple(star.coeffs.items())) for star in stars]
    return None if None in found else np.array(found)


def star_reverses_products(table: np.ndarray, star: np.ndarray) -> bool:
    """Whether ``star(x_i x_j) == star(x_j) star(x_i)`` for every pair of
    basis labels, read off the basis product table.

    ``table`` is what :meth:`GroupPlanarAlgebra.product_structure` returns,
    and ``star`` the index map ``s`` of :func:`star_map`.  Every nonzero
    product is the shared prefactor, a rational power of a square root,
    times one basis element, and ``star`` keeps coefficients, so both
    sides are that prefactor times one basis element or zero:
    ``x_{s[T[i, j]]}`` and ``x_{T[s_j, s_i]}``.  The star reverses products
    exactly when ``s[T[i, j]] == T[s_j, s_i]`` for all ``i, j``, a -1 (zero
    product) matching a -1.  That ``multiply`` agrees with the table is the
    Gram flag's check (:func:`gram_is_identity`).  The table is read one
    row ``i`` at a time, against the column ``T[s, s_i]``, so no scratch
    array has an entry per entry of the table.
    """
    import numpy as np

    starred = np.append(star, -1)  # the -1 of a zero product reads -1
    return all((starred[row] == table[star, s_i]).all() for row, s_i in zip(table, star))


def gram_is_identity(
    P: GroupPlanarAlgebra,
    colour: int,
    table: np.ndarray,
    labels: list[Label],
    prefactor: RadicalScalar,
    basis: list[PAElement],
    star: np.ndarray,
    traces: list[RadicalScalar],
) -> bool:
    """Whether the label basis at a colour is orthonormal under ``tr(y* x)``,
    read off the basis product table, and whether ``multiply`` agrees with
    that table on every pair of basis labels.

    ``(table, labels, prefactor)`` is what
    :meth:`GroupPlanarAlgebra.product_structure` returns; ``basis`` and
    ``traces`` hold the basis element of each label and its trace, in the
    order of ``labels``, and ``star`` is the star's index map ``s`` of
    :func:`star_map`.  Then
    ``tr(S(labels[j])* S(labels[i]))`` is ``prefactor * traces[table[s_j, i]]``,
    zero where the entry is -1.  So row j of the Gram matrix is the identity
    row exactly when table row ``s_j`` has one product of nonzero trace, at
    column j, and that trace times the prefactor is 1.  Two equal ``s_j``
    would give one row two such products, so ``s`` permutes the rows and
    every row of the table is read.  Anything else reads False, never
    raises.
    """
    import numpy as np

    # one more False entry, read by the -1 of a zero product
    nonzero = np.array([not t.is_zero() for t in traces] + [False])
    for j, row in enumerate(map(table.__getitem__, star)):
        if np.flatnonzero(nonzero[row]).tolist() != [j] or prefactor * traces[row[j]] != ONE:
            return False
    return _multiply_matches_table(P, colour, basis, table, labels, prefactor)


def _multiply_matches_table(
    P: GroupPlanarAlgebra,
    colour: int,
    basis: list[PAElement],
    table: np.ndarray,
    labels: list[Label],
    prefactor: RadicalScalar,
) -> bool:
    """Whether ``multiply(S(g), S(h))`` is ``prefactor * S(labels[table[g, h]])``,
    zero at -1, for every pair, from ``colour`` products per left label.

    For a fixed left label ``g`` the nonzero products land on distinct
    labels, so one product with ``sum_h S(h)`` must give exactly
    ``prefactor`` on each label of the table row, one pair per label.  One
    product per letter position ``d`` with ``sum_h (h[d] + 1) S(h)`` must
    then have the table row as its support and ``prefactor * (h[d] + 1)`` on
    the label of ``(g, h)``.  The letters name ``h``, so together these name
    the right factor of every nonzero pair and confirm every zero pair.  The
    ``colour`` encoded right factors are built once, so ``multiply`` groups
    each of them once (its memo on :class:`PAElement`), not once per label.
    Each left factor is a basis element, so every product here takes
    ``multiply``'s path for a left class of one label; its path for larger
    classes, which counts hits, is checked against the closed form by the
    product tests.

    Each product's coefficients at the row's labels are compared with the
    expected values in one list equality, which compares every target
    exactly.  An expected value that has compared equal is then replaced by
    the product's own coefficient object, so later rows meet identical
    objects and compare values only where they differ.
    """
    import numpy as np

    values = [RadicalScalar.rational(v + 1) for v in range(len(P.group))]
    count = PAElement(colour, dict.fromkeys(labels, ONE))
    letters = [
        PAElement(colour, {h: values[h[d]] for h in labels}) for d in range(colour - 1)
    ]
    # per right factor: each column's letter value (0 for the count, whose
    # coefficients are all values[0]), and letter value -> expected value
    codes = [np.zeros(len(labels), dtype=np.int64)] + [
        np.array([h[d] for h in labels]) for d in range(colour - 1)
    ]
    expected = [dict(enumerate(prefactor * v for v in values)) for _ in codes]
    for x, row in zip(basis, table):
        cols = np.flatnonzero(row >= 0)
        targets = [labels[k] for k in row[cols].tolist()]
        for y, code, want in zip([count, *letters], codes, expected):
            got = P.multiply(x, y).coeffs
            letter = code[cols].tolist()
            found = list(map(got.get, targets))
            if len(got) != len(targets) or found != list(map(want.__getitem__, letter)):
                return False
            want.update(zip(letter, found))
    return True


def base_algebra_report(
    cp: CrossedProduct, k_max: int = 4, samples: int = 40, seed: int = 0
) -> list[dict]:
    """Ring structure of the ambient labelled algebra, exhaustively.

    Each colour's label basis is built once, with one star and one trace
    per label, and every check of the colour reads those lists.  The basis
    products of a colour are one ``int32`` index table and a shared
    prefactor (:meth:`GroupPlanarAlgebra.product_structure`).
    The stars give one index map (:func:`star_map`).  Three flags read the
    table on every pair of labels: associativity
    (:func:`index_table_associative`), star reversal with the map
    (:func:`star_reverses_products`), and the Gram matrix with the map and
    the shared traces (:func:`gram_is_identity`).  All three stand on the
    table, so the Gram flag also checks that ``multiply`` agrees with it,
    prefactor included, on every pair of labels, with ``colour`` products
    per left label.  The table is dropped once the three flags are read,
    before the unit, star, trace, inclusion and Markov checks run element
    by element over the basis.  No check is sampled, so ``samples`` and
    ``seed`` are read by nothing; they stay for the keyword call every
    suite takes.

    One loop runs every check of a colour and drops its lists before the
    next colour.  The records of the unit go to their own list, returned
    first, so the report lists the unit colour by colour ahead of the other
    checks.  ``run_suite`` bounds the cost at ``MAX_BASE_ALGEBRA_PAIRS``.
    """
    suite = "base-algebra"
    P = cp.product
    n = len(P.group)

    def unit_records(colour: int, basis: list[PAElement]) -> list[dict]:
        one = P.unit(colour)
        two_sided = all(P.multiply(one, b) == b and P.multiply(b, one) == b for b in basis)
        return [
            flag(suite, f"unit is a two-sided identity at colour {colour}", two_sided,
                 "identity", "broken"),
            record(suite, f"trace of the unit at colour {colour}", P.trace(one).render(), "1"),
        ]

    inv_order = Fraction(1, n)
    units = unit_records(1, [P.basis_element(1)])
    records = []
    for colour in range(2, k_max + 1):
        # the table's associativity scratch comes before any element
        table, labels, prefactor = P.product_structure(colour)
        associative = index_table_associative(table)
        basis = [P.basis_element(colour, lab) for lab in labels]
        stars = [P.star(b) for b in basis]
        traces = [P.trace(b) for b in basis]
        star = star_map(labels, stars)
        # a star that is not one label with coefficient 1 fails both flags
        reverses = star is not None and star_reverses_products(table, star)
        orthonormal = star is not None and gram_is_identity(
            P, colour, table, labels, prefactor, basis, star, traces
        )
        # the element-by-element checks, and the memos they grow at
        # colour + 1, do not stack on top of the table
        del table, labels
        units += unit_records(colour, basis)
        size = len(basis)
        include = GenExpr("I", colour)
        e_up = P.jones_element(colour + 1)
        records += [
            flag(suite, f"associativity of the index table at colour {colour} ({size}^3 triples)",
                 associative, "associative", "broken"),
            record(suite, f"shared product prefactor at colour {colour}",
                   prefactor.render(), pow_half(n, (colour + 1) // 2 - 1).render()),
            flag(suite, f"star is an involution at colour {colour}",
                 all(P.star(s) == b for s, b in zip(stars, basis)), "involution", "broken"),
            flag(suite, f"star reverses products at colour {colour} ({size * size} pairs)",
                 reverses, "antihomomorphism", "broken"),
            flag(suite, f"Gram matrix of the label basis is the identity at colour {colour}",
                 orthonormal, "orthonormal", "degenerate"),
            flag(suite, f"trace is star-invariant at colour {colour}",
                 all(P.trace(s) == t for s, t in zip(stars, traces)), "invariant", "broken"),
            flag(suite, f"inclusion preserves the trace at colour {colour}",
                 all(P.trace(P.act_generator(include, [b])) == t for b, t in zip(basis, traces)),
                 "preserved", "broken"),
            flag(suite, f"Markov property at colour {colour}",
                 all(P.trace(P.multiply(P.act_generator(include, [b]), e_up)) == t * inv_order
                     for b, t in zip(basis, traces)),
                 "markov", "broken"),
        ]
    return units + records


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
        twist_sum = functools.cache(functools.partial(cp.twist_sum, colour))
        ok = True
        for _ in range(samples):
            a, b = rng.choice(reps), rng.choice(reps)
            direct = cp.product.multiply(twist_sum(a), twist_sum(b))
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
        external, slots = gen.discs
        if max([external.colour] + [d.colour for d in slots]) <= k_max:
            records.extend(cp.intertwine_check(gen))
    return records


def biprojection_report(sub: SubgroupBiprojection, kmax: int) -> list[dict]:
    """Verification records for the biprojection of any subgroup K.

    Checks that K's average q is idempotent and self-adjoint, has trace
    ``1/|K|`` and dominates the first Jones projection, and that K's own
    surround is idempotent on the full basis at every colour up to kmax.
    Every label of a class ``h -> t h k`` has the same image, the class
    average, so each class is checked once, through its least label
    (:meth:`SubgroupBiprojection.class_reps`): its image is surrounded
    again and compared with itself, and a class that passes counts its
    labels, the terms of that image.
    The trace case keeps its name from the copies of Theta it was first
    written for, so their reports keep their bytes.
    """
    q = sub.average()
    P = sub.algebra
    render = P.render
    e1 = P.jones_element(2)
    records = [
        record("biprojection", "q*q == q", render(P.multiply(q, q)), render(q)),
        record("biprojection", "star(q) == q", render(P.star(q)), render(q)),
        record("biprojection", "tr(q) == 1/|Theta|", P.trace(q).render(),
               RadicalScalar.rational(Fraction(1, sub.order)).render()),
        record("biprojection", "q*e1 == e1", render(P.multiply(q, e1)), render(e1)),
        record("biprojection", "e1*q == e1", render(P.multiply(e1, q)), render(e1)),
    ]
    for colour in range(1, kmax + 1):
        good = 0
        for rep in sub.class_reps(colour):
            image = sub.surround(P.basis_element(colour, rep))
            # the image spreads 1/|C| over each label of the rep's class C
            good += len(image.coeffs) if sub.surround(image) == image else 0
        total = P.dimension(colour)
        records.append(
            record("biprojection", f"surround idempotent at colour {colour}",
                   f"{good} of {total} basis labels", f"{total} of {total} basis labels")
        )
    return records


def biprojection_suite(
    cp: CrossedProduct, k_max: int = 4, samples: int = 40, seed: int = 0
) -> list[dict]:
    """The biprojection facts, each conjugate copy of Theta checked through
    its own average and surround up to k_max, and the surround ranks.

    Many h give the same copy, so each distinct copy is checked once.  The
    rank at a colour is that of the images of the class representatives,
    which span the range, as in :class:`IntermediateAlgebra`."""
    P, theta = cp.product, cp.embedded
    records = biprojection_report(theta, kmax=k_max)
    verified = {theta.members: all(r["pass"] for r in records)}
    for h in range(len(cp.semidirect)):
        sub = theta.conjugate(h)
        if sub.members not in verified:
            verified[sub.members] = all(r["pass"] for r in biprojection_report(sub, kmax=k_max))
        records.append(
            flag("biprojection",
                 f"conjugate copy at h={cp.semidirect.name(h)} verifies identically",
                 verified[sub.members], "verified", "broken")
        )
    for colour in range(1, k_max + 1):
        images = (theta.surround(P.basis_element(colour, rep)) for rep in theta.class_reps(colour))
        records.append(
            record("biprojection", f"surround rank at colour {colour}",
                   str(len(row_reduce(images))), str(len(cp.orbit_reps(colour))))
        )
    return records


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
    inter = functools.cache(lambda: IntermediateAlgebra(cp.embedded, k_max=k_max))
    records: list[dict] = []
    for current in wanted:
        records.extend(_RUNNERS[current](cp, inter, k_max, samples, seed))
    return records


def summarize(records: list[dict]) -> dict:
    failed = sum(1 for r in records if not r["pass"])
    return {"cases": len(records), "failed": failed, "ok": failed == 0}
