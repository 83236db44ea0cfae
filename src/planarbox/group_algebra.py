"""The planar algebra of a finite group, with exact scalars.

Colour-k space: formal combinations of basis symbols S(g_1,...,g_{k-1}) over
group elements, the empty label spanning colours 0 and 1; a closed loop is
worth the square root of the group order.  Products, star, trace and the
generator actions follow the formulas of scripts/solve_base_constants.py,
the Jones element by one spin rule that the script pins at colours 2 to 5.

The product rule at a colour is one object, :class:`_LeftParts`, built
once per algebra and colour and read by :meth:`GroupPlanarAlgebra._merge`,
``multiply``, ``product_structure`` and the crossed product's closed
formulas.  It keeps one pair per left label met, the label's keys and
merged prefixes, two tuples shared with every label of the same tail or
head.  ``multiply`` reads no full index table: at colour 5 over a
group of order 8 it would hold 4096^2 entries; the exhaustive checks build
one with ``product_structure``.

Results the library computes from checked elements (products, star, the
generator actions, sums, differences, scalings and surrounds) are built by
one trusted constructor, :func:`_trusted`, which skips every check: only a
sum of two coefficients can cancel, so the operations that add drop a zero
where they form it; ``PAElement(...)`` keeps every check for outside input.

The biprojections of the algebra are the subgroup averages; each one, with
its surround (the class average of each label), dual surround, conjugates
and cut-down action, is a :class:`SubgroupBiprojection` built on the
algebra it acts in, and keeps only what the subgroup determines.  Tree
evaluation checks its inputs against the root's slot discs, which each
tree node keeps for its life (``discs``).  Values are kept per record, in
the ``last`` dict that ``evaluate`` takes, and per cut-down algebra: its
generator values on basis tuples, and their surrounds, in a
:class:`BasisTable`, whose ``act`` the evaluation takes for its leaves.
The cut-down action reads one such table on every call: a cut-down
algebra's own, or an empty one, which holds nothing and so computes every
value afresh (the crossed product's intertwining check).
``row_reduce`` echelons spans of distinct vectors: one image per class or
orbit, or one dual-surround image per label.  Linear combinations render
through :func:`render_terms`; the report records of every suite are built
by :func:`record` and :func:`flag`.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from .expressions import (
    ComposeExpr,
    GenExpr,
    RenumberExpr,
    TangleExpr,
    realize,
)
from .groups import FiniteGroup
from .scalars import ONE, ZERO, RadicalScalar, canonical_sqrt, pow_half
from .tangles import Disc, alpha

if TYPE_CHECKING:
    import numpy as np

Label = tuple[int, ...]
# the left part of the label rule for one label: its keys and merged
# prefixes, listed down h[0] (see _LeftParts)
_LeftPart = tuple[tuple[Label, ...], tuple[Label, ...]]
# a left factor's coefficient classes, each with the left part of the label
# rule of every label in the class
_LeftClasses = list[tuple[RadicalScalar, list[_LeftPart]]]
# a right factor's coefficient classes, each coefficient times the product
# prefactor, with its labels bucketed by right key h[:m] -> [h[m:]]
_RightClasses = list[tuple[RadicalScalar, dict[Label, list[Label]]]]


class AlgebraError(ValueError):
    """Colour mismatches, unsupported colours, malformed labels."""


class PAElement:
    """A finite combination of basis symbols at one colour.

    Instances are immutable: zero coefficients are dropped on the way in,
    and `coeffs` must never be mutated after construction.  The element
    memoises what :meth:`GroupPlanarAlgebra.multiply` derives from
    `coeffs`: as a left factor, its coefficient classes with the left
    parts of their labels; as a right factor, its coefficient classes
    times the product prefactor, each bucketed by right key.  A mutated
    `coeffs` would be multiplied as its old value, and every identity map
    returns the element itself: :meth:`scale` by 1, ``star`` at colours 0
    and 1, and the surround of a fixed element.  Nothing in the library
    mutates it; build a new element instead.  The shading flag is refused
    above colour 0; at colour 0 it keeps the two one-dimensional spaces
    apart.

    The constructor checks every label, for outside input; results the
    library computes from checked elements are built by :func:`_trusted`.
    """

    __slots__ = ("colour", "shaded", "coeffs", "_left_classes", "_right_classes")

    def __init__(self, colour: int, coeffs: Mapping[Label, RadicalScalar], shaded: bool = False):
        if colour < 0:
            raise AlgebraError("colour must be nonnegative")
        _check_shading(colour, shaded)
        length = max(colour - 1, 0)
        clean: dict[Label, RadicalScalar] = {}
        for label, c in coeffs.items():
            lab = tuple(label)
            if len(lab) != length:
                raise AlgebraError(
                    f"label {lab} has length {len(lab)}, colour {colour} needs {length}"
                )
            if not c.is_zero():
                clean[lab] = c
        self.colour = colour
        self.shaded = bool(shaded)
        self.coeffs = clean
        # filled by GroupPlanarAlgebra.multiply on first use as a left
        # factor: (left parts table, [(coefficient, [left part per label])])
        self._left_classes: tuple[_LeftParts, _LeftClasses] | None = None
        # and on first use as a right factor:
        # (left parts table, [(coefficient * its prefactor, buckets)])
        self._right_classes: tuple[_LeftParts, _RightClasses] | None = None

    def disc(self) -> Disc:
        return Disc(self.colour, self.shaded)

    def coefficient(self, label: Sequence[int]) -> RadicalScalar:
        return self.coeffs.get(tuple(label), ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[Label]:
        return sorted(self.coeffs)

    def _check_compatible(self, other: "PAElement") -> None:
        if self.colour != other.colour or self.shaded != other.shaded:
            raise AlgebraError(
                f"colour mismatch: {self.disc().label()} vs {other.disc().label()}"
            )

    def __add__(self, other: "PAElement") -> "PAElement":
        self._check_compatible(other)
        out = dict(self.coeffs)
        _add_into(out, other.coeffs)
        return _trusted(self.colour, out, self.shaded)

    def __sub__(self, other: "PAElement") -> "PAElement":
        self._check_compatible(other)
        out = dict(self.coeffs)
        _add_into(out, {lab: -c for lab, c in other.coeffs.items()})
        return _trusted(self.colour, out, self.shaded)

    def scale(self, c) -> "PAElement":
        """``c`` times the element; by 1 it is the element itself, which is
        safe because elements are immutable."""
        if not isinstance(c, RadicalScalar):
            c = ONE * c
        if c == ONE:
            return self
        if c.is_zero():
            return _trusted(self.colour, {}, self.shaded)
        return _trusted(self.colour, {lab: v * c for lab, v in self.coeffs.items()}, self.shaded)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PAElement)
            and self.colour == other.colour
            and self.shaded == other.shaded
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"PAElement(colour={self.disc().label()}, terms={len(self.coeffs)})"


def _trusted(colour: int, coeffs: dict[Label, RadicalScalar], shaded: bool = False) -> PAElement:
    """An element built from labels and coefficients the library made
    itself, skipping every check of :class:`PAElement`.

    The labels must be tuples of the colour's length, ``shaded`` must be
    False above colour 0, and no coefficient may be zero.  Only a sum of two
    coefficients can cancel, so the callers that add (``multiply``, ``+``,
    ``-`` and the right cap ``_act_E``) drop a zero sum where they form it,
    through :func:`_accumulate`; the rest copy nonzero coefficients or
    multiply them by nonzero scalars, which in a field gives no zero.
    ``coeffs`` is taken over, not copied.
    """
    x = object.__new__(PAElement)
    x.colour = colour
    x.shaded = shaded
    x.coeffs = coeffs
    x._left_classes = None
    x._right_classes = None
    return x


def _accumulate(out: dict[Label, RadicalScalar], lab: Label, c: RadicalScalar) -> None:
    """Add the nonzero ``c`` at ``lab``, dropping the label if the sum cancels."""
    prev = out.get(lab)
    if prev is None:
        out[lab] = c
    else:
        total = prev + c
        if total.is_zero():
            del out[lab]
        else:
            out[lab] = total


def _add_into(out: dict[Label, RadicalScalar], part: Mapping[Label, RadicalScalar]) -> None:
    """Add the nonzero terms of ``part`` into ``out``, by one update when no
    label meets, else label by label through :func:`_accumulate`."""
    if out.keys().isdisjoint(part):
        out.update(part)
    else:
        for lab, c in part.items():
            _accumulate(out, lab, c)


def _check_shading(colour: int, shaded: bool) -> None:
    """Raise unless the shading flag is off or the colour is 0."""
    if shaded and colour != 0:
        raise AlgebraError(f"shading flag only applies to colour 0, not colour {colour}")


def _check_inputs(inputs: Sequence[PAElement], slots: Sequence[Disc]) -> None:
    """Raise unless there is one input per slot and each lies on its slot's disc."""
    if len(inputs) != len(slots):
        raise AlgebraError(f"expected {len(slots)} input(s), got {len(inputs)}")
    for x, d in zip(inputs, slots):
        if x.colour != d.colour or x.shaded != d.shaded:
            raise AlgebraError(f"input colour {x.disc().label()} does not fit slot {d.label()}")


def record(suite: str, case: str, lhs: str, rhs: str) -> dict:
    """One report record: the two rendered sides of a checked identity."""
    return {"suite": suite, "case": case, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs}


def flag(suite: str, case: str, ok: bool, good: str, bad: str) -> dict:
    """A record for a check that only says whether it held."""
    return record(suite, case, good if ok else bad, good)


def coefficient_classes(x: PAElement) -> list[tuple[RadicalScalar, list[Label]]]:
    """The support of ``x`` grouped by coefficient value."""
    classes: dict[RadicalScalar, list[Label]] = {}
    for lab, c in x.coeffs.items():
        classes.setdefault(c, []).append(lab)
    return list(classes.items())


class SubgroupBiprojection:
    """The biprojection of a subgroup K of the group of a planar algebra,
    with its surrounds.

    Biprojections of a group subfactor are exactly the subgroup averages
    (Bisch, *A note on intermediate subfactors*), so ``algebra`` and K
    determine everything the cut-down algebra needs.  The surround spreads
    a label over K on the right of every slot and on the left of all slots,
    ``S(h_1..h_{c-1}) -> |K|^-c sum_{t, k_i in K} S(t h_1 k_1, ..., t h_{c-1} k_{c-1})``.
    By orbit-stabilizer the ``|K|^c`` tuples ``(t, k)`` hit every label of
    the class of ``h`` under ``h -> t h k`` equally often, so the surround
    of a label is its class average: every label of the class with
    coefficient ``1/|class|``; the empty label of colours 0 and 1 is a
    class of one.  One table maps each label met to its class's entry,
    shared by every label of the class: the least label, the labels and
    ``1/|class|``.  The least labels at a colour, listed by
    :meth:`class_reps`, index the range: their images span it, so the
    cut-down bases and the biprojection suite's checks read one image per
    class.  The surround owns fixedness: an element is in the range exactly
    when ``surround(x) is x``, the test of membership and of the crossed
    product's restriction.  The two idempotence checks, of the cut-down
    bases and of the biprojection suite, compare an image with its own
    surround by value instead.

    Everything it keeps is a function of ``algebra`` and K: the class
    table, one entry per label of each class met.  It keeps no values;
    those of a cut-down algebra live in its :class:`BasisTable`.
    """

    __slots__ = ("algebra", "members", "_classes")

    def __init__(self, algebra: GroupPlanarAlgebra, members: Iterable[int]):
        group = algebra.group
        inside = frozenset(members)
        table = group.table
        if not inside or not inside <= set(group.elements()) or any(
            table[a][b] not in inside for a in inside for b in inside
        ):
            raise AlgebraError("members do not form a subgroup")
        self.algebra = algebra
        self.members = tuple(sorted(inside))
        # label -> its class's entry (least label, labels, 1/|class|)
        self._classes: dict[Label, tuple[Label, list[Label], RadicalScalar]] = {}

    @property
    def order(self) -> int:
        return len(self.members)

    def conjugate(self, h: int) -> SubgroupBiprojection:
        """The biprojection of the conjugate subgroup ``h K h^-1``."""
        op, inv = self.algebra.group.op, self.algebra.group.inv
        return SubgroupBiprojection(self.algebra, (op(op(h, k), inv(h)) for k in self.members))

    def average(self) -> PAElement:
        """The colour-2 average ``|K|^-1 sum_{k in K} S(k)``."""
        c = RadicalScalar.rational(Fraction(1, self.order))
        return PAElement(2, {(k,): c for k in self.members})

    def act(self, expr: TangleExpr, inputs: Sequence[PAElement], table: BasisTable) -> PAElement:
        """The cut-down action of a tree, for the cut-down algebra and the
        crossed product alike: the surround of its value, times ``alpha(T)``
        at the ratio ``|K|``.  Inputs are not checked for membership.  The
        leaves act, and the value is surrounded, through ``table``, a
        :class:`BasisTable` of this subgroup: a cut-down algebra's reads its
        leaf values and surrounds instead of recomputing them, and an empty
        one computes them all afresh.  The weight is read off the realized
        tangle, whose generator diagrams and loop counts
        :mod:`~planarbox.tangles` keeps."""
        value = table.surround(self.algebra.evaluate(expr, inputs, table.act))
        return value.scale(alpha(realize(expr), self.order))

    def surround(self, x: PAElement) -> PAElement:
        """The class average of ``x``: the input weight of each class is
        gathered, and every label of the class gets ``weight / |class|``.

        The weight of a class is gathered in integers, as ``multiply``
        gathers its hits: the input labels of the class are counted per
        distinct coefficient, and the weight is the sum of ``c * count``,
        one field product per count above 1.  A weight of 1 gives each label
        ``1/|class|`` itself.  A class whose weight cancels is left out.

        A fixed element is its own surround, returned as the very object,
        at every colour: ``x`` is fixed exactly when every class it meets
        carries one coefficient on all of its labels, which the gathered
        counts show with no comparison of elements.  The empty label is a
        class of its own, so every element at colour 0 or 1, the zero
        element and a shaded one included, comes back as itself.  Membership
        and the crossed product's restriction test fixedness by asking
        ``surround(x) is x``; the idempotence checks of the cut-down bases
        and of the biprojection suite compare ``surround(x)`` with ``x`` by
        value."""
        classes = self._classes
        # least label of a class -> its input coefficients, each with the
        # number of input labels that carry it
        gathered: dict[Label, dict[RadicalScalar, int]] = {}
        for label, c in x.coeffs.items():
            entry = classes.get(label) or self._class(label)
            counts = gathered.get(entry[0])
            if counts is None:
                gathered[entry[0]] = {c: 1}
            else:
                counts[c] = counts.get(c, 0) + 1
        if all(
            len(counts) == 1 and len(classes[least][1]) in counts.values()
            for least, counts in gathered.items()
        ):
            return x
        acc: dict[Label, RadicalScalar] = {}
        for least, counts in gathered.items():
            weight = sum((c * k if k > 1 else c for c, k in counts.items()), ZERO)
            if not weight.is_zero():
                _, labels, inverse_size = classes[least]
                share = inverse_size if weight == ONE else weight * inverse_size
                acc.update(dict.fromkeys(labels, share))
        return _trusted(x.colour, acc)

    def class_reps(self, colour: int) -> Iterator[Label]:
        """The least label of each class at a colour, in ascending order,
        read off the class table: one label per class spans the range."""
        for label in self.algebra.basis_labels(colour):
            if (self._classes.get(label) or self._class(label))[0] == label:
                yield label

    def _class(self, label: Label) -> tuple[Label, list[Label], RadicalScalar]:
        """The entry of the class of ``label`` under ``h -> t h k``, written
        into the table for every label of the class.  For each ``t`` the
        class holds the product of the cosets ``t h_i K``; two ``t`` give
        equal or disjoint products, so a ``t`` whose moved label is already
        enumerated adds nothing."""
        table, members = self.algebra.group.table, self.members
        found: dict[Label, None] = {}
        for t in members:
            moved = tuple(table[t][h] for h in label)
            if moved not in found:
                cosets = [[table[h][k] for k in members] for h in moved]
                found.update(dict.fromkeys(itertools.product(*cosets)))
        labels = list(found)
        entry = (min(labels), labels, RadicalScalar.rational(Fraction(1, len(labels))))
        self._classes.update(dict.fromkeys(labels, entry))
        return entry

    def dual_surround(self, x: PAElement) -> PAElement:
        """Keep exactly the labels with every entry in K."""
        inside = self.members
        kept = {lab: c for lab, c in x.coeffs.items() if all(h in inside for h in lab)}
        return _trusted(x.colour, kept, x.shaded)


class _LeftParts(dict):
    """The product rule at one colour, built once per algebra.

    Label ``g`` -> left part of the label rule for ``S(g)``: a pair
    ``(keys, prefixes)`` of two tuples of ``n`` labels, listed down ``h0``.
    With ``m = (colour + 1) // 2``, ``S(g) S(h)`` is nonzero exactly when
    ``h[:m] == keys[h[0]]``, and then it is ``prefactor = sqrt(n)^(m-1)``
    times the symbol of ``prefixes[h[0]]`` followed by ``h[m:]``.  At colour
    2 the key is ``(h0,)`` and the prefix ``(g[0] * h0,)``; above it key
    entry ``i >= 1`` is ``h0 * g[colour-1-i]`` and prefix entry ``j`` is
    ``h0 * g[j]``.  So the keys depend only on ``g[colour-m:colour-1]`` and
    the prefixes only on ``g[:m]``: each tuple of n keys or n prefixes is
    built once and shared by every pair that reads it, at most ``n^(m-1)``
    key tuples and ``n^m`` prefix tuples per colour, both within the
    colour's dimension.  Colours 0 and 1 have one pair, ``(((),), ((),))``,
    for the empty label.  Entries are computed on first lookup, so the
    table holds one pair per left label in use.
    """

    __slots__ = ("rows", "columns", "colour", "m", "prefactor", "_keys", "_prefixes")

    def __init__(self, table: Sequence[Sequence[int]], colour: int):
        super().__init__()
        self.rows = table
        self.columns = tuple(zip(*table))  # columns[g][h0] = h0 * g
        self.colour = colour
        self.m = (colour + 1) // 2
        self.prefactor = pow_half(len(table), max(self.m - 1, 0))
        # g[colour-m:colour-1] -> the keys, g[:m] -> the merged prefixes
        self._keys: dict[Label, tuple[Label, ...]] = {}
        self._prefixes: dict[Label, tuple[Label, ...]] = {}

    def __missing__(self, g: Label) -> _LeftPart:
        colour, m = self.colour, self.m
        if colour <= 1:
            parts = (((),), ((),))
        else:
            head = g[:m]
            prefixes = self._prefixes.get(head)
            if prefixes is None:
                lines = [self.rows[g[0]]] if colour == 2 else [self.columns[a] for a in head]
                prefixes = self._prefixes[head] = tuple(zip(*lines))
            read = g[colour - m : colour - 1]
            keys = self._keys.get(read)
            if keys is None:
                lines = [self.columns[a] for a in reversed(read)]
                keys = self._keys[read] = tuple(zip(range(len(self.rows)), *lines))
            parts = (keys, prefixes)
        self[g] = parts
        return parts


class BasisTable:
    """Values on the basis of one cut-down algebra, kept for its life.

    The cut-down algebra (:class:`~planarbox.intermediate.IntermediateAlgebra`)
    owns the table and fills it on first use.  It keeps two kinds of value:

    * the ambient value of each generator leaf whose inputs are all basis
      elements of the algebra, read by the evaluator, which takes
      :meth:`act` as its leaf action;
    * the surround of each basis element and of each such value.

    Nothing else is kept: a leaf on any other input, an internal node, or
    the surround of any other element is computed afresh, so values built
    from table values never enter it.  The table thus holds at most
    ``sum over generators with every colour <= k_max of prod dim(slot
    colour)`` leaf entries, plus one surround per basis element and per
    leaf entry.  A fixed element comes back as its own surround at every
    colour, so the surround of a basis element is that element, and a leaf
    on it reads the table too.  An empty table, on no basis, acts and
    surrounds everything afresh: the crossed product's intertwining check
    gives :meth:`SubgroupBiprojection.act` one.

    Only pure functions of immutable inputs are kept, keyed by the ``id`` of
    their inputs: ``leaves`` maps ``(generator, *input ids)`` to the value
    and ``surrounds`` maps an ``id`` to the surround.  Every ``id`` keyed on
    is that of an object the table holds, a basis element in ``members`` or
    a leaf value in ``values``, and membership is checked before keying, so
    no other live object can have that ``id`` and a hit needs no ``is``
    check.
    """

    __slots__ = ("subgroup", "k_max", "members", "leaves", "values", "surrounds")

    def __init__(self, subgroup: SubgroupBiprojection, k_max: int, basis: Iterable[PAElement]):
        self.subgroup = subgroup
        self.k_max = k_max
        # id -> basis element
        self.members: dict[int, PAElement] = {id(b): b for b in basis}
        # (generator, *input ids) -> value
        self.leaves: dict[tuple, PAElement] = {}
        # id -> a value held by a leaf entry
        self.values: dict[int, PAElement] = {}
        # id of a member or a value -> its surround
        self.surrounds: dict[int, PAElement] = {}

    def act(self, gen: GenExpr, inputs: Sequence[PAElement]) -> PAElement:
        """The action of one generator on inputs that fit its slots, read
        from the table when every input is a basis element."""
        members = self.members
        algebra = self.subgroup.algebra
        for x in inputs:
            if members.get(id(x)) is not x:
                return algebra._act(gen, inputs)
        key = (gen, *map(id, inputs))
        value = self.leaves.get(key)
        if value is None:
            value = algebra._act(gen, inputs)
            if gen.discs[0].colour <= self.k_max:
                self.leaves[key] = value
                self.values[id(value)] = value
        return value

    def surround(self, x: PAElement) -> PAElement:
        """The subgroup's surround of ``x``, read from the table for a basis
        element or a leaf value.  :meth:`SubgroupBiprojection.surround`
        returns a fixed element itself at every colour, so a held fixed
        element is its own entry; no element is compared."""
        key = id(x)
        out = self.surrounds.get(key)
        if out is None:
            out = self.subgroup.surround(x)
            if self.members.get(key) is x or self.values.get(key) is x:
                self.surrounds[key] = out
        return out


def row_reduce(vectors: Iterable[PAElement]) -> list[PAElement]:
    """Echelon basis of the span of the given vectors, exact arithmetic.

    Pivots are the lexicographically least labels; each returned vector is
    normalized to leading coefficient 1 and the list is sorted by pivot.
    Each vector subtracts at the least pivot label left in its support
    until none is left.  The loop ends: a pivot's least label is its own,
    so a subtraction clears that label and brings in only larger ones.  A
    vector whose support meets no pivot costs one scan of it; one in the
    span of those before it, a repeat say, reduces to zero and is skipped.
    The suites feed distinct vectors: class images, transport images of
    distinct orbit representatives, and dual-surround images, each a
    basis element or zero.
    """
    pivots: dict[Label, PAElement] = {}
    for v in vectors:
        while (lab := min(filter(pivots.__contains__, v.coeffs), default=None)) is not None:
            v = v - pivots[lab].scale(v.coeffs[lab])
        if v.is_zero():
            continue
        lead = min(v.coeffs)
        pivots[lead] = v.scale(v.coefficient(lead).invert())
    return [pivots[lab] for lab in sorted(pivots)]


class GroupPlanarAlgebra:
    """All colour spaces of one group, and the operations between them."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.delta = canonical_sqrt(group.order)
        self._inv_delta = self.delta.invert()
        # colour -> label -> left part of the label rule; bounded by the
        # basis labels in use
        self._left_cache: dict[int, _LeftParts] = {}
        # colour -> label -> tr(S(label)); bounded the same way
        self._trace_cache: dict[int, dict[Label, RadicalScalar]] = {}

    # --- construction helpers -------------------------------------------

    def basis_element(self, colour: int, label: Sequence[int] = (), shaded: bool = False) -> PAElement:
        return PAElement(colour, {tuple(label): ONE}, shaded)

    def basis_labels(self, colour: int) -> Iterable[Label]:
        return itertools.product(self.group.elements(), repeat=max(colour - 1, 0))

    def dimension(self, colour: int) -> int:
        return self.group.order ** max(colour - 1, 0)

    def unit(self, colour: int, shaded: bool = False) -> PAElement:
        """The unit of a colour: the inclusion of the unit one colour down,
        starting from the empty diagram at colour 0."""
        _check_shading(colour, shaded)
        if colour == 0:
            return PAElement(0, {(): ONE}, shaded)
        return self._act_I(colour - 1, self.unit(colour - 1))

    def jones_element(self, colour: int) -> PAElement:
        """The Jones element at colour ``c >= 2``, by the spin rule of Jones,
        *Planar algebras I* (arXiv math/9909027).  A label holds the spins of
        the black regions ``B_1, B_3, ..., [R], ..., T_3`` relative to
        ``T_1``'s (``T_i``, ``B_i`` between top, bottom points i and i+1;
        ``R`` the right side, at odd c).  The element sums the labels with
        ``T_i = B_i`` for odd ``i < c-2``, and at odd c also ``T_{c-2} = R =
        B_{c-2}``, times ``sqrt(n)^-(c/2 + 1)`` at even c and
        ``sqrt(n)^-((c-1)/2)`` at odd c, building one spin per tie class."""
        if colour < 2:
            raise AlgebraError("the Jones element needs colour >= 2")
        half, odd = divmod(colour, 2)
        # spins in label order: T_{2j-1}, and B_{2j-1} for j < half, have spin
        # j-1 (T_1's is the identity); the last B has spin half at even colour
        top = list(range(half))
        regions = top[:-1] + [top[-1] if odd else half] + top[-1:] * odd + top[:0:-1]
        c = pow_half(self.group.order, odd - half - 1)
        spins = itertools.product(self.group.elements(), repeat=half - odd)
        return _trusted(colour, {tuple(((0,) + s)[r] for r in regions): c for s in spins})

    # --- ring structure --------------------------------------------------

    def _left_parts(self, colour: int) -> "_LeftParts":
        """The product rule at one colour (see :meth:`_merge`), built once."""
        parts = self._left_cache.get(colour)
        if parts is None:
            parts = self._left_cache[colour] = _LeftParts(self.group.table, colour)
        return parts

    def _merge(self, colour: int, g: Label, h: Label) -> Label | None:
        """The label of the basis product S(g) S(h), or None when it vanishes.

        Colours 0 and 1 have only the empty label and colour 2 is the group
        ring.  From colour 3 on, with ``m = (colour + 1) // 2``, the product
        is nonzero exactly when ``h[i-1] == h[0]*g[colour-i]`` for
        ``i = 2..m``, and its label is ``(h[0]*g[0], ..., h[0]*g[m-1])``
        followed by ``h[m:]``.  The rule is split in two: the left part of
        ``g`` (:class:`_LeftParts`) lists the admissible ``h[:m]`` and their
        merged prefixes down ``h[0]``, and the right part of ``h`` is
        ``(h[:m], h[m:])``.  Each key starts with its ``h[0]``, so
        ``keys[h[0]]`` is the only one that can equal ``h[:m]``.
        """
        parts = self._left_parts(colour)
        keys, prefixes = parts[g]
        i = h[0] if h else 0
        m = parts.m
        return prefixes[i] + h[m:] if keys[i] == h[:m] else None

    def multiply(self, x: PAElement, y: PAElement) -> PAElement:
        """The product ``x y``, at most one field product per pair of
        coefficient classes and per distinct hit count.

        Labels of equal coefficient form a class.  Each class of ``y`` is
        bucketed by the right part of the label rule, ``h[:m] -> [h[m:]]``,
        and each label ``g`` of a class of ``x`` meets a bucket only through
        its left part, walking its ``n`` keys and merged prefixes in step, so
        no pair of terms is visited that does not merge.  The class pair's
        coefficient ``cg * (ch * prefactor)`` is formed only for a pair that
        hits; a left class with ``cg == 1`` takes ``ch * prefactor`` as is.

        A left class of one label counts nothing.  For a fixed ``g`` the
        merged label determines ``h`` (its prefix gives ``h[0]``, its tail
        ``h[m:]``, and the key the rest), so no label is hit twice, across
        all right classes too: each hit writes the coefficient straight into
        one part, added to the result once per left class, and into the
        result itself when ``x`` has that one class alone.  This is the path
        of every basis product.  A class of two or more labels counts the
        hits of each right class with plain integers, and each hit label
        takes the coefficient times its count, one field product per
        distinct count above 1.  Parts are added into the result only where
        two meet, and a sum that cancels is dropped there.

        ``m`` and the prefactor are read off the colour's
        :class:`_LeftParts` table.  The bucketed classes of ``y``, each
        coefficient already times the prefactor, and the classes of ``x``,
        each with the left parts of its labels, are built once per element
        and kept on it with that table (see :class:`PAElement`); a factor
        used again is regrouped only against another algebra's table.
        """
        x._check_compatible(y)
        colour = x.colour
        left_parts = self._left_parts(colour)
        memo = x._left_classes
        if memo is not None and memo[0] is left_parts:
            x_classes = memo[1]
        else:
            x_classes = [(cg, [left_parts[g] for g in gs]) for cg, gs in coefficient_classes(x)]
            x._left_classes = (left_parts, x_classes)
        memo = y._right_classes
        if memo is not None and memo[0] is left_parts:
            y_classes = memo[1]
        else:
            m, pref = left_parts.m, left_parts.prefactor
            y_classes = []
            for ch, hs in coefficient_classes(y):
                buckets: dict[Label, list[Label]] = {}
                for h in hs:
                    buckets.setdefault(h[:m], []).append(h[m:])
                y_classes.append((ch * pref, buckets))
            y._right_classes = (left_parts, y_classes)
        out: dict[Label, RadicalScalar] = {}
        single = len(x_classes) == 1
        for cg, lefts in x_classes:
            unit = cg == ONE
            if len(lefts) == 1:
                # one left label: the rule is one-to-one in h, so no label is
                # hit twice, across every right class too
                keys, prefixes = lefts[0]
                part = out if single else {}
                for chp, buckets in y_classes:
                    term = None
                    for key, prefix in zip(keys, prefixes):
                        tails = buckets.get(key)
                        if tails is not None:
                            if term is None:
                                term = chp if unit else cg * chp
                            for tail in tails:
                                part[prefix + tail] = term
                if not single:
                    _add_into(out, part)
                continue
            for chp, buckets in y_classes:
                hits: dict[Label, int] = {}
                for keys, prefixes in lefts:
                    for key, prefix in zip(keys, prefixes):
                        tails = buckets.get(key)
                        if tails is not None:
                            for tail in tails:
                                lab = prefix + tail
                                hits[lab] = hits.get(lab, 0) + 1
                if hits:
                    term = chp if unit else cg * chp
                    counts = set(hits.values())
                    if counts == {1}:
                        _add_into(out, dict.fromkeys(hits, term))
                    else:
                        multiples = {k: term * k if k > 1 else term for k in counts}
                        _add_into(out, {lab: multiples[k] for lab, k in hits.items()})
        return _trusted(colour, out, x.shaded)

    def star(self, x: PAElement) -> PAElement:
        """The adjoint: ``S(g_1..g_{c-1}) -> S(g_1^-1, g_1^-1 g_{c-1}, ..., g_1^-1 g_2)``,
        a bijection of labels; at colours 0 and 1 it is the identity and
        returns ``x`` itself."""
        if x.colour <= 1:
            return x
        inv, rows = self.group.inv, self.group.table
        tail = range(x.colour - 2, 0, -1)
        out: dict[Label, RadicalScalar] = {}
        for lab, c in x.coeffs.items():
            first = inv(lab[0])
            row = rows[first]
            out[(first,) + tuple(row[lab[j]] for j in tail)] = c
        return _trusted(x.colour, out)

    def trace(self, x: PAElement) -> RadicalScalar:
        """``tr(x) = sum c * tr(S(label))`` by linearity, each basis trace
        read from the memo of its colour (filled by :meth:`_basis_trace`),
        which holds only the labels traced."""
        memo = self._trace_cache.get(x.colour)
        if memo is None:
            memo = self._trace_cache[x.colour] = {}
        total = ZERO
        for lab, c in x.coeffs.items():
            t = memo.get(lab)
            if t is None:
                t = memo[lab] = self._basis_trace(x.colour, lab)
            if not t.is_zero():
                total = total + c * t
        return total

    def _basis_trace(self, colour: int, label: Label) -> RadicalScalar:
        """``tr(S(label))``: cap the strings one colour at a time with ``E``
        (:meth:`_cap`), dividing each closed loop by ``delta``, down to
        colour 1.  Each cap maps one label to one label or to zero, so the
        walk carries one label and the power of ``delta`` it has collected."""
        exponent = 0
        for k in range(colour - 1, 0, -1):
            capped = self._cap(k, label)
            if capped is None:
                return ZERO
            label, e = capped
            exponent += e - 1
        return pow_half(self.group.order, exponent)

    def inner(self, x: PAElement, y: PAElement) -> RadicalScalar:
        """The trace pairing tr(y* x)."""
        return self.trace(self.multiply(self.star(y), x))

    # --- generator actions -----------------------------------------------

    def _cap(self, target: int, g: Label) -> tuple[Label, int] | None:
        """The right cap ``E`` of one symbol ``S(g)`` one colour down to
        ``target``: ``delta**e * S(label)`` as ``(label, e)``, or None when
        it vanishes."""
        if target == 0:
            return (), 1
        if target == 1:
            return ((), 1) if g[0] == 0 else None
        if target == 2:
            return (self.group.inv(g[0]),), 0
        if target % 2 == 0:
            return g[: target // 2] + g[target // 2 + 1 :], 0
        m = (target + 1) // 2
        return (g[:m] + g[m + 1 :], 1) if g[m - 1] == g[m] else None

    def _act_E(self, target: int, x: PAElement) -> PAElement:
        out: dict[Label, RadicalScalar] = {}
        for g, cg in x.coeffs.items():
            capped = self._cap(target, g)
            if capped is not None:
                lab, e = capped
                _accumulate(out, lab, cg * self.delta if e else cg)
        return _trusted(target, out)

    def _act_I(self, source: int, x: PAElement) -> PAElement:
        """The inclusion one colour up.  No two terms meet: deleting the
        entry it inserts (at index ``source // 2``, or ``m`` at an odd
        source) gives back the input label, inverted at source 2, so each
        label is written at most once."""
        n = self.group.order
        out: dict[Label, RadicalScalar] = {}
        for g, cg in x.coeffs.items():
            if source == 0:
                out[()] = cg
            elif source == 1:
                out[(0,)] = cg
            elif source % 2 == 0:
                # S(g) S(h) = S(gh) at colour 2, the reverse of the label
                # order at colours 3 and up, so colour 2 includes S(g^-1)
                head = (self.group.inv(g[0]),) if source == 2 else g[: source // 2]
                spread = cg * self._inv_delta
                for u in range(n):
                    out[head + (u,) + g[source // 2 :]] = spread
            else:
                m = (source + 1) // 2
                out[g[:m] + (g[m - 1],) + g[m:]] = cg
        return _trusted(source + 1, out)

    def _act_Eprime(self, colour: int, x: PAElement) -> PAElement:
        """``delta`` times the labels with ``g[0] = 0``, or the one colour-1 label."""
        delta = self.delta
        kept = {g: c * delta for g, c in x.coeffs.items() if colour == 1 or g[0] == 0}
        return _trusted(colour, kept)

    def act_generator(self, gen: GenExpr, inputs: Sequence[PAElement]) -> PAElement:
        """The action of one generator, its inputs checked against its slots."""
        _check_inputs(inputs, gen.discs[1])
        return self._act(gen, inputs)

    def _act(self, gen: GenExpr, inputs: Sequence[PAElement]) -> PAElement:
        """The action of one generator on inputs that fit its slots, by kind."""
        kind = gen.kind
        if kind == "M":
            return self.multiply(inputs[0], inputs[1])
        if kind == "id":
            return inputs[0]
        if kind == "E":
            return self._act_E(gen.k, inputs[0])
        if kind == "I":
            return self._act_I(gen.k, inputs[0])
        if kind == "Eprime":
            return self._act_Eprime(gen.k, inputs[0])
        if kind == "jones":
            return self.jones_element(gen.k).scale(self.delta)
        if kind == "unit":
            return PAElement(0, {(): ONE}, gen.shaded)
        raise AlgebraError(f"unknown generator kind {kind!r}")

    def evaluate(
        self,
        expr: TangleExpr,
        inputs: Sequence[PAElement],
        act: Callable[[GenExpr, Sequence[PAElement]], PAElement] | None = None,
        last: dict[int, tuple[TangleExpr, tuple[PAElement, ...], PAElement]] | None = None,
    ) -> PAElement:
        """The value of a tree on its inputs.

        The inputs are checked once, against the root's slot discs, which
        the tree checks on their first read (``discs``).  Every
        generator maps inputs that fit its slots to a value on its external
        disc, and a validated tree feeds each slot a value on that slot's
        disc, so the leaves act through ``act`` with no check of their own:
        :meth:`_act` by default, or a cut-down algebra's
        :meth:`BasisTable.act`, which reads its generator values on basis
        tuples from the table.

        ``last`` maps ``id(node)`` to the node, its inputs and its value at
        its last evaluation.  A node's value depends only on its own slice
        of the inputs, so a node that sees the very same input objects again
        (``is``) returns its last value.  An entry holds its node and
        inputs, so their ``id``s cannot be reused while it lives, and one
        entry per node bounds the memory by the tree size.  Pass one dict to
        every call of a record that evaluates the same trees on the same
        input objects, and mutate no input while it is in use; without one,
        the call gets a fresh dict of its own.
        """
        _check_inputs(inputs, expr.discs[1])
        last = {} if last is None else last
        return self._evaluate(expr, list(inputs), last, act or self._act)

    def _evaluate(
        self,
        expr: TangleExpr,
        inputs: list[PAElement],
        last: dict[int, tuple[TangleExpr, tuple[PAElement, ...], PAElement]],
        act: Callable[[GenExpr, Sequence[PAElement]], PAElement],
    ) -> PAElement:
        seen = last.get(id(expr))
        if seen is not None and all(map(operator.is_, seen[1], inputs)):
            return seen[2]
        if isinstance(expr, GenExpr):
            value = act(expr, inputs)
        elif isinstance(expr, ComposeExpr):
            i = expr.slot
            b = len(expr.inner.discs[1])
            before = inputs[: i - 1]
            inner_val = self._evaluate(expr.inner, inputs[i - 1 : i - 1 + b], last, act)
            after = inputs[i - 1 + b :]
            value = self._evaluate(expr.outer, before + [inner_val] + after, last, act)
        elif isinstance(expr, RenumberExpr):
            permuted = [inputs[expr.perm[i] - 1] for i in range(len(inputs))]
            value = self._evaluate(expr.inner, permuted, last, act)
        else:
            raise AlgebraError(f"cannot evaluate {type(expr).__name__}")
        last[id(expr)] = (expr, tuple(inputs), value)
        return value

    # --- bulk structure for exhaustive checks ----------------------------

    def product_structure(self, colour: int) -> tuple[np.ndarray, list[Label], RadicalScalar]:
        """Basis products at a colour as ``(table, labels, prefactor)``.

        At a fixed colour every product of two basis symbols is either zero
        or a single symbol times one shared prefactor, so the whole
        multiplication is captured by one ``int32`` matrix: entry (i, j) is
        the index in ``labels`` of the product symbol, or -1 for zero.  The
        labels are bucketed by their right part ``h[:m]`` and each left
        label's keys and merged prefixes, walked in step, meet those
        buckets, the split :meth:`multiply` uses, so only the nonzero pairs
        are visited, with the table's ``m`` and
        prefactor; that ``multiply`` applies the prefactor to every pair is
        for the caller to check (``base_algebra_report`` compares
        ``multiply`` with this table on every pair).
        """
        import numpy as np

        labels = list(self.basis_labels(colour))
        index = {lab: i for i, lab in enumerate(labels)}
        left_parts = self._left_parts(colour)
        m = left_parts.m
        buckets: dict[Label, list[tuple[int, Label]]] = {}
        for j, h in enumerate(labels):
            buckets.setdefault(h[:m], []).append((j, h[m:]))
        table = np.full((len(labels), len(labels)), -1, dtype=np.int32)
        for i, g in enumerate(labels):
            cols: list[int] = []
            merged: list[int] = []
            for key, prefix in zip(*left_parts[g]):
                for j, tail in buckets.get(key, ()):
                    cols.append(j)
                    merged.append(index[prefix + tail])
            table[i, cols] = merged
        return table, labels, left_parts.prefactor

    # --- rendering --------------------------------------------------------

    def label_symbol(self, colour: int, label: Label, shaded: bool = False) -> str:
        if colour == 0:
            return "1[0-]" if shaded else "1[0+]"
        if colour == 1:
            return "1[1]"
        names = ",".join(self.group.name(g) for g in label)
        return f"S({names})"

    def render(self, x: PAElement) -> str:
        return render_terms(
            ((self.label_symbol(x.colour, lab, x.shaded), x.coeffs[lab]) for lab in x.support()),
            RadicalScalar.render,
        )


def render_terms(
    terms: Iterable[tuple[str, RadicalScalar]], scalar: Callable[[RadicalScalar], str]
) -> str:
    """A linear combination of ``(symbol, coefficient)`` pairs, in the order
    given, each nonzero coefficient rendered by ``scalar``: ``1`` and ``-1``
    leave the bare symbol and its negation, and a sum is parenthesized.  No
    terms render as ``0``."""
    parts = []
    for sym, c in terms:
        text = scalar(c)
        if text == "1":
            parts.append(sym)
        elif text == "-1":
            parts.append(f"-{sym}")
        elif " " in text:
            parts.append(f"({text})*{sym}")
        else:
            parts.append(f"{text}*{sym}")
    return " + ".join(parts) if parts else "0"
