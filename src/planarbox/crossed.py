"""Crossed-product structure over a group planar algebra.

A faithful action of a finite group Theta on a finite group G gives the
semidirect product H = G x| Theta.  Inside the labelled algebra of H two
families of elements matter here: sums of basis labels over a diagonal
Theta-orbit (living in the algebra of G), and the fatter "twist" sums
where every tensor slot is additionally averaged over Theta (living in
the algebra of H).  Both families multiply by closed formulas, and a
rescaling transports one family onto the other.  The biprojection is the
average of the embedded copy {(1, t)} of Theta, one
:class:`~planarbox.group_algebra.SubgroupBiprojection` of the algebra of H
like any other subgroup's.  Its surround takes each label to the class
average over ``h -> t h k`` (``t``, ``k_i`` in Theta), so its range is
spanned by the twist sums.  This module implements the two families and
their closed-form products, and the transport map together with its
generator-intertwining checks; the checks of the biprojection itself, and
its conjugates, belong to the subgroup.  Each family has one builder, the
combination ``sum c * sum(label)`` over a dict of components
(``_orbit_combination``, ``_twist_combination``), through which the sums,
the closed-form products and ``transport`` go, and one reader:
``invariant_components`` walks the orbits of an element of G's algebra,
deciding invariance as it goes, and ``_restrict`` un-embeds a fixed
element of H's algebra onto its labels ``(g_i, 1)``.  The restriction
of a twist sum is the orbit sum of its label, so ``twist_components``
reads the orbit components of the restriction, and ``transport_inverse``
is the restriction, rescaled.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence

from .expressions import GenExpr
from .group_algebra import (
    AlgebraError,
    BasisTable,
    GroupPlanarAlgebra,
    Label,
    PAElement,
    SubgroupBiprojection,
    record,
)
from .groups import (
    GroupAction,
    SemidirectGroup,
    orbit_of,
    orbit_representatives,
)
from .scalars import ONE, ZERO, RadicalScalar, pow_half


class CrossedProduct:
    """Both planar algebras attached to an action, with the maps between them.

    ``base`` is the labelled algebra of the acted-on group G and ``product``
    the labelled algebra of the semidirect product H.  All colour/label
    conventions are inherited from :class:`GroupPlanarAlgebra`.
    """

    __slots__ = (
        "action",
        "group",
        "semidirect",
        "base",
        "product",
        "embedded",
    )

    def __init__(self, action: GroupAction):
        self.action = action
        self.group = action.group
        self.semidirect = SemidirectGroup(action)
        self.base = GroupPlanarAlgebra(self.group)
        self.product = GroupPlanarAlgebra(self.semidirect)
        # the biprojection of the embedded copy {(1, t)} of Theta
        self.embedded = SubgroupBiprojection(
            self.product, [self.semidirect.index(0, t) for t in range(self.theta_order)]
        )

    @property
    def theta_order(self) -> int:
        return self.semidirect.theta_order

    # ------------------------------------------------------------------
    # orbit sums in the algebra of G

    def orbit_reps(self, colour: int) -> list[Label]:
        """Lexicographically least representatives of Theta on G^(colour-1)."""
        if colour < 1:
            raise AlgebraError("orbit bases exist for colour >= 1 only")
        return orbit_representatives(self.action, colour - 1)

    def orbit_sum(self, colour: int, label: Sequence[int]) -> PAElement:
        """Sum of S(theta(label)) over theta, an invariant element of colour k.

        The sum is taken with multiplicity, so a label with a nontrivial
        stabilizer picks up the stabilizer order as a coefficient.
        """
        label = tuple(label)
        if len(label) != max(colour - 1, 0):
            raise AlgebraError(
                f"label length {len(label)} does not match colour {colour}"
            )
        return self._orbit_combination(colour, {label: ONE})

    def _orbit_combination(self, colour: int, comps: dict[Label, RadicalScalar]) -> PAElement:
        """``sum c * orbit_sum(colour, label)`` over ``comps``, built in one
        coefficient dict: the twin of :meth:`_twist_combination`.  A sum that
        cancels is dropped by the constructor."""
        apply = self.action.apply_tuple
        coeffs: dict[Label, RadicalScalar] = {}
        for label, c in comps.items():
            for t in range(self.theta_order):
                moved = apply(t, label)
                coeffs[moved] = coeffs.get(moved, ZERO) + c
        return PAElement(colour, coeffs)

    def invariant_components(self, x: PAElement) -> dict[Label, RadicalScalar]:
        """Decompose an invariant element over the orbit sums.

        Returns coefficients keyed by orbit representative, so that x equals
        the sum of ``coeff * orbit_sum(rep)``.  One walk over the support
        builds each orbit once, from the first of its labels met, and
        requires every label of the orbit to carry that label's
        coefficient: x is invariant exactly when every orbit it meets does,
        and otherwise this raises.  The coefficient is divided by the
        stabilizer order ``|Theta| / |orbit|``.
        """
        comps: dict[Label, RadicalScalar] = {}
        found: set[Label] = set()
        for label in x.support():
            if label in found:
                continue
            c = x.coeffs[label]
            orbit = orbit_of(self.action, label)
            if any(x.coefficient(moved) != c for moved in orbit):
                raise AlgebraError("element is not invariant under the group action")
            found |= orbit
            comps[min(orbit)] = c / (self.theta_order // len(orbit))
        return comps

    def orbit_multiply(self, x: PAElement, y: PAElement) -> PAElement:
        """Product of two invariant elements by the closed orbit formula.

        Agrees with the plain algebra product; the tests pin that agreement
        down exhaustively.  Inputs of colour at most 1 are scalar multiples
        of the empty label and are multiplied directly.
        """
        x._check_compatible(y)
        k = x.colour
        if k <= 1:
            return self.base.multiply(x, y)
        cx = self.invariant_components(x)
        cy = self.invariant_components(y)
        pref = self.base._left_parts(k).prefactor
        # merged label -> its weight; the product is their orbit sums
        gathered: dict[Label, RadicalScalar] = {}
        for gbar, a in cx.items():
            for hbar, b in cy.items():
                self._gather_merged(gathered, k, gbar, hbar, a * b * pref)
        return self._orbit_combination(k, gathered)

    def _gather_merged(self, out: dict, k: int, gbar: Label, hbar: Label, w: RadicalScalar) -> None:
        """Add ``w`` to ``out`` at the colour-``k`` merge of ``theta(gbar)``
        and ``hbar``, for every theta whose merge is defined: the Theta sum
        both closed products share."""
        apply, merge = self.action.apply_tuple, self.base._merge
        for t in range(self.theta_order):
            merged = merge(k, apply(t, gbar), hbar)
            if merged is not None:
                out[merged] = out.get(merged, ZERO) + w

    # ------------------------------------------------------------------
    # twist sums in the algebra of H

    def twist_sum(self, colour: int, label: Sequence[int]) -> PAElement:
        """Orbit sum with every slot decorated by all of Theta.

        The result lives in the algebra of the semidirect product and only
        depends on the orbit of the label: it is ``|Theta|^colour`` times the
        surround of ``S((g_1, 1), ..., (g_{colour-1}, 1))``.
        """
        label = tuple(label)
        if colour < 1 or len(label) != colour - 1:
            raise AlgebraError(
                f"label length {len(label)} does not match colour {colour}"
            )
        return self._twist_combination(colour, {label: ONE})

    def _twist_combination(self, colour: int, comps: dict[Label, RadicalScalar]) -> PAElement:
        """``sum c * twist_sum(colour, label)`` over ``comps``, with one surround.

        The surround is linear, so the weighted labels are gathered first;
        scaling the input, not the output, costs one product per class.
        """
        index = self.semidirect.index
        weight = RadicalScalar.rational(self.theta_order**colour)
        coeffs: dict[Label, RadicalScalar] = {}
        for label, c in comps.items():
            embedded = tuple(index(g, 0) for g in label)
            coeffs[embedded] = coeffs.get(embedded, ZERO) + c * weight
        return self.embedded.surround(PAElement(colour, coeffs))

    def twist_components(self, x: PAElement) -> dict[Label, RadicalScalar]:
        """Decompose an element of the surround range over the twist sums.

        Keys are orbit representatives; raises if x lies outside the span,
        which is the surround's range.  The restriction of a twist sum is
        the orbit sum of its label, so the components are those of the
        restriction (:meth:`_restrict`) over the orbit sums.
        """
        if x.colour < 1:
            raise AlgebraError("twist sums exist for colour >= 1 only")
        return self.invariant_components(self._restrict(x))

    def _restrict(self, x: PAElement) -> PAElement:
        """``x`` on the labels embedded from G, ``(g_i, 1)``, each read back
        as the G label ``(g_i)``; raises unless ``surround(x) is x``.

        The class of ``(g_i, 1)`` under ``h -> t h k`` is every
        ``(t(g_i), s_i)``, with ``t`` in Theta and ``s`` in
        ``Theta^(colour-1)``, so its labels with every Theta part 1 are the
        Theta-orbit of ``g``, and ``|class| = |orbit| |Theta|^(colour-1)``.
        A twist sum puts ``|Theta|^colour / |class|``, the stabilizer order
        ``|Theta| / |orbit|``, on each label of its class, so its
        restriction is the orbit sum of its label.
        """
        if self.embedded.surround(x) is not x:
            raise AlgebraError("element lies outside the span of the twist sums")
        pair = self.semidirect.pair
        kept = {
            tuple(pair(h)[0] for h in label): c
            for label, c in x.coeffs.items()
            if not any(pair(h)[1] for h in label)
        }
        return PAElement(x.colour, kept)

    def twist_multiply(self, colour: int, gbar: Sequence[int], hbar: Sequence[int]) -> PAElement:
        """Product of two twist sums by the closed formula, fully expanded.

        Every colour follows the merged-label rule of the acted-on group's
        algebra; at colour 2 it has no constraints and the prefactor is
        |Theta|.
        """
        if colour < 2:
            raise AlgebraError("the twist product needs colour >= 2")
        gbar = tuple(gbar)
        hbar = tuple(hbar)
        k = colour
        parts = self.base._left_parts(k)
        pref = (
            parts.prefactor
            * pow_half(self.theta_order, parts.m - 1)
            * Fraction(self.theta_order ** (k // 2))
        )
        comps: dict[Label, RadicalScalar] = {}
        self._gather_merged(comps, k, gbar, hbar, pref)
        return self._twist_combination(k, comps)

    # ------------------------------------------------------------------
    # surround map

    def surround(self, x: PAElement) -> PAElement:
        """The surround of the embedded Theta's biprojection.

        Each basis label is replaced by the average of its twist sum, so the
        range is spanned by the twist sums; a fixed element, every one at
        colour 0 included, comes back as itself.
        """
        return self.embedded.surround(x)

    # ------------------------------------------------------------------
    # transport between the two families

    def transport_prefactor(self, colour: int) -> RadicalScalar:
        """Scale attached to an orbit sum when it is carried to a twist sum."""
        half_units = (1 - (colour + 1) // 2) - 2 * (colour // 2)
        return pow_half(self.theta_order, half_units)

    def transport(self, x: PAElement) -> PAElement:
        """Carry an invariant element of the base algebra into the surround range.

        Orbit sums go to scaled twist sums; at colour 0 it is the identity
        and returns ``x`` itself.  Raises when x is not invariant.
        """
        if x.colour == 0:
            return x
        pref = self.transport_prefactor(x.colour)
        comps = {rep: c * pref for rep, c in self.invariant_components(x).items()}
        return self._twist_combination(x.colour, comps)

    def transport_inverse(self, x: PAElement) -> PAElement:
        """Inverse of :meth:`transport` on the surround range: the
        restriction (:meth:`_restrict`) over ``transport_prefactor(colour)``,
        since the restriction of ``transport(y)`` is the prefactor times
        ``y``; at colour 0 it returns ``x`` itself."""
        if x.colour == 0:
            return x
        return self._restrict(x).scale(self.transport_prefactor(x.colour).invert())

    def intertwine_check(self, gen: GenExpr) -> list[dict]:
        """Check that transport commutes with one generator action.

        For every tuple of orbit-basis inputs the generator is applied in the
        base algebra and the result transported, against the cut-down action
        of the embedded Theta (:meth:`SubgroupBiprojection.act`) on the
        transported inputs.  That action reads an empty
        :class:`~planarbox.group_algebra.BasisTable`, made per check: it holds
        no member, so every leaf acts and every value is surrounded afresh.
        Each input is built and transported once per slot, and every tuple
        reads that carried copy.  A generator with no slots has one tuple,
        the empty one.  Returns one record per input tuple.
        """
        slots = gen.discs[1]
        # per slot: (tag, orbit-basis input, its transport)
        slot_bases: list[list[tuple[str, PAElement, PAElement]]] = []
        for disc in slots:
            if disc.colour == 0:
                inputs = [("1[" + disc.label() + "]", self.base.basis_element(0, (), disc.shaded))]
            else:
                inputs = [
                    (str(rep), self.orbit_sum(disc.colour, rep))
                    for rep in self.orbit_reps(disc.colour)
                ]
            slot_bases.append([(tag, el, self.transport(el)) for tag, el in inputs])
        name = f"{gen.kind}_{gen.k}"
        table = BasisTable(self.embedded, 0, ())
        records = []
        for combo in iter_product(*slot_bases):
            lhs = self.transport(self.base.act_generator(gen, [el for _, el, _ in combo]))
            rhs = self.embedded.act(gen, [moved for _, _, moved in combo], table)
            case = name + (
                " on " + "; ".join(tag for tag, _, _ in combo) if combo else " (no inputs)"
            )
            records.append(
                record("crossed-product", case, self.product.render(lhs), self.product.render(rhs))
            )
        return records
