"""The cut-down planar algebra living on the range of a surround idempotent.

Every biprojection of a group subfactor is the average of a subgroup K,
and the idempotent family F of surround maps of that biprojection fixes
the index data of the tower: ``[M:Q] = |K|`` and ``[Q:N] = |H|/|K|``.
The fixed points of F form a smaller planar algebra.  A tangle acts on it
by the old action followed by one surround, rescaled by the capping
weight alpha computed at the intermediate ratio.  The cut-down algebra is
built from one :class:`~planarbox.group_algebra.SubgroupBiprojection`
alone: the ambient algebra, the surround, the index data and the dual side
are all read off it, whichever subgroup it is.  This module builds bases
of the fixed spaces by row-reducing the surround of one label per class,
evaluates that rescaled action, and carries the verification suites: the
composite-tangle identity and the planar axioms, which evaluate the
substitution identity through one helper, Jones projections, conditional
expectations, trace rescaling, positivity, and the bookkeeping of the
white-shaded dual.  Every evaluation acts through the algebra's
:class:`~planarbox.group_algebra.BasisTable`; a record that evaluates the
same trees again passes one ``last`` dict to every such call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence

from .expressions import (
    ComposeExpr,
    GenExpr,
    RenumberExpr,
    TangleExpr,
    arity,
    random_composable_pair,
    realize,
    slot_colours,
)
from .group_algebra import (
    AlgebraError,
    BasisTable,
    PAElement,
    SubgroupBiprojection,
    _check_shading,
    flag,
    record,
    row_reduce,
)
from .scalars import RadicalScalar, pow_half
from .tangles import Disc, alpha, alpha_tilde, compose, loops_black, loops_white, renumber


# White capping exponents (in half units of the intermediate ratio) for the
# generator set, frozen from the independently counted loop tables.
WHITE_WEIGHT_TABLE = {
    ("id", 2): 0,
    ("M", 2): 1,
    ("M", 3): 0,
    ("I", 1): -1,
    ("I", 2): 1,
    ("E", 1): 0,
    ("E", 2): 0,
    ("Eprime", 1): -1,
    ("Eprime", 2): -1,
    ("jones", 2): 0,
    ("jones", 3): -1,
}


def crossed_instance(cp) -> SubgroupBiprojection:
    """The biprojection of a crossed product's embedded copy of Theta."""
    return cp.embedded


class IntermediateAlgebra:
    """Fixed spaces of the surround family with the rescaled tangle action.

    The algebra owns one :class:`~planarbox.group_algebra.BasisTable`,
    ``table``, kept for its life and filled on first use: the ambient value
    of each generator leaf on a tuple of basis elements, at most one per
    generator with colours up to ``k_max`` and basis tuple on its slots, and
    the surround of each basis element and of each such value.  Every
    record's evaluations (:meth:`z_prime`, the membership checks and the
    surrounds of :meth:`_substitution`) read it, through its ``act`` and
    ``surround``; the per-node last values, the ``last`` dict that
    :meth:`~planarbox.group_algebra.GroupPlanarAlgebra.evaluate` takes,
    live for one record only.  Every comparison of every record still runs
    on every tuple.
    """

    def __init__(self, subgroup: SubgroupBiprojection, k_max: int = 4):
        self.subgroup = subgroup
        self.k_max = k_max
        self.algebra = subgroup.algebra
        # [M:Q] = |K| and [Q:N] = |H|/|K|, an integer by Lagrange
        self.index_mq = subgroup.order
        self.index_qn = len(self.algebra.group) // self.index_mq
        self.tau = self.algebra.trace(subgroup.average())
        P = self.algebra
        self._bases: dict[Disc, list[PAElement]] = {
            Disc(0, shaded): [P.basis_element(0, (), shaded)] for shaded in (False, True)
        }
        surround = subgroup.surround
        for colour in range(1, k_max + 1):
            # all labels of a class share one image, so one label per class
            # spans the range; the surround is linear, so it is idempotent on
            # the images exactly when it is on the basis of their span
            basis = row_reduce(
                surround(P.basis_element(colour, rep)) for rep in subgroup.class_reps(colour)
            )
            for b in basis:
                if surround(b) != b:
                    raise AlgebraError(f"surround is not idempotent at colour {colour}")
            self._bases[Disc(colour)] = basis
        # the cut-down inclusion is "include, then surround"; it must not
        # depend on whether the representative was already surrounded
        for colour in range(1, k_max):
            for label in P.basis_labels(colour):
                b = P.basis_element(colour, label)
                lifted = P.act_generator(GenExpr("I", colour), [b])
                dressed = P.act_generator(GenExpr("I", colour), [surround(b)])
                if surround(lifted) != surround(dressed):
                    raise AlgebraError(
                        f"surround does not factor through inclusion at colour {colour}"
                    )
        self.table = BasisTable(subgroup, k_max, (b for bs in self._bases.values() for b in bs))

    # ------------------------------------------------------------------
    # spaces

    def basis(self, colour: int, shaded: bool = False) -> list[PAElement]:
        _check_shading(colour, shaded)
        basis = self._bases.get(Disc(colour, shaded))
        if basis is None:
            raise AlgebraError(f"colour {colour} above the configured bound {self.k_max}")
        return list(basis)

    def dimension(self, colour: int) -> int:
        return len(self.basis(colour))

    def contains(self, x: PAElement) -> bool:
        """Whether the surround fixes ``x``: it returns a fixed element
        itself at every colour, so no element is compared."""
        return self.table.surround(x) is x

    def require_member(self, x: PAElement) -> None:
        if not self.contains(x):
            raise AlgebraError("input is not fixed by the surround map")

    def basis_tuples(self, discs: Sequence[Disc]):
        """All tuples of basis elements matching a sequence of slot colours."""
        pools = [self.basis(d.colour, d.shaded) for d in discs]
        return iter_product(*pools) if pools else [()]

    # ------------------------------------------------------------------
    # the rescaled action

    def z_prime(self, expr: TangleExpr, inputs: Sequence[PAElement]) -> PAElement:
        """Evaluate a tangle on fixed inputs by the subgroup's cut-down action
        (:meth:`SubgroupBiprojection.act`), after checking their membership."""
        for x in inputs:
            self.require_member(x)
        return self.subgroup.act(expr, inputs, self.table)

    def unit_prime(self, colour: int, shaded: bool = False) -> PAElement:
        return self.subgroup.surround(self.algebra.unit(colour, shaded))

    def jones_prime(self, colour: int) -> PAElement:
        """The cut-down Jones projection at a colour, from the cup-cap tangle."""
        if colour < 2:
            raise AlgebraError("Jones projections start at colour 2")
        scale = pow_half(self.index_qn, -1)
        return self.z_prime(GenExpr("jones", colour), []).scale(scale)

    def include_prime(self, x: PAElement) -> PAElement:
        return self.z_prime(GenExpr("I", x.colour), [x])

    def expect_right(self, x: PAElement) -> PAElement:
        """Trace-preserving expectation one colour down, from the right cap."""
        scale = pow_half(self.index_qn, -1)
        return self.z_prime(GenExpr("E", x.colour - 1), [x]).scale(scale)

    def expect_left(self, x: PAElement) -> PAElement:
        """Expectation onto the left-cut subspace at the same colour."""
        scale = pow_half(self.index_qn, -1)
        return self.z_prime(GenExpr("Eprime", x.colour), [x]).scale(scale)

    def trace_prime(self, x: PAElement) -> RadicalScalar:
        self.require_member(x)
        return self.algebra.trace(x) * Fraction(self.index_mq ** (x.colour // 2))

    def inner_prime(self, x: PAElement, y: PAElement) -> RadicalScalar:
        return self.trace_prime(self.algebra.multiply(self.algebra.star(y), x))

    # ------------------------------------------------------------------
    # verification suites

    def theorem_main_report(
        self, samples: int = 200, seed: int = 0, max_colour: int = 4
    ) -> list[dict]:
        """Check the composite-tangle identity on sampled pairs.

        Each record compares the surround-dressed composite of two trees
        against the weight-corrected surround of the glued tree, pointwise
        over all basis input tuples, and separately asserts that z_prime is
        multiplicative over gluing (:meth:`_substitution`).
        """
        suite = "theorem-main"
        records = [
            record(
                suite,
                "tau agreement: tr(q) == 1/[M:Q]",
                self.tau.render(),
                RadicalScalar.rational(Fraction(1, self.index_mq)).render(),
            )
        ]
        rng = random.Random(seed)
        pairs: list[tuple[TangleExpr, int, TangleExpr, str]] = [
            (GenExpr("E", 2), 1, GenExpr("I", 2), "pinned E/I pair"),
            (GenExpr("M", 2), 2, GenExpr("id", 2), "pinned identity inner"),
            (
                RenumberExpr((2, 1), GenExpr("M", 2)),
                1,
                GenExpr("jones", 2),
                "pinned renumbered outer",
            ),
        ]
        while len(pairs) < samples + 3:
            outer, slot, inner = random_composable_pair(
                rng, max_colour=max_colour, depth=3, max_arity=3
            )
            pairs.append((outer, slot, inner, f"sample {len(pairs) - 3}"))
        for outer, slot, inner, tag in pairs:
            tangles, a_glued, a_nested, values = self._substitution(outer, slot, inner)
            t_outer, t_inner, t_glued = tangles
            k_i = slot_colours(outer)[slot - 1].colour
            exponent = (
                k_i + loops_black(t_glued) - loops_black(t_outer) - loops_black(t_inner)
            )
            correction = pow_half(self.index_mq, -exponent)
            # alpha is never zero; when the weight ratio is the loop-count
            # correction, as it is unless a weight is wrong, one scaling
            # serves both flags
            ratio = a_glued / a_nested
            same = ratio == correction
            ok_displayed = True
            ok_mult = True
            for glued, nested in values:
                displayed = nested == glued.scale(correction)
                if not displayed:
                    ok_displayed = False
                if not (displayed if same else nested == glued.scale(ratio)):
                    ok_mult = False
            records += [
                flag(suite, f"{tag}: dressed composite", ok_displayed, "equal", "unequal"),
                flag(suite, f"{tag}: multiplicativity", ok_mult, "equal", "unequal"),
            ]
        return records

    def _substitution(self, outer: TangleExpr, slot: int, inner: TangleExpr):
        """Both sides of the substitution identity for ``inner`` glued into
        slot ``slot`` of ``outer``.

        Returns ``(tangles, a_glued, a_nested, values)``: the realized
        outer, inner and glued tangles, alpha of the glued tangle,
        ``alpha(outer) * alpha(inner)``, and an iterator over every basis
        input tuple of the glued tree.  It yields ``(glued, nested)``: the
        surround of the glued tree's value, and the surround of ``outer``
        on the surrounded inner value.  The z_prime map is multiplicative
        when ``nested == glued * (a_glued / a_nested)``; alpha is never
        zero.  The evaluator composes by evaluating ``outer`` on the raw
        inner value, so one ``last`` dict shared by both sides evaluates the
        inner tree once per inner tuple.  Both sides act through the
        algebra's ``table``, whose leaf values and surrounds outlive the
        record.  A fixed inner value is its own surround, so then ``outer``
        sees the very inputs it saw inside the glued tree, ``last`` returns
        the glued side's raw value, and the nested side reuses the glued
        side's surround of it.  Nothing else is kept beyond the record.
        """
        glued_expr = ComposeExpr(outer, slot, inner)
        t_outer, t_inner = realize(outer), realize(inner)
        # realize's own fold, on the subtrees already realized
        tangles = t_outer, t_inner, compose(t_outer, slot, t_inner)
        a_outer, a_inner, a_glued = (alpha(t, self.index_mq) for t in tangles)
        surround, act = self.table.surround, self.table.act
        evaluate = self.algebra.evaluate

        def values():
            last: dict = {}
            outer_slots = slot_colours(outer)
            rest_slots = outer_slots[: slot - 1] + outer_slots[slot:]
            for inner_combo in self.basis_tuples(slot_colours(inner)):
                inner_inputs = list(inner_combo)
                dressed = surround(evaluate(inner, inner_inputs, act, last))
                for rest in self.basis_tuples(rest_slots):
                    before, after = list(rest[: slot - 1]), list(rest[slot - 1 :])
                    raw = evaluate(glued_expr, before + inner_inputs + after, act, last)
                    glued = surround(raw)
                    raw_nested = evaluate(outer, before + [dressed] + after, act, last)
                    nested = glued if raw_nested is raw else surround(raw_nested)
                    yield glued, nested

        return tangles, a_glued, a_outer * a_inner, values()

    def axiom_report(self, samples: int = 40, seed: int = 1, max_colour: int = 4) -> list[dict]:
        """Nondegeneracy, renumbering, and substitution, pointwise on bases."""
        suite = "axioms"
        records = []
        for colour in range(1, min(max_colour, self.k_max) + 1):
            good = all(
                self.z_prime(GenExpr("id", colour), [b]) == b for b in self.basis(colour)
            )
            records.append(
                flag(suite, f"identity tangle acts as id at colour {colour}", good, "id", "not id")
            )
        rng = random.Random(seed)
        produced = 0
        while produced < samples:
            outer, slot, inner = random_composable_pair(
                rng, max_colour=max_colour, depth=2, max_arity=3
            )
            base_expr = ComposeExpr(outer, slot, inner)
            n = arity(base_expr)
            if n < 1:
                continue
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            perm = tuple(perm)
            renumbered = RenumberExpr(perm, base_expr)
            t_base = realize(base_expr)
            a_renumbered = alpha(renumber(t_base, perm), self.index_mq)
            a_base = alpha(t_base, self.index_mq)
            ok = a_renumbered == a_base
            # slot i of the child reads the input at disc perm[i] of the
            # renumbered tangle; spelled out here independently of the
            # evaluator's own bookkeeping, so ``last`` serves the right side
            # only when the evaluator passed the child these very inputs, and
            # the table's leaf entries are keyed on the inputs each leaf gets
            last: dict = {}
            for combo in self.basis_tuples(slot_colours(renumbered)):
                xs = list(combo)
                child_inputs = [xs[perm[i] - 1] for i in range(n)]
                lhs = self.algebra.evaluate(renumbered, xs, self.table.act, last)
                rhs = self.algebra.evaluate(base_expr, child_inputs, self.table.act, last)
                if lhs != rhs:
                    ok = False
            records.append(
                flag(suite, f"renumbering sample {produced} (perm {perm})", ok, "equal", "unequal")
            )
            produced += 1
        rng2 = random.Random(seed + 1)
        for i in range(samples):
            outer, slot, inner = random_composable_pair(
                rng2, max_colour=max_colour, depth=2, max_arity=3
            )
            _, a_glued, a_nested, values = self._substitution(outer, slot, inner)
            ratio = a_glued / a_nested
            ok = all(nested == glued.scale(ratio) for glued, nested in values)
            records.append(flag(suite, f"substitution sample {i}", ok, "equal", "unequal"))
        return records

    def jones_report(self, top: int = 4) -> list[dict]:
        """Projection and Temperley-Lieb relations for the cut-down Jones family."""
        suite = "jones"
        P = self.algebra
        records = []
        tr_expected = RadicalScalar.rational(Fraction(1, self.index_qn))
        for colour in range(2, top + 1):
            e = self.jones_prime(colour)
            prod = self.z_prime(GenExpr("M", colour), [e, e])
            records += [
                record(suite, f"e'_{colour} idempotent", P.render(prod), P.render(e)),
                record(suite, f"e'_{colour} self-adjoint", P.render(P.star(e)), P.render(e)),
                record(suite, f"tr'(e'_{colour}) == 1/[Q:N]",
                       self.trace_prime(e).render(), tr_expected.render()),
            ]
        towers = []
        for position in range(1, top):
            p = self.jones_prime(position + 1)
            for _ in range(top - position - 1):
                p = self.include_prime(p)
            towers.append(p)
        inv_index = Fraction(1, self.index_qn)
        for i in range(len(towers) - 1):
            a, b = towers[i], towers[i + 1]
            records += [
                record(suite, f"p{i + 1} p{i + 2} p{i + 1} == p{i + 1}/[Q:N]",
                       P.render(P.multiply(P.multiply(a, b), a)), P.render(a.scale(inv_index))),
                record(suite, f"p{i + 2} p{i + 1} p{i + 2} == p{i + 2}/[Q:N]",
                       P.render(P.multiply(P.multiply(b, a), b)), P.render(b.scale(inv_index))),
            ]
        for i in range(len(towers)):
            for j in range(i + 2, len(towers)):
                records.append(
                    record(suite, f"p{i + 1} and p{j + 1} commute",
                           P.render(P.multiply(towers[i], towers[j])),
                           P.render(P.multiply(towers[j], towers[i])))
                )
        return records

    def trace_report(self, kmax: int | None = None) -> list[dict]:
        """Normalization, rescaling grade, expectations, and positivity."""
        suite = "trace"
        kmax = self.k_max if kmax is None else kmax
        records = []
        for colour in range(1, kmax + 1):
            records.append(
                record(suite, f"tr'(1'_{colour}) == 1",
                       self.trace_prime(self.unit_prime(colour)).render(), "1")
            )
        # each basis element's right expectation, shared by the two checks below
        downs = {c: [self.expect_right(b) for b in self.basis(c)] for c in range(2, kmax + 1)}
        for colour in range(2, kmax + 1):
            good = all(
                self.trace_prime(b) == self._trace_by_expectation(down)
                for b, down in zip(self.basis(colour), downs[colour])
            )
            records.append(
                flag(suite, f"tr' == [M:Q]^{colour // 2} tr at colour {colour}",
                     good, "graded", "broken")
            )
        for colour in range(2, kmax + 1):
            down_ok = True
            up_ok = True
            left_ok = True
            left_trace_ok = True
            onto_ok = True
            for b, down in zip(self.basis(colour), downs[colour]):
                if self.trace_prime(down) != self.trace_prime(b):
                    down_ok = False
                lifted = self.include_prime(down)
                again = self.include_prime(self.expect_right(lifted))
                if again != lifted:
                    onto_ok = False
                left = self.expect_left(b)
                if self.expect_left(left) != left:
                    left_ok = False
                if self.trace_prime(left) != self.trace_prime(b):
                    left_trace_ok = False
            for b in self.basis(colour - 1):
                if self.expect_right(self.include_prime(b)) != b:
                    up_ok = False
            records += [
                flag(suite, f"right expectation preserves tr' at colour {colour}",
                     down_ok, "preserved", "broken"),
                flag(suite, f"expectation after inclusion is id at colour {colour - 1}",
                     up_ok, "id", "not id"),
                flag(suite, f"include-expect idempotent at colour {colour}",
                     onto_ok, "idempotent", "broken"),
                flag(suite, f"left expectation idempotent at colour {colour}",
                     left_ok, "idempotent", "broken"),
                flag(suite, f"left expectation preserves tr' at colour {colour}",
                     left_trace_ok, "preserved", "broken"),
            ]
        for colour in range(1, kmax + 1):
            records.append(
                flag(suite, f"Gram matrix positive definite at colour {colour}",
                     self._gram_positive(colour), "positive", "not positive")
            )
        return records

    def _trace_by_expectation(self, x: PAElement) -> RadicalScalar:
        """The cut-down trace read off the cut-down action: the right
        expectation taken down to colour 0, at the empty label."""
        while x.colour > 0:
            x = self.expect_right(x)
        return x.coefficient(())

    def _gram_positive(self, colour: int) -> bool:
        basis = self.basis(colour)
        n = len(basis)
        P = self.algebra
        # inner_prime(x, y) = trace_prime(y* x), with each star taken once and
        # no membership check, as the products are fixed by construction
        scale = Fraction(self.index_mq ** (colour // 2))
        stars = [P.star(y) for y in basis]
        gram = [[P.trace(P.multiply(y_star, x)) * scale for y_star in stars] for x in basis]
        # leading principal minors via exact elimination; a nonpositive pivot
        # at any stage disproves positive definiteness.  A row whose entry
        # below the pivot is already zero would subtract zero times the
        # pivot row, so it is skipped; the arithmetic stays exact
        for step in range(n):
            pivot = gram[step][step]
            if pivot.sign() <= 0:
                return False
            for r in range(step + 1, n):
                if gram[r][step].is_zero():
                    continue
                factor = gram[r][step] / pivot
                for c in range(step, n):
                    gram[r][c] = gram[r][c] - factor * gram[step][c]
        return True

    def dual_report(self, samples: int = 50, seed: int = 7) -> list[dict]:
        """White-shaded bookkeeping: the rescaled biprojection, the white
        capping weights, and the dual surround's range dimension.  Nothing
        goes above ``k_max``: a weight is recorded only for a generator whose
        discs all lie within it, the pairs are drawn up to colour
        ``min(4, k_max)`` and the ranks run over colours ``1..min(3, k_max)``."""
        suite = "dual"
        sub = self.subgroup
        P = self.algebra
        root = pow_half(self.index_mq, 1) * pow_half(self.index_qn, -1)
        r = sub.average().scale(root)
        records = [
            record(suite, "r self-adjoint", P.render(P.star(r)), P.render(r)),
            record(suite, "r squares to root-scaled r",
                   P.render(P.multiply(r, r)), P.render(r.scale(root))),
        ]
        for (kind, colour), half_exponent in WHITE_WEIGHT_TABLE.items():
            gen = GenExpr(kind, colour)
            external, slots = gen.discs
            if max([external.colour] + [d.colour for d in slots]) > self.k_max:
                continue
            records.append(
                record(suite, f"white weight of {kind}_{colour}",
                       alpha_tilde(realize(gen), self.index_qn).render(),
                       pow_half(self.index_qn, half_exponent).render())
            )
        rng = random.Random(seed)
        ok = True
        for _ in range(samples):
            outer, slot, inner = random_composable_pair(rng, max_colour=min(4, self.k_max), depth=2)
            t_outer, t_inner = realize(outer), realize(inner)
            glued = compose(t_outer, slot, t_inner)
            k_i = slot_colours(outer)[slot - 1].colour
            exponent = (
                loops_white(t_outer) + loops_white(t_inner) - loops_white(glued) - k_i
            )
            lhs = alpha_tilde(glued, self.index_qn)
            rhs = (
                alpha_tilde(t_outer, self.index_qn)
                * alpha_tilde(t_inner, self.index_qn)
                * pow_half(self.index_qn, exponent)
            )
            if lhs != rhs:
                ok = False
        records.append(
            flag(suite, f"white capping ratio identity ({samples} pairs)", ok, "holds", "fails")
        )
        for colour in range(1, min(3, self.k_max) + 1):
            images = [
                sub.dual_surround(P.basis_element(colour, label))
                for label in P.basis_labels(colour)
            ]
            records.append(
                record(suite, f"dual surround rank at colour {colour}",
                       str(len(row_reduce(images))), str(sub.order ** (colour - 1)))
            )
        return records
