"""The ambient algebra is a planar algebra: a tree's value depends only on its tangle.

Seeded random trees are grouped by the tangle they realize (external disc,
internal discs and strings, without the closed-loop count).  Within a group
every tree is evaluated on the same inputs, and once each closed loop's
weight delta is divided out, the values must agree.  One pool runs on z3xz2
up to colour 4; a second runs on z3-trivial up to colour 7, so that the
Jones element's spin rule meets the other generators above its old table.
"""

import json
import random
from pathlib import Path

from planarbox.crossed import CrossedProduct
from planarbox.expressions import (
    ComposeExpr,
    GenExpr,
    random_expr,
    realize,
    render_expr,
    slot_colours,
)
from planarbox.group_algebra import PAElement
from planarbox.groups import load_action
from planarbox.scalars import RadicalScalar, pow_half

ACTIONS = Path(__file__).resolve().parent.parent / "actions"
TREES = 20_000


def random_input(rng: random.Random, P, disc) -> PAElement:
    """A sparse element with small nonzero integer coefficients on a few labels."""
    labels = list(P.basis_labels(disc.colour))
    return PAElement(
        disc.colour,
        {lab: RadicalScalar.rational(rng.choice([-2, -1, 1, 2, 3]))
         for lab in rng.sample(labels, min(3, len(labels)))},
        disc.shaded,
    )


def jones_colours(expr) -> list[int]:
    """The colours of the Jones leaves of a tree."""
    if isinstance(expr, GenExpr):
        return [expr.k] if expr.kind == "jones" else []
    if isinstance(expr, ComposeExpr):
        return jones_colours(expr.outer) + jones_colours(expr.inner)
    return jones_colours(expr.inner)


def shared_tangle_groups(stem: str, max_colour: int) -> int:
    """Evaluate every group of seeded trees realizing one tangle on shared
    inputs, assert that the values agree, and return the groups whose trees
    hold a Jones leaf above colour 4."""
    P = CrossedProduct(load_action(json.loads((ACTIONS / f"{stem}.json").read_text()))).product
    n = len(P.group)
    rng = random.Random(0)
    groups: dict[tuple, list] = {}
    for _ in range(TREES):
        expr = random_expr(rng, max_colour=max_colour, depth=3)
        t = realize(expr)
        groups.setdefault((t.external, t.internal, t.strings), []).append((expr, t.closed_loops))
    shared = [trees for trees in groups.values() if len(trees) > 1]
    assert len(shared) > 400
    for trees in shared:
        first, _ = trees[0]
        inputs = [random_input(rng, P, d) for d in slot_colours(first)]
        values = []
        for expr, loops in trees:
            values.append((expr, P.evaluate(expr, inputs).scale(pow_half(n, -loops))))
        (e0, v0), *rest = values
        for e1, v1 in rest:
            assert v1 == v0, (
                f"{render_expr(e0)} -> {P.render(v0)} but "
                f"{render_expr(e1)} -> {P.render(v1)}"
            )
    return sum(any(k >= 5 for e, _ in trees for k in jones_colours(e)) for trees in shared)


def test_value_depends_only_on_the_tangle():
    shared_tangle_groups("z3xz2", max_colour=4)


def test_value_depends_only_on_the_tangle_above_colour_4():
    """Colours up to 7, where only the spin rule gives the Jones element."""
    assert shared_tangle_groups("z3-trivial", max_colour=7) > 100
