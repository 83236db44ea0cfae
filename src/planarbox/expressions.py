"""Composition trees over the generating tangles.

A tree is the evaluable form of a tangle: leaves name generators,
internal nodes glue a subtree into a numbered slot or renumber the open
slots.  `realize` folds a tree into the concrete diagram of
:mod:`planarbox.tangles`; algebra evaluation folds the same tree through
basis formulas instead.

The text form is an s-expression, e.g.::

    (compose (gen E 2 3) 1 (gen I 3 2))
    (renumber (2 1) (gen M 2))
    (gen unit plus)

Colour tokens are plain integers from 0 to ``MAX_COLOUR``, with ``0+`` /
``0-`` selecting the shading of a colour-0 disc (bare ``0`` means ``0+``).
A form may sit inside at most ``MAX_DEPTH`` others.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import product
from typing import Union

from planarbox.tangles import (
    Disc,
    Tangle,
    TangleError,
    compose,
    glued_discs,
    make_generator,
    renumber,
    renumbered_discs,
)


class ParseError(ValueError):
    """Malformed tangle-expression text."""


# Largest colour token the parser accepts.  A diagram's size is linear in its
# colours, but nothing else bounds them: ``(gen id 1000000)`` ran past a
# minute and 1.8 GB, while a colour-1000 generator realizes in well under a
# second.  ``make_generator`` keeps its last ``GENERATOR_CACHE_SIZE`` (64)
# diagrams, and one colour-1000 ``M`` diagram holds 0.89 MB (tracemalloc),
# so the cache holds at most about 57 MB.
MAX_COLOUR = 1000

# Most forms a form may sit inside.  Parsing, realizing, validating and
# capping recurse once per level: a 1,200-deep ``compose`` chain overflowed
# Python's default recursion limit, and a chain this deep runs through all.
MAX_DEPTH = 900

# chance that random_expr fills each open slot of a node with a subtree;
# the seeded samplers draw against it, so changing it changes every sample
FILL_PROBABILITY = 0.6


@dataclass(frozen=True)
class GenExpr:
    kind: str
    k: int = 0
    shaded: bool = False


@dataclass(frozen=True)
class ComposeExpr:
    outer: "TangleExpr"
    slot: int
    inner: "TangleExpr"


@dataclass(frozen=True)
class RenumberExpr:
    perm: tuple[int, ...]
    inner: "TangleExpr"


TangleExpr = Union[GenExpr, ComposeExpr, RenumberExpr]


# ---------------------------------------------------------------------------
# colours and slots, computed without gluing diagrams
# ---------------------------------------------------------------------------

Signature = tuple[Disc, tuple[Disc, ...]]  # (external disc, slot discs)


@functools.cache
def generator_signature(g: GenExpr) -> Signature:
    """(external colour, per-slot colours) of a generator leaf, read off its
    diagram, so the colour and shading rules live in ``make_generator`` only."""
    t = make_generator(g.kind, g.k, g.shaded)
    return t.external, t.internal


def _walk(expr: TangleExpr, found: dict[int, Signature]) -> Signature:
    """Signature of ``expr``, checking every composition and renumbering
    below it; each node is checked once and recorded in ``found``."""
    sig = found.get(id(expr))
    if sig is not None:
        return sig
    if isinstance(expr, GenExpr):
        sig = generator_signature(expr)
    elif isinstance(expr, ComposeExpr):
        external, outer = _walk(expr.outer, found)
        inner_ext, inner = _walk(expr.inner, found)
        sig = (external, glued_discs(outer, expr.slot, inner_ext, inner))
    else:
        external, inner = _walk(expr.inner, found)
        sig = (external, renumbered_discs(inner, expr.perm))
    found[id(expr)] = sig
    return sig


def node_signatures(expr: TangleExpr) -> dict[int, Signature]:
    """The signature of every node of a tree, keyed by node id, from one
    validating walk; raises :class:`TangleError` on a bad slot, colour or
    permutation anywhere in the tree."""
    found: dict[int, Signature] = {}
    _walk(expr, found)
    return found


def external_colour(expr: TangleExpr) -> Disc:
    return node_signatures(expr)[id(expr)][0]


def slot_colours(expr: TangleExpr) -> tuple[Disc, ...]:
    return node_signatures(expr)[id(expr)][1]


def arity(expr: TangleExpr) -> int:
    return len(slot_colours(expr))


def realize(expr: TangleExpr) -> Tangle:
    """Fold the tree into a concrete tangle."""
    if isinstance(expr, GenExpr):
        return make_generator(expr.kind, expr.k, expr.shaded)
    if isinstance(expr, ComposeExpr):
        return compose(realize(expr.outer), expr.slot, realize(expr.inner))
    return renumber(realize(expr.inner), expr.perm)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens: list[str], pos: int, depth: int = 0):
    """The form starting at ``pos``, inside ``depth`` enclosing forms."""
    if pos >= len(tokens):
        raise ParseError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        if depth > MAX_DEPTH:
            raise ParseError(f"forms nested more than MAX_DEPTH = {MAX_DEPTH} deep")
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos, depth + 1)
            items.append(item)
        if pos >= len(tokens):
            raise ParseError("missing closing parenthesis")
        return items, pos + 1
    if tok == ")":
        raise ParseError("unbalanced closing parenthesis")
    return tok, pos + 1


def _parse_colour(tok: str) -> tuple[int, bool]:
    if tok == "0+":
        return 0, False
    if tok == "0-":
        return 0, True
    try:
        k = int(tok)
    except (TypeError, ValueError):  # a parenthesized form is no colour
        raise ParseError(f"bad colour token {tok!r}") from None
    if k < 0:
        raise ParseError(f"bad colour token {tok!r}")
    if k > MAX_COLOUR:
        raise ParseError(f"colour {k} is above the bound MAX_COLOUR = {MAX_COLOUR}")
    return k, False


def _build(form) -> TangleExpr:
    if not isinstance(form, list) or not form:
        raise ParseError(f"expected a parenthesized form, got {form!r}")
    head = form[0]
    if head == "gen":
        if len(form) < 2:
            raise ParseError("(gen ...) needs a generator name")
        kind = form[1]
        args = form[2:]
        if kind == "unit":
            if len(args) != 1 or args[0] not in ("plus", "minus"):
                raise ParseError("(gen unit plus|minus)")
            return GenExpr("unit", 0, args[0] == "minus")
        if kind in ("id", "M", "Eprime", "jones"):
            if len(args) != 1:
                raise ParseError(f"(gen {kind} <colour>)")
            k, sh = _parse_colour(args[0])
            return GenExpr(kind, k, sh)
        if kind == "E":
            if len(args) != 2:
                raise ParseError("(gen E <k> <k+1>)")
            k, sh = _parse_colour(args[0])
            hi, hish = _parse_colour(args[1])
            if hish or hi != k + 1:
                raise ParseError(f"(gen E k k+1): got colours {args[0]}, {args[1]}")
            return GenExpr("E", k, sh)
        if kind == "I":
            if len(args) != 2:
                raise ParseError("(gen I <k+1> <k>)")
            hi, hish = _parse_colour(args[0])
            k, sh = _parse_colour(args[1])
            if hish or hi != k + 1:
                raise ParseError(f"(gen I k+1 k): got colours {args[0]}, {args[1]}")
            return GenExpr("I", k, sh)
        raise ParseError(f"unknown generator {kind!r}")
    if head == "compose":
        if len(form) != 4:
            raise ParseError("(compose <outer> <slot> <inner>)")
        outer = _build(form[1])
        try:
            slot = int(form[2])
        except (TypeError, ValueError):
            raise ParseError(f"bad slot index {form[2]!r}") from None
        return ComposeExpr(outer, slot, _build(form[3]))
    if head == "renumber":
        if len(form) != 3 or not isinstance(form[1], list):
            raise ParseError("(renumber (<images...>) <expr>)")
        try:
            perm = tuple(int(x) for x in form[1])
        except (TypeError, ValueError):
            raise ParseError(f"bad permutation {form[1]!r}") from None
        return RenumberExpr(perm, _build(form[2]))
    raise ParseError(f"unknown form {head!r}")


def parse_expr(text: str) -> TangleExpr:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    form, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise ParseError(f"trailing input after expression: {tokens[pos:]}")
    return _build(form)


def render_expr(expr: TangleExpr) -> str:
    if isinstance(expr, GenExpr):
        if expr.kind == "unit":
            return f"(gen unit {'minus' if expr.shaded else 'plus'})"
        col = Disc(expr.k, expr.shaded).label()
        if expr.kind == "E":
            return f"(gen E {col} {expr.k + 1})"
        if expr.kind == "I":
            return f"(gen I {expr.k + 1} {col})"
        return f"(gen {expr.kind} {col})"
    if isinstance(expr, ComposeExpr):
        return f"(compose {render_expr(expr.outer)} {expr.slot} {render_expr(expr.inner)})"
    images = " ".join(str(i) for i in expr.perm)
    return f"(renumber ({images}) {render_expr(expr.inner)})"


# ---------------------------------------------------------------------------
# random sampling for the property suites
# ---------------------------------------------------------------------------

# the kinds in the order the samplers list them; every seeded sample draws
# against this order, so changing it changes every sample
_SAMPLED_KINDS = ("unit", "id", "M", "Eprime", "jones", "E", "I")


@functools.cache
def generators_with_external(colour: Disc, max_colour: int) -> tuple[GenExpr, ...]:
    """All generator leaves of external colour ``colour`` whose discs
    stay within ``max_colour``, by kind, then ``k``, unshaded first."""
    out = []
    for kind, k, shaded in product(_SAMPLED_KINDS, range(max_colour + 1), (False, True)):
        leaf = GenExpr(kind, k, shaded)
        try:
            external, slots = generator_signature(leaf)
        except TangleError:
            continue
        if external == colour and all(d.colour <= max_colour for d in (external, *slots)):
            out.append(leaf)
    return tuple(out)


def random_expr(
    rng: random.Random,
    colour: Disc | None = None,
    max_colour: int = 4,
    depth: int = 2,
) -> TangleExpr:
    """A random well-coloured tree with every disc colour ``<= max_colour``."""
    if colour is None:
        k = rng.randint(0, max_colour)
        colour = Disc(k, rng.random() < 0.5 if k == 0 else False)
    expr: TangleExpr = rng.choice(generators_with_external(colour, max_colour))
    if depth > 0:
        slots = slot_colours(expr)
        # fill from the right so earlier slot indices stay valid
        for i in range(len(slots), 0, -1):
            if rng.random() < FILL_PROBABILITY:
                sub = random_expr(rng, slots[i - 1], max_colour, depth - 1)
                expr = ComposeExpr(expr, i, sub)
    n = arity(expr)
    if n > 1 and rng.random() < 0.2:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        expr = RenumberExpr(tuple(perm), expr)
    return expr


def random_composable_pair(
    rng: random.Random,
    max_colour: int = 4,
    depth: int = 2,
    max_arity: int | None = None,
) -> tuple[TangleExpr, int, TangleExpr]:
    """A pair ``(T, i, S)`` with the external colour of ``S`` matching
    slot ``i`` of ``T``; resamples until ``T`` has an open slot (and the
    combined arity fits ``max_arity`` when given)."""
    while True:
        outer = random_expr(rng, None, max_colour, depth)
        slots = slot_colours(outer)
        if not slots:
            continue
        i = rng.randint(1, len(slots))
        inner = random_expr(rng, slots[i - 1], max_colour, depth)
        if max_arity is not None and len(slots) - 1 + arity(inner) > max_arity:
            continue
        return outer, i, inner
