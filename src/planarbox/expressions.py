"""Composition trees over the generating tangles.

A tree is the evaluable form of a tangle: leaves name generators,
internal nodes glue a subtree into a numbered slot or renumber the open
slots.  Every node owns its ``discs``, its (external disc, slot discs): a
leaf reads them off its diagram, and an internal node makes them from its
children's on first read and keeps them for its life, so a tree is checked
once however many readers (`slot_colours`, `realize`, evaluation, the
samplers) it meets.  A bad slot, colour or permutation raises
:class:`~planarbox.tangles.TangleError` from that first read, in
post-order, outer subtree before inner.  `realize` glues a tree's
generator diagrams into the concrete diagram of :mod:`planarbox.tangles`
in one splice, equal to folding the tree node by node; algebra evaluation
folds the same tree through basis formulas instead.

The text form is an s-expression, e.g.::

    (compose (gen E 2 3) 1 (gen I 3 2))
    (renumber (2 1) (gen M 2))
    (gen unit plus)

Colour tokens are decimal numerals (ASCII digits only, see
`decimal_value`) from 0 to ``MAX_COLOUR``, with ``0+`` / ``0-`` selecting
the shading of a colour-0 disc (bare ``0`` means ``0+``); slots and
permutation images are decimal numerals too.
A form may sit inside at most ``MAX_DEPTH`` others.  The reader recurses
once per form, not per token, and a plain ``(gen ...)`` form is looked up
by its tokens among the ``GENERATOR_CACHE_SIZE`` most recently read
(`_leaf`), so a repeated leaf is read once and is one object.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import product
from typing import Union

from planarbox.tangles import (
    GENERATOR_CACHE_SIZE,
    Disc,
    DiscRef,
    Tangle,
    TangleError,
    _splice,
    glued_discs,
    make_generator,
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

# Most forms a form may sit inside.  Parsing, rendering, `realize`,
# evaluation and the first read of a node's discs recurse once per level;
# validating and capping walk the realized diagram and do not.  A
# 1,200-deep ``compose`` chain overflowed Python's default recursion limit,
# and a chain this deep runs through all.
MAX_DEPTH = 900

# chance that random_expr fills each open slot of a node with a subtree;
# the seeded samplers draw against it, so changing it changes every sample
FILL_PROBABILITY = 0.6


Signature = tuple[Disc, tuple[Disc, ...]]  # (external disc, slot discs)


@dataclass(frozen=True)
class GenExpr:
    kind: str
    k: int = 0
    shaded: bool = False

    @property
    def discs(self) -> Signature:
        """(external disc, slot discs), read off the generator's diagram, so
        the colour and shading rules live in ``make_generator`` only."""
        found = self.__dict__.get("_discs")
        if found is None:
            t = make_generator(self.kind, self.k, self.shaded)
            found = self.__dict__["_discs"] = (t.external, t.internal)
        return found


@dataclass(frozen=True)
class ComposeExpr:
    outer: "TangleExpr"
    slot: int
    inner: "TangleExpr"

    @property
    def discs(self) -> Signature:
        """(external disc, slot discs): the inner slots take the place of
        slot ``slot`` of the outer ones (:func:`glued_discs`)."""
        found = self.__dict__.get("_discs")
        if found is None:
            external, outer = self.outer.discs
            inner_ext, inner = self.inner.discs
            found = self.__dict__["_discs"] = (
                external, glued_discs(outer, self.slot, inner_ext, inner))
        return found


@dataclass(frozen=True)
class RenumberExpr:
    perm: tuple[int, ...]
    inner: "TangleExpr"

    @property
    def discs(self) -> Signature:
        """(external disc, slot discs): the inner slots moved by ``perm``
        (:func:`renumbered_discs`)."""
        found = self.__dict__.get("_discs")
        if found is None:
            external, inner = self.inner.discs
            found = self.__dict__["_discs"] = (external, renumbered_discs(inner, self.perm))
        return found


TangleExpr = Union[GenExpr, ComposeExpr, RenumberExpr]


def slot_colours(expr: TangleExpr) -> tuple[Disc, ...]:
    return expr.discs[1]


def arity(expr: TangleExpr) -> int:
    return len(expr.discs[1])


def realize(expr: TangleExpr) -> Tangle:
    """The concrete tangle of a tree: its generator diagrams glued in one
    :func:`~planarbox.tangles._splice`."""
    if isinstance(expr, GenExpr):
        return make_generator(expr.kind, expr.k, expr.shaded)
    internal = expr.discs[1]
    parts: list[Tangle] = []
    glues: list[tuple[DiscRef, int]] = []
    return _splice(parts, glues, _gather(expr, parts, glues), internal)


def _gather(expr: TangleExpr, parts: list[Tangle], glues: list[tuple[DiscRef, int]]
            ) -> tuple[DiscRef, ...]:
    """The leaf disc each slot of ``expr`` is, appending its leaf diagrams
    to ``parts``, the one bearing its external disc first, and its glues to
    ``glues``.  The tree's discs are read first, so every slot, colour and
    permutation here is one they checked."""
    if isinstance(expr, GenExpr):
        t = make_generator(expr.kind, expr.k, expr.shaded)
        leaf = len(parts)
        parts.append(t)
        return tuple([(leaf, d) for d in range(1, len(t.internal) + 1)])
    if isinstance(expr, ComposeExpr):
        origins = _gather(expr.outer, parts, glues)
        inner_leaf = len(parts)
        inner_origins = _gather(expr.inner, parts, glues)
        slot = expr.slot
        glues.append((origins[slot - 1], inner_leaf))
        return (*origins[: slot - 1], *inner_origins, *origins[slot:])
    return renumbered_discs(_gather(expr.inner, parts, glues), expr.perm)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens: list[str], pos: int, depth: int = 0):
    """The form starting at ``pos``, inside ``depth`` enclosing forms.
    Atoms inside a form are taken in its loop, so only a form recurses."""
    n = len(tokens)
    if pos >= n:
        raise ParseError("unexpected end of input")
    tok = tokens[pos]
    if tok == ")":
        raise ParseError("unbalanced closing parenthesis")
    if tok != "(":
        return tok, pos + 1
    if depth > MAX_DEPTH:
        raise ParseError(f"forms nested more than MAX_DEPTH = {MAX_DEPTH} deep")
    items = []
    pos += 1
    while pos < n and (tok := tokens[pos]) != ")":
        if tok == "(":
            tok, pos = _read(tokens, pos, depth + 1)
        else:
            pos += 1
        items.append(tok)
    if pos >= n:
        raise ParseError("missing closing parenthesis")
    return items, pos + 1


def decimal_value(token: object) -> int | None:
    """The value of a plain decimal numeral, else None.  Every number in
    the input (colours, slots, permutation images and the entries of a
    basis label) must be one: ASCII digits only, so no sign, space,
    underscore or digit of another script."""
    if not (isinstance(token, str) and token.isascii() and token.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        return None


def _parse_colour(tok: str) -> tuple[int, bool]:
    if tok == "0+":
        return 0, False
    if tok == "0-":
        return 0, True
    k = decimal_value(tok)
    if k is None:
        raise ParseError(f"bad colour token {tok!r}")
    if k > MAX_COLOUR:
        raise ParseError(f"colour {k} is above the bound MAX_COLOUR = {MAX_COLOUR}")
    return k, False


@functools.lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def _leaf(form: tuple) -> GenExpr:
    """The leaf a ``(gen ...)`` form names, read once per distinct token
    tuple while among the ``GENERATOR_CACHE_SIZE`` most recently read (a
    refused form raises on every read)."""
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


def _build(form) -> TangleExpr:
    if not isinstance(form, list) or not form:
        raise ParseError(f"expected a parenthesized form, got {form!r}")
    head = form[0]
    if head == "gen":
        try:
            return _leaf(tuple(form))
        except TypeError:  # a form nested inside is no cache key, and no leaf
            return _leaf.__wrapped__(tuple(form))
    if head == "compose":
        if len(form) != 4:
            raise ParseError("(compose <outer> <slot> <inner>)")
        outer = _build(form[1])
        slot = decimal_value(form[2])
        if slot is None:
            raise ParseError(f"bad slot index {form[2]!r}")
        return ComposeExpr(outer, slot, _build(form[3]))
    if head == "renumber":
        if len(form) != 3 or not isinstance(form[1], list):
            raise ParseError("(renumber (<images...>) <expr>)")
        perm = tuple(decimal_value(x) for x in form[1])
        if None in perm:
            raise ParseError(f"bad permutation {form[1]!r}")
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
            external, slots = leaf.discs
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
    leaf = rng.choice(generators_with_external(colour, max_colour))
    expr: TangleExpr = leaf
    if depth > 0:
        leaf_slots = leaf.discs[1]
        # fill from the right so earlier slot indices stay valid
        for i in range(len(leaf_slots), 0, -1):
            if rng.random() < FILL_PROBABILITY:
                sub = random_expr(rng, leaf_slots[i - 1], max_colour, depth - 1)
                expr = ComposeExpr(expr, i, sub)
    n = len(expr.discs[1])
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
        slots = outer.discs[1]
        if not slots:
            continue
        i = rng.randint(1, len(slots))
        inner = random_expr(rng, slots[i - 1], max_colour, depth)
        if max_arity is not None and len(slots) - 1 + len(inner.discs[1]) > max_arity:
            continue
        return outer, i, inner
