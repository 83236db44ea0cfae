"""Shaded planar tangles as combinatorial data.

A tangle is an external disc, an ordered list of internal discs, and a
perfect matching ("strings") on the marked boundary points, plus a count
of free closed loops.  A disc of colour ``k`` carries ``2k`` points,
numbered clockwise starting immediately after the starred boundary
interval; the starred interval is white and interval colours alternate,
so ``[1,2], [3,4], ...`` are the black intervals.  Colour-0 discs carry
a shading flag telling whether the adjacent region is white (``0+``) or
black (``0-``).

In box form a colour-``k`` disc reads: points ``1..k`` along the top
left to right, ``k+1..2k`` along the bottom right to left, star at the
top left corner.

Composition glues a tangle into an internal disc and splices strings;
`loops_black` / `loops_white` count the closed loops left after capping
every black (resp. white) boundary interval, which is what the scalar
weight of a tangle is made of.

All three, and the genus check of `validate`, read the connected
components of one graph, from the module's single components routine.
Composition runs it over the strings with an endpoint on the glued disc
only, since no other string can merge; the rest pass through renamed.
Each loop count is made once per tangle and kept on the (immutable)
instance, and `make_generator` shares each diagram, keeping the
``GENERATOR_CACHE_SIZE`` most recently used.
``scripts/loop_count_oracle.py`` splices and counts by walking strings
instead, so the two share neither code nor algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Hashable, Iterable, NamedTuple, Sequence

from planarbox.scalars import RadicalScalar, pow_half


class TangleError(ValueError):
    """Structurally impossible request: bad colours, slots, or gluing."""


class Disc(NamedTuple):
    """Colour of a disc; ``shaded`` is only meaningful for colour 0."""

    colour: int
    shaded: bool = False

    def label(self) -> str:
        if self.colour == 0:
            return "0-" if self.shaded else "0+"
        return str(self.colour)


Point = tuple[int, int]  # (disc index, point number); disc 0 is external
Pair = tuple[Point, Point]


def _pair(a: Point, b: Point) -> Pair:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Tangle:
    """An immutable diagram.  Its two loop counts (`loops_black`,
    `loops_white`) are counted on first read and kept on the instance, so
    they live exactly as long as the tangle."""

    external: Disc
    internal: tuple[Disc, ...]
    strings: frozenset[Pair]
    closed_loops: int = 0

    @cached_property
    def _black_loops(self) -> int:
        return _count_cycles(self, cap_black=True)

    @cached_property
    def _white_loops(self) -> int:
        return _count_cycles(self, cap_black=False)

    def disc(self, index: int) -> Disc:
        return self.external if index == 0 else self.internal[index - 1]

    def points(self) -> list[Point]:
        out = [(0, p) for p in range(1, 2 * self.external.colour + 1)]
        for i, d in enumerate(self.internal, start=1):
            out.extend((i, p) for p in range(1, 2 * d.colour + 1))
        return out

    def __repr__(self) -> str:  # compact, deterministic
        discs = ",".join(d.label() for d in self.internal)
        return (
            f"Tangle({self.external.label()};[{discs}];"
            f"{len(self.strings)} strings;{self.closed_loops} loops)"
        )


def _check_disc(d: Disc) -> None:
    if d.colour < 0:
        raise TangleError(f"negative colour {d.colour}")
    if d.shaded and d.colour != 0:
        raise TangleError("shading flag only applies to colour-0 discs")


def tangle(
    external: Disc,
    internal: Iterable[Disc] = (),
    strings: Iterable[tuple[Point, Point]] = (),
    closed_loops: int = 0,
) -> Tangle:
    """Normalizing constructor; checks disc sanity but not planarity."""
    _check_disc(external)
    internal = tuple(internal)
    for d in internal:
        _check_disc(d)
    if closed_loops < 0:
        raise TangleError("negative closed-loop count")
    return Tangle(external, internal, frozenset(_pair(a, b) for a, b in strings), closed_loops)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

# Diagrams make_generator keeps: more than the 36 generators with every
# colour <= 5, which is all the samplers draw.
GENERATOR_CACHE_SIZE = 64


@lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def make_generator(kind: str, k: int = 0, shaded: bool = False) -> Tangle:
    """Concrete diagram of a generating tangle.

    ``k`` is the defining colour: for ``I`` (inclusion) and ``E`` (right
    expectation) it is the smaller of the two colours involved.  The
    ``shaded`` flag picks the region colour where a colour-0 disc is
    involved; it is rejected where the diagram forces the shading.

    Each diagram is built once and shared: the ``GENERATOR_CACHE_SIZE``
    most recently used are kept, and a tangle is immutable, so every caller
    gets the same object.
    """
    if shaded and kind == "E":
        raise TangleError("the capped-disc expectation forces white shading")
    d = Disc(k, shaded)  # every branch uses d, which tangle() refuses shaded above colour 0
    if kind == "unit":
        if k != 0:
            raise TangleError("unit tangles have colour 0")
        return tangle(d)
    if kind == "id":
        return tangle(d, [d], [((0, j), (1, j)) for j in range(1, 2 * k + 1)])
    if kind == "M":
        strings: list[tuple[Point, Point]] = []
        for j in range(1, k + 1):
            strings.append(((0, j), (1, j)))
            strings.append(((1, k + j), (2, k + 1 - j)))
            strings.append(((2, k + j), (0, k + j)))
        return tangle(d, [d, d], strings)
    if kind == "I":
        # one internal colour-k disc, external colour k+1, extra strand
        # running down the right side
        strings = [((0, j), (1, j)) for j in range(1, k + 1)]
        strings.append(((0, k + 1), (0, k + 2)))
        strings.extend(((1, k + j), (0, k + 2 + j)) for j in range(1, k + 1))
        return tangle(Disc(k + 1), [d], strings)
    if kind == "E":
        # one internal colour-(k+1) disc whose rightmost point pair is
        # joined, external colour k
        strings = [((0, j), (1, j)) for j in range(1, k + 1)]
        strings.append(((1, k + 1), (1, k + 2)))
        strings.extend(((1, k + 2 + j), (0, k + j)) for j in range(1, k + 1))
        return tangle(d, [Disc(k + 1)], strings)
    if kind == "Eprime":
        # left-side variant: strand down the left, leftmost point pair
        # of the internal disc joined around the left
        if k < 1:
            raise TangleError("left expectation needs colour >= 1")
        strings = [((0, 1), (0, 2 * k)), ((1, 1), (1, 2 * k))]
        strings.extend(((0, j), (1, j)) for j in range(2, 2 * k))
        return tangle(d, [d], strings)
    if kind == "jones":
        if k < 2:
            raise TangleError("the cup-cap tangle needs colour >= 2")
        strings = [((0, i), (0, 2 * k + 1 - i)) for i in range(1, k - 1)]
        strings.append(((0, k - 1), (0, k)))
        strings.append(((0, k + 1), (0, k + 2)))
        return tangle(d, [], strings)
    raise TangleError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# connected components, composition and renumbering
# ---------------------------------------------------------------------------

def _components(
    edges: Iterable[tuple[Hashable, Hashable]], nodes: Iterable[Hashable] = ()
) -> dict[Hashable, Hashable]:
    """Connected components of a graph: every node of ``nodes`` or on an
    edge -> the first-seen node of its component."""
    adjacent: dict[Hashable, list[Hashable]] = {x: [] for x in nodes}
    for a, b in edges:
        adjacent.setdefault(a, []).append(b)
        adjacent.setdefault(b, []).append(a)
    component: dict[Hashable, Hashable] = {}
    for start in adjacent:
        if start in component:
            continue
        component[start] = start
        stack = [start]
        while stack:
            for y in adjacent[stack.pop()]:
                if y not in component:
                    component[y] = start
                    stack.append(y)
    return component


def glued_discs(discs: Sequence[Disc], slot: int, inner_external: Disc,
                inner_discs: Sequence[Disc]) -> tuple[Disc, ...]:
    """The internal discs after gluing a tangle (``inner_external``,
    ``inner_discs``) into disc ``slot``: the inner discs take its place, in
    order.  Raises :class:`TangleError` on a slot out of range or a colour
    mismatch, for :func:`compose` and for trees alike."""
    if not 1 <= slot <= len(discs):
        raise TangleError(f"slot {slot} out of range 1..{len(discs)}")
    if discs[slot - 1] != inner_external:
        raise TangleError(f"colour mismatch at slot {slot}: disc is {discs[slot - 1].label()}, "
                          f"tangle is {inner_external.label()}")
    return (*discs[: slot - 1], *inner_discs, *discs[slot:])


def renumbered_discs(discs: Sequence[Disc], sigma: Sequence[int]) -> tuple[Disc, ...]:
    """The internal discs after renumbering: disc ``sigma[i-1]`` of the
    result is disc ``i`` of ``discs``.  Raises :class:`TangleError` unless
    ``sigma`` is a permutation of ``1..len(discs)``."""
    b = len(discs)
    if sorted(sigma) != list(range(1, b + 1)):
        raise TangleError(f"not a permutation of 1..{b}: {list(sigma)}")
    return tuple(discs[i] for i in sorted(range(b), key=sigma.__getitem__))


_GLUED = -1  # disc index shared by both sides of the glued boundary


def compose(outer: Tangle, slot: int, inner: Tangle) -> Tangle:
    """Glue ``inner`` into internal disc ``slot`` of ``outer``.

    Every endpoint is renamed into the result's disc numbering, with the
    glued boundary's points seen from either side sharing one name.  Only
    strings with an endpoint on that boundary are spliced: a component of
    them with two endpoints off it is a new string, one with none is a new
    free loop.  Every other string passes through renamed.

    Both sides are valid tangles, so the result is built directly, not
    through :func:`tangle`: the renaming is increasing off the glued disc,
    so a renamed pass-through pair keeps its order, and only the spliced
    pairs are ordered.
    """
    internal = glued_discs(outer.internal, slot, inner.external, inner.internal)
    # disc index on either side -> disc index in the result
    b_in = len(inner.internal)
    outer_disc = [*range(slot), _GLUED, *range(slot + b_in, len(outer.internal) + b_in)]
    inner_disc = [_GLUED, *range(slot, slot + b_in)]
    kept: list[Pair] = []
    edges: list[Pair] = []
    for strings, rename in ((outer.strings, outer_disc), (inner.strings, inner_disc)):
        for (d, p), (e, q) in strings:
            d, e = rename[d], rename[e]
            (edges if _GLUED in (d, e) else kept).append(((d, p), (e, q)))

    ends: dict[Hashable, list[Point]] = {}
    for pt, root in _components(edges).items():
        found = ends.setdefault(root, [])
        if pt[0] != _GLUED:
            found.append(pt)
    spliced = [_pair(*pair) for pair in ends.values() if pair]
    return Tangle(
        outer.external,
        internal,
        frozenset(chain(kept, spliced)),
        outer.closed_loops + inner.closed_loops + len(ends) - len(spliced),
    )


def renumber(t: Tangle, sigma: Sequence[int]) -> Tangle:
    """Relabel internal discs so that disc ``sigma[i-1]`` of the result
    is disc ``i`` of ``t``.  The diagram itself is unchanged."""
    internal = renumbered_discs(t.internal, sigma)

    def move(pt: Point) -> Point:
        d, p = pt
        return (d, p) if d == 0 else (sigma[d - 1], p)

    return tangle(
        t.external,
        internal,
        [(move(a), move(b)) for a, b in t.strings],
        t.closed_loops,
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagnostics:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def __repr__(self) -> str:
        return "ok" if self.ok else "; ".join(self.problems)


def _rotation_next(t: Tangle, d: int, p: int) -> int:
    """Successor of point ``p`` around disc ``d`` as seen from the
    string region: clockwise for internal discs, reversed for the
    external one."""
    n = 2 * t.disc(d).colour
    if d == 0:
        return p - 1 if p > 1 else n
    return p + 1 if p < n else 1


def _interval_is_black(d: int, p: int) -> bool:
    """Colour of the boundary interval crossed when a face arrives at
    point ``p`` of disc ``d`` and moves to its rotation successor."""
    # internal discs: interval (p, p+1), black iff p odd;
    # external disc: interval (p-1, p), black iff p even
    return p % 2 == 1 if d != 0 else p % 2 == 0


def validate(t: Tangle) -> Diagnostics:
    """Perfect-matching, genus-0, and shading diagnostics."""
    problems: list[str] = []
    try:
        _check_disc(t.external)
        for d in t.internal:
            _check_disc(d)
    except TangleError as exc:
        return Diagnostics((str(exc),))
    if t.closed_loops < 0:
        problems.append("negative closed-loop count")

    points = t.points()
    point_set = set(points)
    seen: dict[Point, int] = {pt: 0 for pt in points}
    other: dict[Point, Point] = {}
    for a, b in t.strings:
        for pt in (a, b):
            if pt not in point_set:
                problems.append(f"string endpoint {pt} is not a marked point")
            else:
                seen[pt] += 1
        if a == b:
            problems.append(f"string with coincident endpoints {a}")
        other[a] = b
        other[b] = a
    uncovered = [pt for pt, n in seen.items() if n != 1]
    for pt in uncovered:
        problems.append(
            f"point {pt} lies on {seen[pt]} strings (perfect matching needs exactly 1)"
        )
    if problems:
        return Diagnostics(tuple(problems))

    # connected components of the disc/string graph, every disc a node
    n_discs = len(t.internal) + 1
    component = _components(((a[0], b[0]) for a, b in t.strings), range(n_discs))

    # face tracing: darts are ordered endpoint pairs of strings
    visited: set[tuple[Point, Point]] = set()
    faces_per_component: dict[int, int] = {}
    for s in t.strings:
        for dart in (s, (s[1], s[0])):
            if dart in visited:
                continue
            root = component[dart[0][0]]
            shades: set[bool] = set()
            cur = dart
            while cur not in visited:
                visited.add(cur)
                d, p = cur[1]
                q = _rotation_next(t, d, p)
                shades.add(_interval_is_black(d, p))
                cur = ((d, q), other[(d, q)])
            faces_per_component[root] = faces_per_component.get(root, 0) + 1
            if len(shades) > 1:
                problems.append(
                    f"face through {dart[0]} touches both black and white intervals"
                )

    counts: dict[int, list[int]] = {}
    for d in range(n_discs):
        counts.setdefault(component[d], [0, 0])[0] += 1
    for a, b in t.strings:
        counts[component[a[0]]][1] += 1
    for root, (v, e) in counts.items():
        f = faces_per_component.get(root, 1 if e == 0 else 0)
        if v - e + f != 2:
            problems.append(
                f"component at disc {root} has Euler characteristic {v - e + f}, "
                "not 2 (strings cannot be drawn without crossings)"
            )
    return Diagnostics(tuple(problems))


# ---------------------------------------------------------------------------
# loop counts and the capping scalar
# ---------------------------------------------------------------------------

def _cap_edges(t: Tangle, black: bool) -> list[tuple[Point, Point]]:
    edges: list[tuple[Point, Point]] = []
    for d in range(len(t.internal) + 1):
        k = t.disc(d).colour
        if black:
            edges.extend(((d, 2 * i - 1), (d, 2 * i)) for i in range(1, k + 1))
        else:
            edges.extend(((d, 2 * i), (d, 2 * i + 1)) for i in range(1, k))
            if k:
                edges.append(((d, 2 * k), (d, 1)))
    return edges


def _count_cycles(t: Tangle, cap_black: bool) -> int:
    """Cycles of the strings together with one cap per boundary interval
    of the chosen colour; the caps cover every point, and every point gets
    degree exactly 2, so each component is one cycle."""
    component = _components(chain(t.strings, _cap_edges(t, cap_black)))
    return len(set(component.values())) + t.closed_loops


def loops_black(t: Tangle) -> int:
    """Closed loops after capping black intervals everywhere (free loops
    included); counted once per tangle."""
    return t._black_loops


def loops_white(t: Tangle) -> int:
    """Mirror count: white intervals capped instead."""
    return t._white_loops


def _half_colour_sum(t: Tangle) -> int:
    return (t.external.colour + 1) // 2 + sum(d.colour // 2 for d in t.internal)


def capping_exponent(t: Tangle) -> int:
    """The integer ``c`` with scalar weight ``ratio ** (c/2)``."""
    return _half_colour_sum(t) - loops_black(t)


def capping_exponent_white(t: Tangle) -> int:
    return _half_colour_sum(t) - loops_white(t)


def alpha(t: Tangle, ratio: int) -> RadicalScalar:
    """``ratio ** (c/2)`` for the black capping count, exactly."""
    return pow_half(ratio, capping_exponent(t))


def alpha_tilde(t: Tangle, ratio: int) -> RadicalScalar:
    """White-capping companion of :func:`alpha`."""
    return pow_half(ratio, capping_exponent_white(t))
