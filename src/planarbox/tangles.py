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

Every graph these build has degree 2 at each point, so each is walked,
not searched.  A tangle's strings also have an integer form, a partner
id for every point, kept on the (immutable) instance with its faces and
its capping counts.  Gluing any number of tangles is one splice
(`_splice`): from each open point, follow string partners, hopping
across every glued disc, to the other end; glued points no walk reaches
close into free loops.  The splice writes the result's integer form as
it goes and keeps only that form on the result: its strings, as point
pairs, are made from the form on first read, so no glued tangle is read
back from its pairs and none is written out as pairs unless asked for.
`compose` and `renumber` splice one or two tangles and
``expressions.realize`` a whole tree.
One face walk serves both loop counts and `validate`: a loop left by the
black caps is a face touching black intervals only, and likewise for
white (see `Tangle._faces`).  The capping counts, read by `alpha`,
`alpha_tilde`, the capping exponents and the loop counts, are made once
per tangle (`_loop_counts`).  `validate` reads its matching check off
the integer form, which exists exactly when the strings are a perfect
matching, and joins discs into components with a union-find over the
partner ids that land on another disc; only where no form exists does
it read the strings, to name every fault.  `make_generator` shares each
diagram, keeping the ``GENERATOR_CACHE_SIZE`` most recently used.
``scripts/loop_count_oracle.py`` splices by walking strings too, but
counts loops by walking strings and caps, over its own encoding; it
shares no code with this module.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

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


class Tangle:
    """An immutable diagram: ``Tangle(external, internal, strings,
    closed_loops=0)``.  Equality and hashing read those four values.

    The integer form of its strings, which the splice walks, its faces,
    from which the loop counts and `validate` read, and its capping counts
    are made on first read and kept on the instance, so they live exactly
    as long as the tangle.  A tangle a splice builds keeps only its integer
    form, from the splice, and its ``strings`` are made from that form on
    first read, the mirror of how the form of any other tangle is made from
    its strings."""

    external: Disc
    internal: tuple[Disc, ...]
    closed_loops: int

    def __init__(self, external: Disc, internal: tuple[Disc, ...],
                 strings: frozenset[Pair], closed_loops: int = 0):
        vars(self).update(external=external, internal=internal, strings=strings,
                          closed_loops=closed_loops)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.external, self.internal, self.strings, self.closed_loops

    def __eq__(self, other: object) -> bool:
        if type(other) is not Tangle:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def strings(self) -> frozenset[Pair]:
        """The strings as point pairs, each ordered as ``_pair`` orders it,
        named from the integer form: only a tangle a splice builds makes
        them here, as any other is given its strings."""
        offsets, partner = self._form
        names = [(d, p) for d, (first, stop) in enumerate(zip(offsets, offsets[1:]))
                 for p in range(1, stop - first + 1)]
        return frozenset([(names[x], names[y]) for x, y in enumerate(partner) if x < y])

    @cached_property
    def _form(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The strings over integer point ids: point ``p`` of disc ``d`` is
        id ``offsets[d] + p - 1``, and ``partner[x]`` is the other end of the
        string at ``x``.  Every offset is even, so ``x`` and ``x ^ 1`` bound
        one black interval.  Raises :class:`TangleError` unless the strings
        are a perfect matching of the marked points; an end off every disc
        is refused before its id could land on another disc's points."""
        sizes = [2 * d.colour for d in (self.external, *self.internal)]
        offsets = [0, *accumulate(sizes)]
        unmatched = TangleError("the strings are not a perfect matching of the marked points")
        partner = [-1] * offsets[-1]
        n_discs = len(sizes)
        for (d, p), (e, q) in self.strings:
            if not (0 <= d < n_discs and 0 <= e < n_discs
                    and 0 < p <= sizes[d] and 0 < q <= sizes[e]):
                raise unmatched
            x, y = offsets[d] + p - 1, offsets[e] + q - 1
            partner[x], partner[y] = y, x
        if len(self.strings) * 2 != len(partner) or -1 in partner:
            raise unmatched
        return tuple(offsets), tuple(partner)

    @cached_property
    def _faces(self) -> tuple[tuple[tuple[int, int], ...], int, int]:
        """Every face as (first point id, colours touched: 1 black, 2 white,
        3 both), then how many faces touch black only and white only.

        A face arrives along a string at ``y``, crosses the boundary
        interval to ``y``'s neighbour round its disc (as seen from the
        string region: clockwise round internal discs, reversed round the
        external one), and leaves along the string there; each departure
        point is visited once, each walk starting at the least point id
        not yet visited, so equal tangles list equal faces however their
        strings were listed.  Offsets are even, so that interval is black iff
        ``y`` is even on an internal disc or odd on the external one.  The
        neighbour across it is then ``y ^ 1``, ``y``'s black cap partner,
        and across a white interval it is the white cap partner.  So a face
        touching black intervals only walks one cycle of strings and black
        caps, and when no face touches both colours every such cycle is
        one such face: the loops the black caps leave are the black faces,
        and likewise for white."""
        offsets, partner = self._form
        n_ext = offsets[1]
        wrap = {0: n_ext - 1} if n_ext else {}
        for first, stop in zip(offsets[1:], offsets[2:]):
            if stop > first:
                wrap[stop - 1] = first
        visited = bytearray(len(partner))
        faces = []
        counts = [0, 0, 0, 0]
        start = visited.find(0)
        while start >= 0:
            touches = 0
            x = start
            while not visited[x]:
                visited[x] = 1
                y = partner[x]
                touches |= 1 if (y & 1) == (y < n_ext) else 2
                x = wrap.get(y, y - 1 if y < n_ext else y + 1)
            faces.append((start, touches))
            counts[touches] += 1
            start = visited.find(0, start)
        return tuple(faces), counts[1], counts[2]

    @cached_property
    def _capping(self) -> tuple[int, int, int]:
        """The capping counts, see :func:`_loop_counts`."""
        return _loop_counts(self)

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
# composition and renumbering
# ---------------------------------------------------------------------------

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


def renumbered_discs(discs: Sequence, sigma: Sequence[int]) -> tuple:
    """The internal discs after renumbering: disc ``sigma[i-1]`` of the
    result is disc ``i`` of ``discs``.  Raises :class:`TangleError` unless
    ``sigma`` is a permutation of ``1..len(discs)``.  Any per-disc sequence
    is moved the same way."""
    b = len(discs)
    if sorted(sigma) != list(range(1, b + 1)):
        raise TangleError(f"not a permutation of 1..{b}: {list(sigma)}")
    return tuple(discs[i] for i in sorted(range(b), key=sigma.__getitem__))


DiscRef = tuple[int, int]  # (part, disc index within that part)


def _splice(parts: Sequence[Tangle], glues: Iterable[tuple[DiscRef, int]],
            order: Sequence[DiscRef], internal: tuple[Disc, ...]) -> Tangle:
    """The tangle of ``parts`` glued together, its integer form made on the
    way and kept in its ``_form`` slot; that form is all it keeps, and its
    ``strings`` are made from it on first read.

    Each glue ``((a, s), b)`` puts the external disc of part ``b`` into
    internal disc ``s`` of part ``a``, point ``p`` meeting point ``p``.
    Part 0's external disc stays the external one, and ``order`` lists the
    discs left open, as the result's internal discs ``1, 2, ...``, which
    are ``internal``: the callers work them out, checking the colours.

    Every part's points are laid end to end as integer ids.  A glued point
    has a twin across its disc; an open point has an id in the result.
    Every point lies on one string, so walking from an open point through
    string partners, hopping to the twin at each glued point, ends at the
    other end of its result string, and both ends get each other's result
    id as partner.  Glued points no such walk reaches close into free
    loops.
    """
    forms = [t._form for t in parts]
    base, n = [], 0
    for offsets, _ in forms:
        base.append(n)
        n += offsets[-1]

    partner: list[int] = []
    for (_, own), shift in zip(forms, base):
        partner.extend([x + shift for x in own] if shift else own)
    twin = [-1] * n
    for (a, s), b in glues:
        start = base[a] + forms[a][0][s]
        size = forms[b][0][1]
        twin[start:start + size] = range(base[b], base[b] + size)
        twin[base[b]:base[b] + size] = range(start, start + size)

    rid = [-1] * n  # result id of each open point
    offsets = [0]
    opened = []
    for i, d in ((0, 0), *order):
        start = base[i] + forms[i][0][d]
        stop = base[i] + forms[i][0][d + 1]
        rid[start:stop] = range(offsets[-1], offsets[-1] + stop - start)
        offsets.append(offsets[-1] + stop - start)
        opened.append(range(start, stop))

    seen = bytearray(n)
    result = [-1] * offsets[-1]
    for span in opened:
        for x in span:
            if seen[x]:
                continue
            seen[x] = 1
            y = partner[x]
            while (w := twin[y]) >= 0:
                seen[y] = seen[w] = 1
                y = partner[w]
            seen[y] = 1
            a, b = rid[x], rid[y]
            result[a], result[b] = b, a

    loops = sum(t.closed_loops for t in parts)
    x = seen.find(0)
    while x >= 0:
        loops += 1
        while not seen[x]:
            w = twin[x]
            seen[x] = seen[w] = 1
            x = partner[w]
        x = seen.find(0, x)
    t = object.__new__(Tangle)
    # the strings are left to be made from the form on first read
    vars(t).update(external=parts[0].external, internal=internal, closed_loops=loops,
                   _form=(tuple(offsets), tuple(result)))
    return t


def compose(outer: Tangle, slot: int, inner: Tangle) -> Tangle:
    """Glue ``inner`` into internal disc ``slot`` of ``outer``: one
    :func:`_splice` of the two, the inner discs taking the slot's place."""
    internal = glued_discs(outer.internal, slot, inner.external, inner.internal)
    order = [*((0, d) for d in range(1, slot)),
             *((1, d) for d in range(1, len(inner.internal) + 1)),
             *((0, d) for d in range(slot + 1, len(outer.internal) + 1))]
    return _splice((outer, inner), [((0, slot), 1)], order, internal)


def renumber(t: Tangle, sigma: Sequence[int]) -> Tangle:
    """Relabel internal discs so that disc ``sigma[i-1]`` of the result
    is disc ``i`` of ``t``.  The diagram itself is unchanged."""
    internal = renumbered_discs(t.internal, sigma)
    order = renumbered_discs([(0, d) for d in range(1, len(internal) + 1)], sigma)
    return _splice((t,), (), order, internal)


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


def validate(t: Tangle) -> Diagnostics:
    """Perfect-matching, genus-0, and shading diagnostics.

    The strings are a perfect matching exactly when the integer form can
    be made, so only where it cannot are the strings read and the marked
    points counted, to name every fault.  A component's discs are joined
    over the integer form, by the partner ids that land on an earlier
    disc, so each string between two discs is met once; a colour-``k``
    disc holds ``2k`` string ends, so a component has as many strings as
    the colours of its discs add up to, and its faces are read off
    `Tangle._faces`."""
    problems: list[str] = []
    try:
        _check_disc(t.external)
        for d in t.internal:
            _check_disc(d)
    except TangleError as exc:
        return Diagnostics((str(exc),))
    if t.closed_loops < 0:
        problems.append("negative closed-loop count")

    try:
        offsets, partner = t._form
    except TangleError:  # name every fault of the matching
        seen: dict[Point, int] = {pt: 0 for pt in t.points()}
        for a, b in t.strings:
            for pt in (a, b):
                if pt not in seen:
                    problems.append(f"string endpoint {pt} is not a marked point")
                else:
                    seen[pt] += 1
            if a == b:
                problems.append(f"string with coincident endpoints {a}")
        for pt, n in seen.items():
            if n != 1:
                problems.append(
                    f"point {pt} lies on {n} strings (perfect matching needs exactly 1)"
                )
    if problems:
        return Diagnostics(tuple(problems))

    # components of the disc/string graph, each rooted at its least disc
    root = list(range(len(t.internal) + 1))

    def find(d: int) -> int:
        while root[d] != d:
            d = root[d]
        return d

    for d in range(1, len(root)):
        first = offsets[d]
        # the earlier discs d's strings reach: each string between two
        # discs is met once, from its later disc
        for e in {bisect_right(offsets, y) - 1 for y in partner[first:offsets[d + 1]] if y < first}:
            a, b = find(d), find(e)
            root[max(a, b)] = min(a, b)
    component = [find(d) for d in range(len(root))]

    # discs, strings and faces (Tangle._faces) per component
    counts: dict[int, list[int]] = {}
    for c, disc in zip(component, (t.external, *t.internal)):
        entry = counts.setdefault(c, [0, 0, 0])
        entry[0] += 1
        entry[1] += disc.colour
    for start, touches in t._faces[0]:
        disc = bisect_right(offsets, start) - 1
        counts[component[disc]][2] += 1
        if touches == 3:
            problems.append(f"face through {(disc, start - offsets[disc] + 1)} "
                            "touches both black and white intervals")
    for root_disc, (v, e, f) in counts.items():
        f = f if e else 1  # a disc without strings bounds one face
        if v - e + f != 2:
            problems.append(
                f"component at disc {root_disc} has Euler characteristic {v - e + f}, "
                "not 2 (strings cannot be drawn without crossings)"
            )
    return Diagnostics(tuple(problems))


# ---------------------------------------------------------------------------
# loop counts and the capping scalar
# ---------------------------------------------------------------------------

def _loop_counts(t: Tangle) -> tuple[int, int, int]:
    """The capping counts (half-colour sum, :func:`loops_black`,
    :func:`loops_white`), which every capping read takes from
    ``Tangle._capping``, made once per tangle."""
    faces, black, white = t._faces
    if black + white < len(faces):
        raise TangleError("a face touches both black and white intervals")
    half = (t.external.colour + 1) // 2 + sum(d.colour // 2 for d in t.internal)
    return half, t.closed_loops + black, t.closed_loops + white


def loops_black(t: Tangle) -> int:
    """Closed loops after capping black intervals everywhere, free loops
    included: ``closed_loops`` plus one per face touching black intervals
    only (see `Tangle._faces`).  Raises :class:`TangleError` where a face
    touches both colours, which `validate` reports and no shaded planar
    tangle has."""
    return t._capping[1]


def loops_white(t: Tangle) -> int:
    """Mirror count: white intervals capped instead."""
    return t._capping[2]


def capping_exponent(t: Tangle) -> int:
    """The integer ``c`` with scalar weight ``ratio ** (c/2)``."""
    half, black, _ = t._capping
    return half - black


def alpha(t: Tangle, ratio: int) -> RadicalScalar:
    """``ratio ** (c/2)`` for the black capping count, exactly."""
    half, black, _ = t._capping
    return pow_half(ratio, half - black)


def alpha_tilde(t: Tangle, ratio: int) -> RadicalScalar:
    """White-capping companion of :func:`alpha`."""
    half, _, white = t._capping
    return pow_half(ratio, half - white)
