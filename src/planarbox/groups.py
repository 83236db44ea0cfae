"""Finite groups, automorphism actions, and semidirect products.

Groups are multiplication tables over indices 0..n-1 with the identity
pinned at index 0.  An action is a homomorphism from a group ``theta``
into the automorphisms of a group ``g``, stored as one permutation per
``theta`` element.  The semidirect product is built on encoded pairs so
the rest of the library only ever sees plain index groups.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence


# Validating a table checks all n^3 triples for associativity, one numpy
# comparison of n^2 pairs per left factor; the later stages (the semidirect
# product, colour-k spaces of dimension n^(k-1)) grow faster still.
MAX_GROUP_ORDER = 256


class GroupError(ValueError):
    """Raised for invalid tables, non-automorphic maps, and the like."""


def _check_order(n: int, what: str) -> None:
    if n > MAX_GROUP_ORDER:
        raise GroupError(f"{what} has order {n}, above the maximum {MAX_GROUP_ORDER}")


class FiniteGroup:
    """A finite group given by its full multiplication table.

    The table is validated on construction: associativity, a two-sided
    identity at index 0, and two-sided inverses.  Instances are treated
    as immutable.
    """

    __slots__ = ("table", "order", "names", "_inverse")

    def __init__(self, table: Sequence[Sequence[int]], names: Sequence[str] | None = None):
        n = len(table)
        if n == 0:
            raise GroupError("empty multiplication table")
        _check_order(n, "multiplication table")
        rows = tuple(tuple(row) for row in table)
        for row in rows:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise GroupError("table is not a square array of indices")
        for a in range(n):
            if rows[0][a] != a or rows[a][0] != a:
                raise GroupError("index 0 is not a two-sided identity")
        inverse = [-1] * n
        for a in range(n):
            for b in range(n):
                if rows[a][b] == 0 and rows[b][a] == 0:
                    inverse[a] = b
                    break
            if inverse[a] < 0:
                raise GroupError(f"element {a} has no two-sided inverse")
        import numpy as np

        t = np.array(rows)
        for a in range(n):
            # (a b) c against a (b c); argwhere lists (b, c) in loop order
            bad = np.argwhere(t[t[a]] != t[a][t])
            if len(bad):
                b, c = bad[0]
                raise GroupError(f"associativity fails at ({a}, {b}, {c})")
        if names is not None and len(names) != n:
            raise GroupError("names list does not match group order")
        self.table = rows
        self.order = n
        self.names = tuple(names) if names is not None else tuple(str(i) for i in range(n))
        self._inverse = tuple(inverse)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def name(self, a: int) -> str:
        return self.names[a]

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic group order must be positive")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table)


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def group_from_permutations(perms: Sequence[Sequence[int]], degree: int) -> FiniteGroup:
    """Generate a permutation group and return its multiplication table.

    Elements are numbered with the identity first, then the remaining
    permutations in lexicographic order, so the numbering is independent
    of the order the generators were given in.  The degree must be
    positive, and each generator's length is checked against it before
    anything of that size is built; no generators give the trivial group.
    """
    if degree < 1:
        raise GroupError(f"degree must be positive, got {degree}")
    if not perms:
        return trivial_group()
    gens = []
    for p in perms:
        t = tuple(p)
        if len(t) != degree or sorted(t) != list(range(degree)):
            raise GroupError(f"{list(p)} is not a permutation of 0..{degree - 1}")
        gens.append(t)
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = tuple(a[g[i]] for i in range(degree))
                if c not in seen:
                    _check_order(len(seen) + 1, "generated group")
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    elems = [identity] + sorted(seen - {identity})
    index = {p: i for i, p in enumerate(elems)}
    table = [
        [index[tuple(a[b[i]] for i in range(degree))] for b in elems]
        for a in elems
    ]
    return FiniteGroup(table)


def _index_list(value, what: str) -> Sequence[int]:
    """A list of integers, or a GroupError naming ``what``."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise GroupError(f"{what} must be a list of integers")
    return value


def _index_rows(value, what: str) -> list[Sequence[int]]:
    if not isinstance(value, (list, tuple)):
        raise GroupError(f"{what} must be a list of integer lists")
    return [_index_list(row, f"each row of {what}") for row in value]


def load_group(spec: Mapping) -> FiniteGroup:
    """Build a group from a parsed JSON object.

    Accepts either ``{"table": [[...]]}`` or
    ``{"permutations": [[...], ...], "degree": n}``; an optional
    ``"names"`` list labels the elements (table form only, since the
    permutation form renumbers).  Any other key, a table form with
    ``"permutations"`` or a permutation form with ``"names"``, is refused
    by name.  Ill-shaped input, and a group of order above
    ``MAX_GROUP_ORDER``, raise GroupError.
    """
    if not isinstance(spec, Mapping):
        raise GroupError("group spec must be an object")
    if "table" in spec:
        allowed = ("table", "names")
    elif "permutations" in spec:
        allowed = ("permutations", "degree")
    else:
        raise GroupError("group spec needs a 'table' or 'permutations' entry")
    for key in spec:
        if key not in allowed:
            raise GroupError(f"group spec key {key!r} is not allowed beside {allowed[0]!r}")
    if "table" in spec:
        names = spec.get("names")
        if names is not None and not (
            isinstance(names, (list, tuple)) and all(isinstance(x, str) for x in names)
        ):
            raise GroupError("group names must be a list of strings")
        return FiniteGroup(_index_rows(spec["table"], "table"), names)
    if "degree" not in spec:
        raise GroupError("permutation group spec needs a degree")
    degree = spec["degree"]
    if not isinstance(degree, int) or isinstance(degree, bool):
        raise GroupError("degree must be an integer")
    return group_from_permutations(_index_rows(spec["permutations"], "permutations"), degree)


class GroupAction:
    """A faithful homomorphism from ``theta`` into automorphisms of ``g``.

    ``maps[t]`` is the permutation of group indices implementing the
    automorphism attached to theta element ``t``.  Construction checks
    that each map is an automorphism, that the assignment respects the
    theta multiplication, and that distinct theta elements act
    differently (the theory downstream identifies theta with its image).
    """

    __slots__ = ("group", "theta", "maps")

    def __init__(self, group: FiniteGroup, theta: FiniteGroup, maps: Sequence[Sequence[int]]):
        if len(maps) != theta.order:
            raise GroupError("need exactly one automorphism per theta element")
        perms = tuple(tuple(m) for m in maps)
        n = group.order
        for t, p in enumerate(perms):
            if sorted(p) != list(range(n)):
                raise GroupError(f"map for theta element {t} is not a permutation")
            for a in range(n):
                for b in range(n):
                    if p[group.op(a, b)] != group.op(p[a], p[b]):
                        raise GroupError(
                            f"map for theta element {t} is not an automorphism"
                        )
        if perms[0] != tuple(range(n)):
            raise GroupError("theta identity must act as the identity map")
        for s in range(theta.order):
            for t in range(theta.order):
                st = theta.op(s, t)
                composed = tuple(perms[s][perms[t][a]] for a in range(n))
                if composed != perms[st]:
                    raise GroupError("maps do not respect theta multiplication")
        if len(set(perms)) != theta.order:
            raise GroupError("action is not faithful: two theta elements act alike")
        self.group = group
        self.theta = theta
        self.maps = perms

    def apply(self, t: int, g: int) -> int:
        return self.maps[t][g]

    def apply_tuple(self, t: int, gs: Iterable[int]) -> tuple[int, ...]:
        m = self.maps[t]
        return tuple(m[g] for g in gs)

    def __repr__(self) -> str:
        return f"GroupAction(|G|={self.group.order}, |Theta|={self.theta.order})"


def inversion_action(n: int) -> GroupAction:
    """The order-2 inversion action on a cyclic group of order n >= 3."""
    g = cyclic_group(n)
    theta = cyclic_group(2)
    ident = list(range(n))
    inv = [(-a) % n for a in range(n)]
    return GroupAction(g, theta, [ident, inv])


def trivial_action(group: FiniteGroup) -> GroupAction:
    return GroupAction(group, trivial_group(), [list(range(group.order))])


def load_action(spec: Mapping) -> GroupAction:
    """Build an action from a parsed JSON object.

    Shape: ``{"group": ..., "theta": ..., "action": {"<t>": [...]}}``
    where the action keys are theta indices as strings, ``str(t)``; any
    other key, there or at the top level, is refused.  The entry for the
    theta identity may be omitted.  Ill-shaped input raises GroupError.
    """
    if not isinstance(spec, Mapping):
        raise GroupError("action spec must be an object")
    for key in spec:
        if key not in ("group", "theta", "action"):
            raise GroupError(f"action spec key {key!r} is not 'group', 'theta' or 'action'")
    for key in ("group", "theta"):
        if key not in spec:
            raise GroupError(f"action spec needs a {key!r} entry")
    group = load_group(spec["group"])
    theta = load_group(spec["theta"])
    _check_order(group.order * theta.order, "semidirect product")
    raw = spec.get("action", {})
    if not isinstance(raw, Mapping):
        raise GroupError("'action' must map theta indices to permutations")
    indices = {str(t) for t in range(theta.order)}
    for key in raw:
        if key not in indices:
            raise GroupError(f"action key {key!r} is not a theta index 0..{theta.order - 1}")
    maps: list[Sequence[int]] = []
    for t in range(theta.order):
        key = str(t)
        if key in raw:
            maps.append(_index_list(raw[key], f"action entry {key!r}"))
        elif t == 0:
            maps.append(list(range(group.order)))
        else:
            raise GroupError(f"action spec is missing theta element {t}")
    return GroupAction(group, theta, maps)


class SemidirectGroup(FiniteGroup):
    """The semidirect product of an action, on encoded pairs.

    The pair (g, t) is stored at index g * |theta| + t, so the identity
    pair lands at index 0 and the product rule
    (g1, t1)(g2, t2) = (g1 * t1(g2), t1 t2) becomes an ordinary table.
    """

    __slots__ = ("action",)

    def __init__(self, action: GroupAction):
        g, th = action.group, action.theta
        m = th.order
        size = g.order * m
        table = [[0] * size for _ in range(size)]
        for g1, t1, g2, t2 in itertools.product(
            g.elements(), th.elements(), g.elements(), th.elements()
        ):
            prod = g.op(g1, action.apply(t1, g2)) * m + th.op(t1, t2)
            table[g1 * m + t1][g2 * m + t2] = prod
        names = [
            f"({g.name(a)},{th.name(t)})"
            for a in g.elements()
            for t in th.elements()
        ]
        super().__init__(table, names)
        self.action = action

    def pair(self, h: int) -> tuple[int, int]:
        return divmod(h, self.theta_order)

    def index(self, g: int, t: int) -> int:
        return g * self.theta_order + t

    @property
    def theta_order(self) -> int:
        return self.action.theta.order


def orbit_of(action: GroupAction, label: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """The orbit of a tuple under the componentwise theta action."""
    tup = tuple(label)
    return frozenset(action.apply_tuple(t, tup) for t in action.theta.elements())


def orbit_representatives(action: GroupAction, length: int) -> list[tuple[int, ...]]:
    """Lexicographically least representatives of all tuple orbits."""
    reps = []
    seen: set[tuple[int, ...]] = set()
    for tup in itertools.product(action.group.elements(), repeat=length):
        if tup in seen:
            continue
        orb = orbit_of(action, tup)
        seen.update(orb)
        reps.append(min(orb))
    return reps


def orbit_count_burnside(action: GroupAction, length: int) -> int:
    """Independent orbit count: average the fixed-tuple counts.

    A theta element fixes a tuple exactly when it fixes every entry, so
    its fixed-tuple count is its fixed-point count raised to the tuple
    length.
    """
    total = 0
    for t in action.theta.elements():
        fixed = sum(1 for a in action.group.elements() if action.apply(t, a) == a)
        total += fixed**length
    q, r = divmod(total, action.theta.order)
    if r:
        raise GroupError("fixed-point counts do not average to an integer")
    return q
