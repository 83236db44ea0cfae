#!/usr/bin/env python3
"""Standalone loop-count oracle for the generating tangles.

Self-contained on purpose: it re-derives the cap/cup loop counts (and
the resulting half-integer exponents) for every generator with its own
diagram encoding and a walk-based cycle counter, so the main library can
be checked against an implementation that shares no code with it.  Both
glue by walking strings, the library over integer point ids and this
file over its own (disc, point) edge lists.  They count loops by
different walks: the library walks the faces of a diagram and counts
those that touch one colour of boundary interval only, while this file
walks the cycles of strings and caps.

Run:  python3 scripts/loop_count_oracle.py
The printed tables are frozen into tests/test_tangles.py and
tests/test_acceptance.py; tests/test_oracles.py loads this file by path and
checks gluing and loop counts against `splice` and `count_cycles`.
"""

from math import ceil, floor

# A diagram here is (k0, [k1, ..., kb], strings) with strings a list of
# ((disc, point), (disc, point)) pairs; disc 0 is the outer boundary.
# Points run 1..2k clockwise from the star; intervals [1,2],[3,4],...
# are black, [2,3],...,[2k,1] white.


def gen_identity(k):
    return (k, [k], [((0, j), (1, j)) for j in range(1, 2 * k + 1)])


def gen_mult(k):
    s = []
    for j in range(1, k + 1):
        s += [((0, j), (1, j)), ((1, k + j), (2, k + 1 - j)), ((2, k + j), (0, k + j))]
    return (k, [k, k], s)


def gen_incl(k):  # colour k -> k+1
    s = [((0, j), (1, j)) for j in range(1, k + 1)]
    s.append(((0, k + 1), (0, k + 2)))
    s += [((1, k + j), (0, k + 2 + j)) for j in range(1, k + 1)]
    return (k + 1, [k], s)


def gen_exp_right(k):  # colour k+1 -> k
    s = [((0, j), (1, j)) for j in range(1, k + 1)]
    s.append(((1, k + 1), (1, k + 2)))
    s += [((1, k + 2 + j), (0, k + j)) for j in range(1, k + 1)]
    return (k, [k + 1], s)


def gen_exp_left(k):  # colour k -> k
    s = [((0, 1), (0, 2 * k)), ((1, 1), (1, 2 * k))]
    s += [((0, j), (1, j)) for j in range(2, 2 * k)]
    return (k, [k], s)


def gen_cupcap(k):
    s = [((0, i), (0, 2 * k + 1 - i)) for i in range(1, k - 1)]
    s += [((0, k - 1), (0, k)), ((0, k + 1), (0, k + 2))]
    return (k, [], s)


def caps(colours, black):
    out = []
    for d, k in enumerate(colours):
        if black:
            out += [((d, 2 * i - 1), (d, 2 * i)) for i in range(1, k + 1)]
        else:
            out += [((d, 2 * i), (d, 2 * i + 1)) for i in range(1, k)]
            if k:
                out.append(((d, 2 * k), (d, 1)))
    return out


def count_cycles(diagram, black):
    k0, inner, strings = diagram
    edges = list(strings) + caps([k0] + inner, black)
    inc = {}
    for e, (a, b) in enumerate(edges):
        inc.setdefault(a, []).append(e)
        inc.setdefault(b, []).append(e)
    # every point lies on exactly one string and one cap
    assert all(len(v) == 2 for v in inc.values())
    used = [False] * len(edges)
    cycles = 0
    for e0 in range(len(edges)):
        if used[e0]:
            continue
        cycles += 1
        used[e0] = True
        node = edges[e0][1]
        e = e0
        while True:
            s = inc[node]
            e = s[1] if s[0] == e else s[0]
            if used[e]:
                break
            used[e] = True
            a, b = edges[e]
            node = b if a == node else a
    return cycles


def exponent(diagram, black):
    k0, inner, _ = diagram
    half = ceil(k0 / 2) + sum(floor(k / 2) for k in inner)
    return half - count_cycles(diagram, black)


def splice(outer, slot, inner):
    """Glue inner into internal disc `slot` of outer; returns the glued
    diagram plus the number of loops closed by the splice."""
    k0, odiscs, ostrings = outer
    ik0, idiscs, istrings = inner
    assert odiscs[slot - 1] == ik0
    shift = len(idiscs) - 1

    def o_node(pt):
        d, p = pt
        return ("x", p) if d == slot else ("o", d if d < slot else d + shift, p)

    def i_node(pt):
        d, p = pt
        return ("x", p) if d == 0 else ("o", slot - 1 + d, p)

    edges = [(o_node(a), o_node(b)) for a, b in ostrings]
    edges += [(i_node(a), i_node(b)) for a, b in istrings]
    inc = {}
    for e, (a, b) in enumerate(edges):
        inc.setdefault(a, []).append(e)
        inc.setdefault(b, []).append(e)
    used = [False] * len(edges)
    strings, loops = [], 0
    for node in inc:
        if node[0] == "x":
            continue
        for e in inc[node]:
            if used[e]:
                continue
            used[e] = True
            a, b = edges[e]
            cur = b if a == node else a
            while cur[0] == "x":
                e2 = [x for x in inc[cur] if not used[x]][0]
                used[e2] = True
                a, b = edges[e2]
                cur = b if a == cur else a
            strings.append(((node[1], node[2]), (cur[1], cur[2])))
    for e in range(len(edges)):
        if used[e]:
            continue
        used[e] = True
        a, cur = edges[e]
        while True:
            rest = [x for x in inc[cur] if not used[x]]
            if not rest:
                break
            used[rest[0]] = True
            a2, b2 = edges[rest[0]]
            cur = b2 if a2 == cur else a2
        loops += 1
    return (k0, odiscs[: slot - 1] + idiscs + odiscs[slot:], strings), loops


def main():
    rows = []
    for k in range(0, 7):
        rows.append((f"identity k={k}", gen_identity(k)))
    for k in range(0, 7):
        rows.append((f"multiplication k={k}", gen_mult(k)))
    for k in range(0, 6):
        rows.append((f"inclusion {k}->{k + 1}", gen_incl(k)))
    for k in range(0, 6):
        rows.append((f"right expectation {k + 1}->{k}", gen_exp_right(k)))
    for k in range(1, 7):
        rows.append((f"left expectation k={k}", gen_exp_left(k)))
    for k in range(2, 7):
        rows.append((f"cup-cap k={k}", gen_cupcap(k)))

    print(f"{'tangle':32s} {'l_black':>7s} {'c':>3s} {'l_white':>7s} {'c~':>3s}")
    for name, diag in rows:
        lb = count_cycles(diag, True)
        lw = count_cycles(diag, False)
        print(
            f"{name:32s} {lb:7d} {exponent(diag, True):3d} "
            f"{lw:7d} {exponent(diag, False):3d}"
        )

    glued, loops = splice(gen_exp_right(2), 1, gen_incl(2))
    print("\nright-expectation(3->2) o inclusion(2->3):")
    print(f"  spliced loops: {loops}")
    print(f"  remaining strings: {sorted(glued[2])}")
    print(f"  matches identity k=2: {sorted(glued[2]) == sorted(gen_identity(2)[2])}")


if __name__ == "__main__":
    main()
