"""The standalone oracle scripts re-derive the frozen constants the tests
rely on; each must run to completion and exit 0.  The loop-count oracle's
string and cap walks are also the cross-check of gluing and loop counting,
which the library computes with its own walks over integer point ids (loops
as one-coloured faces), and the base-constant solver's Jones idempotents pin
the library's Jones rule at colours 2..5."""

import importlib.util
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

from planarbox.expressions import (
    ComposeExpr,
    GenExpr,
    random_composable_pair,
    realize,
    render_expr,
)
from planarbox.group_algebra import GroupPlanarAlgebra
from planarbox.groups import cyclic_group
from planarbox.tangles import TangleError, compose, loops_black, loops_white, tangle, validate

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script",
    ["expand_crossed_constants.py", "solve_base_constants.py", "loop_count_oracle.py"],
)
def test_oracle_script_exits_0(script):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def _load_script(name: str):
    """``scripts/<name>.py`` loaded by path, apart from the package."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [3, 4])
def test_jones_element_matches_the_solver(n):
    """The spin rule at colours 2..5 against the solver's frozen Jones
    idempotents, coefficient by coefficient in sympy."""
    solver = _load_script("solve_base_constants")
    P = GroupPlanarAlgebra(cyclic_group(n))
    for k in range(2, 6):
        expected = solver.jones(n, k)
        got = P.jones_element(k).coeffs
        assert set(got) == set(expected), k
        for lab, c in got.items():
            value = sympy.Add(*(sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(d)
                                for d, q in c.terms.items()))
            assert sympy.simplify(value - expected[lab]) == 0, (k, lab)


def _oracle_diagram(oracle, expr):
    """(diagram, spliced loops) in the oracle's encoding, or None for a tree
    with a renumbering, a unit or a shaded leaf, which it cannot encode."""
    if isinstance(expr, GenExpr):
        if expr.shaded or expr.kind == "unit":
            return None
        build = {
            "id": oracle.gen_identity,
            "M": oracle.gen_mult,
            "I": oracle.gen_incl,
            "E": oracle.gen_exp_right,
            "Eprime": oracle.gen_exp_left,
            "jones": oracle.gen_cupcap,
        }[expr.kind]
        return build(expr.k), 0
    if isinstance(expr, ComposeExpr):
        outer = _oracle_diagram(oracle, expr.outer)
        inner = _oracle_diagram(oracle, expr.inner)
        if outer is None or inner is None:
            return None
        glued, loops = oracle.splice(outer[0], expr.slot, inner[0])
        return glued, outer[1] + inner[1] + loops
    return None


def test_compose_and_loop_counts_match_the_walk_oracle():
    """``tangles.compose``, ``realize`` of the whole tree (one splice of all
    its leaves) and both loop counts against the oracle's own pairwise
    string walk, on every seeded glued tree it can encode; at depth 3 one
    splice handles several glues."""
    oracle = _load_script("loop_count_oracle")
    for depth, trees, floor in ((2, 1000, 500), (3, 500, 150)):
        rng = random.Random(20261018 + depth - 2)
        compared = several = 0
        for _ in range(trees):
            outer, slot, inner = random_composable_pair(rng, max_colour=5, depth=depth)
            expr = ComposeExpr(outer, slot, inner)
            encoded = _oracle_diagram(oracle, expr)
            if encoded is None:
                continue
            compared += 1
            several += render_expr(expr).count("compose") > 2
            (k0, discs, strings), loops = encoded
            for t in (compose(realize(outer), slot, realize(inner)), realize(expr)):
                assert (t.external.colour, [d.colour for d in t.internal]) == (k0, discs)
                assert t.strings == {(min(a, b), max(a, b)) for a, b in strings}, render_expr(expr)
                assert t.closed_loops == loops, render_expr(expr)
                assert loops_black(t) == oracle.count_cycles(encoded[0], True) + loops
                assert loops_white(t) == oracle.count_cycles(encoded[0], False) + loops
        assert compared >= floor, depth
        assert several >= floor // 3, depth


def test_loop_counts_on_swapped_strings_raise_or_match_the_cap_oracle():
    """Swapping the ends of two strings of a seeded glued tree keeps a
    perfect matching.  On every such copy, the loop counts raise exactly
    when ``validate`` reports a face touching both black and white
    intervals; otherwise they equal the oracle's cap-cycle count plus the
    free loops, also on copies that fail the genus check."""
    oracle = _load_script("loop_count_oracle")
    rng = random.Random(20261019)
    raised = matched = non_planar = 0
    for _ in range(600):
        t = realize(ComposeExpr(*random_composable_pair(rng, max_colour=5, depth=3)))
        strings = sorted(t.strings)
        if len(strings) < 2:
            continue
        i, j = sorted(rng.sample(range(len(strings)), 2))
        (a, b), (c, d) = strings[i], strings[j]
        strings[i], strings[j] = (a, d), (c, b)
        u = tangle(t.external, t.internal, strings, t.closed_loops)
        problems = validate(u).problems
        if any("black and white" in p for p in problems):
            raised += 1
            for read in (loops_black, loops_white):
                with pytest.raises(TangleError, match="black and white"):
                    read(u)
            continue
        matched += 1
        non_planar += any("Euler" in p for p in problems)
        diagram = (u.external.colour, [e.colour for e in u.internal], strings)
        assert loops_black(u) == oracle.count_cycles(diagram, True) + u.closed_loops
        assert loops_white(u) == oracle.count_cycles(diagram, False) + u.closed_loops
    assert min(raised, matched - non_planar, non_planar) >= 60, (raised, matched, non_planar)
