"""The standalone oracle scripts re-derive the frozen constants the tests
rely on; each must run to completion and exit 0.  The loop-count oracle's
string walk is also the cross-check of gluing and loop counting, which the
library computes from connected components instead."""

import importlib.util
import random
import subprocess
import sys
from pathlib import Path

import pytest

from planarbox.expressions import (
    ComposeExpr,
    GenExpr,
    random_composable_pair,
    realize,
    render_expr,
)
from planarbox.tangles import compose, loops_black, loops_white

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


def _load_loop_oracle():
    """``scripts/loop_count_oracle.py`` loaded by path, apart from the package."""
    spec = importlib.util.spec_from_file_location(
        "loop_count_oracle", SCRIPTS / "loop_count_oracle.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    """``tangles.compose`` and both loop counts against the oracle's own
    string walk, on every seeded glued tree it can encode."""
    oracle = _load_loop_oracle()
    rng = random.Random(20261018)
    compared = 0
    for _ in range(1000):
        outer, slot, inner = random_composable_pair(rng, max_colour=5, depth=2)
        expr = ComposeExpr(outer, slot, inner)
        encoded = _oracle_diagram(oracle, expr)
        if encoded is None:
            continue
        compared += 1
        (k0, discs, strings), loops = encoded
        t = compose(realize(outer), slot, realize(inner))
        assert (t.external.colour, [d.colour for d in t.internal]) == (k0, discs)
        assert t.strings == {(min(a, b), max(a, b)) for a, b in strings}, render_expr(expr)
        assert t.closed_loops == loops, render_expr(expr)
        assert loops_black(t) == oracle.count_cycles(encoded[0], True) + loops
        assert loops_white(t) == oracle.count_cycles(encoded[0], False) + loops
    assert compared >= 500
