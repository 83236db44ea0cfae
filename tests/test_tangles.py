import hashlib
import importlib.util
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarbox.expressions import (
    MAX_COLOUR,
    MAX_DEPTH,
    ComposeExpr,
    GenExpr,
    ParseError,
    RenumberExpr,
    arity,
    external_colour,
    generators_with_external,
    parse_expr,
    random_composable_pair,
    random_expr,
    realize,
    render_expr,
    slot_colours,
)
from planarbox.intermediate import WHITE_WEIGHT_TABLE
from planarbox.scalars import ONE, pow_half
from planarbox.tangles import (
    GENERATOR_CACHE_SIZE,
    Disc,
    Tangle,
    TangleError,
    alpha,
    alpha_tilde,
    capping_exponent,
    capping_exponent_white,
    compose,
    loops_black,
    loops_white,
    make_generator,
    renumber,
    tangle,
    validate,
)

# frozen from scripts/loop_count_oracle.py: (l_black, c, l_white, c_white)
LOOP_TABLE = {
    ("id", 0): (0, 0, 0, 0),
    ("id", 1): (1, 0, 1, 0),
    ("id", 2): (2, 0, 2, 0),
    ("id", 3): (3, 0, 3, 0),
    ("id", 4): (4, 0, 4, 0),
    ("id", 5): (5, 0, 5, 0),
    ("M", 0): (0, 0, 0, 0),
    ("M", 1): (1, 0, 1, 0),
    ("M", 2): (3, 0, 2, 1),
    ("M", 3): (4, 0, 4, 0),
    ("M", 4): (6, 0, 5, 1),
    ("M", 5): (7, 0, 7, 0),
    ("I", 0): (1, 0, 1, 0),
    ("I", 1): (1, 0, 2, -1),
    ("I", 2): (3, 0, 2, 1),
    ("I", 3): (3, 0, 4, -1),
    ("I", 4): (5, 0, 4, 1),
    ("E", 0): (1, -1, 1, -1),
    ("E", 1): (1, 1, 2, 0),
    ("E", 2): (3, -1, 2, 0),
    ("E", 3): (3, 1, 4, 0),
    ("E", 4): (5, -1, 4, 0),
    ("Eprime", 1): (2, -1, 2, -1),
    ("Eprime", 2): (1, 1, 3, -1),
    ("Eprime", 3): (2, 1, 4, -1),
    ("Eprime", 4): (3, 1, 5, -1),
    ("Eprime", 5): (4, 1, 6, -1),
    ("jones", 2): (2, -1, 1, 0),
    ("jones", 3): (1, 1, 3, -1),
    ("jones", 4): (3, -1, 2, 0),
    ("jones", 5): (2, 1, 4, -1),
}


class TestGenerators:
    @pytest.mark.parametrize("kind,k", sorted(LOOP_TABLE))
    def test_generators_valid(self, kind, k):
        t = make_generator(kind, k)
        assert validate(t).ok
        assert t.closed_loops == 0

    @pytest.mark.parametrize("kind,k", sorted(LOOP_TABLE))
    def test_loop_counts_match_oracle(self, kind, k):
        t = make_generator(kind, k)
        lb, c, lw, cw = LOOP_TABLE[(kind, k)]
        assert loops_black(t) == lb
        assert capping_exponent(t) == c
        assert loops_white(t) == lw
        assert capping_exponent_white(t) == cw

    def test_units(self):
        for shaded in (False, True):
            u = make_generator("unit", 0, shaded)
            assert validate(u).ok
            assert u.internal == ()
            assert alpha(u, 5) == ONE
            assert alpha_tilde(u, 5) == ONE

    def test_zero_colour_variants(self):
        assert validate(make_generator("id", 0, True)).ok
        assert validate(make_generator("M", 0, True)).ok
        assert validate(make_generator("I", 0, True)).ok
        with pytest.raises(TangleError):
            make_generator("E", 0, True)

    @pytest.mark.parametrize("kind,k", [("Eprime", 1), ("Eprime", 3), ("jones", 2), ("jones", 4)])
    def test_shading_refused_above_colour_0(self, kind, k):
        with pytest.raises(TangleError, match="shading flag"):
            make_generator(kind, k, True)

    def test_bad_requests(self):
        with pytest.raises(TangleError):
            make_generator("jones", 1)
        with pytest.raises(TangleError):
            make_generator("Eprime", 0)
        with pytest.raises(TangleError):
            make_generator("M", 2, True)
        with pytest.raises(TangleError):
            make_generator("spiral", 2)

    def test_identity_shape(self):
        t = make_generator("id", 3)
        assert t.external == Disc(3)
        assert t.internal == (Disc(3),)
        assert len(t.strings) == 6


class TestAlphaValues:
    """The exponent tables specialised to a ratio, checked exactly."""

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_identity_and_multiplication_are_one(self, m):
        for k in range(0, 6):
            assert alpha(make_generator("id", k), m) == ONE
            assert alpha(make_generator("M", k), m) == ONE

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_right_expectation_alternates(self, m):
        for k in (0, 2, 4):
            assert alpha(make_generator("E", k), m) == pow_half(m, -1)
        for k in (1, 3):
            assert alpha(make_generator("E", k), m) == pow_half(m, 1)

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_cupcap_alternates(self, m):
        for k in (3, 5):
            assert alpha(make_generator("jones", k), m) == pow_half(m, 1)
        for k in (2, 4):
            assert alpha(make_generator("jones", k), m) == pow_half(m, -1)

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_left_expectation(self, m):
        for k in (2, 3, 4, 5):
            assert alpha(make_generator("Eprime", k), m) == pow_half(m, 1)
        # the colour-1 diagram closes an extra loop and flips the sign
        assert alpha(make_generator("Eprime", 1), m) == pow_half(m, -1)

    def test_exact_radical_values(self):
        assert alpha(make_generator("E", 4), 2) == Fraction(1, 2) * pow_half(2, 1)
        assert alpha(make_generator("jones", 3), 3).render() == "sqrt(3)"


class TestCompose:
    def test_identity_left_neutral(self):
        rng = random.Random(11)
        for _ in range(20):
            t = realize(random_expr(rng, max_colour=4, depth=2))
            ident = make_generator("id", t.external.colour, t.external.shaded)
            assert compose(ident, 1, t) == t

    def test_identity_right_neutral(self):
        rng = random.Random(12)
        for _ in range(20):
            t = realize(random_expr(rng, max_colour=4, depth=2))
            for i, d in enumerate(t.internal, start=1):
                ident = make_generator("id", d.colour, d.shaded)
                assert compose(t, i, ident) == t

    def test_expectation_of_inclusion_closes_one_loop(self):
        glued = compose(make_generator("E", 2), 1, make_generator("I", 2))
        ident = make_generator("id", 2)
        assert glued.closed_loops == 1
        assert glued.strings == ident.strings
        assert glued.internal == ident.internal
        assert loops_black(glued) == loops_black(ident) + 1

    def test_multiplication_associates_on_the_nose(self):
        m = GenExpr("M", 2)
        left = realize(ComposeExpr(m, 1, m))
        right = realize(ComposeExpr(m, 2, m))
        assert left == right

    def test_colour_mismatch_rejected(self):
        with pytest.raises(TangleError):
            compose(make_generator("id", 2), 1, make_generator("id", 3))
        with pytest.raises(TangleError):
            compose(make_generator("id", 0, False), 1, make_generator("id", 0, True))

    def test_slot_out_of_range(self):
        with pytest.raises(TangleError):
            compose(make_generator("id", 2), 2, make_generator("id", 2))
        with pytest.raises(TangleError):
            compose(make_generator("jones", 2), 1, make_generator("id", 2))

    def test_loop_capture_through_unit(self):
        # a capped strand over a colour-0 disc: gluing the unit in
        # leaves the free strand as part of the diagram, no loop yet
        incl = make_generator("I", 0)
        glued = compose(incl, 1, make_generator("unit", 0))
        assert glued.internal == ()
        assert glued.closed_loops == 0
        assert validate(glued).ok


class TestRenumber:
    def test_identity_permutation(self):
        t = make_generator("M", 2)
        assert renumber(t, [1, 2]) == t

    def test_swap_is_involutive(self):
        t = make_generator("M", 2)
        swapped = renumber(t, [2, 1])
        assert swapped != t
        assert renumber(swapped, [2, 1]) == t

    def test_alpha_invariant(self):
        rng = random.Random(13)
        for _ in range(30):
            t = realize(random_expr(rng, max_colour=4, depth=2))
            b = len(t.internal)
            sigma = list(range(1, b + 1))
            rng.shuffle(sigma)
            s = renumber(t, sigma)
            assert loops_black(s) == loops_black(t)
            assert loops_white(s) == loops_white(t)
            assert alpha(s, 7) == alpha(t, 7)

    def test_rejects_non_permutation(self):
        with pytest.raises(TangleError):
            renumber(make_generator("M", 2), [1, 1])


class TestValidate:
    def test_crossing_strings_fail_genus(self):
        t = tangle(Disc(2), [], [((0, 1), (0, 3)), ((0, 2), (0, 4))])
        diag = validate(t)
        assert not diag.ok
        assert any("Euler" in p for p in diag.problems)

    def test_twisted_identity_fails_shading(self):
        t = tangle(
            Disc(1), [Disc(1)], [((0, 1), (1, 2)), ((0, 2), (1, 1))]
        )
        diag = validate(t)
        assert not diag.ok
        assert any("black and white" in p for p in diag.problems)
        for read in (loops_black, loops_white, lambda t: alpha(t, 2)):
            with pytest.raises(TangleError, match="black and white"):
                read(t)

    def test_incomplete_matching_reported(self):
        t = tangle(Disc(1), [], [])
        diag = validate(t)
        assert not diag.ok
        assert any("matching" in p for p in diag.problems)

    def test_doubled_point_reported(self):
        t = tangle(
            Disc(2), [], [((0, 1), (0, 2)), ((0, 2), (0, 3))]
        )
        assert not validate(t).ok

    def test_free_loop_only(self):
        t = tangle(Disc(0), [], [], closed_loops=1)
        assert validate(t).ok
        assert loops_black(t) == 1
        assert loops_white(t) == 1


# texts every reader must refuse with a ParseError
PARSE_ERROR_TEXTS = [
    "",
    "(gen E 2 4)",
    "(gen I 2 3)",
    "(gen frob 2)",
    "(compose (gen M 2) x (gen id 2))",
    "(gen id 2",
    "(gen id 2))",
    "(renumber 2 (gen M 2))",
    "(gen id (2))",
    "(gen id 1001)",
    "(gen id 1000000)",
    "(gen E 1000 1001)",
    "(gen id 1_0)",
    "(gen id +2)",
    "(gen id \u0663)",
    "(gen id 2\u00b2)",
    "(compose (gen id 2) +1 (gen id 2))",
    "(compose (gen id 2) 0_1 (gen id 2))",
    "(renumber (2 +1) (gen M 2))",
    "(renumber (1_0 2) (gen M 2))",
]


class TestParser:
    def test_compose_example(self):
        expr = parse_expr("(compose (gen E 2 3) 1 (gen I 3 2))")
        t = realize(expr)
        assert t.closed_loops == 1
        assert t.external == Disc(2)

    def test_roundtrip(self):
        rng = random.Random(21)
        for _ in range(40):
            expr = random_expr(rng, max_colour=4, depth=2)
            assert parse_expr(render_expr(expr)) == expr

    def test_zero_colour_tokens(self):
        assert parse_expr("(gen id 0-)") == GenExpr("id", 0, True)
        assert parse_expr("(gen id 0)") == GenExpr("id", 0, False)
        assert parse_expr("(gen unit minus)") == GenExpr("unit", 0, True)

    def test_renumber_form(self):
        expr = parse_expr("(renumber (2 1) (gen M 3))")
        assert expr == RenumberExpr((2, 1), GenExpr("M", 3))

    @pytest.mark.parametrize("text", PARSE_ERROR_TEXTS)
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_expr(text)

    def test_colour_bound(self):
        assert parse_expr(f"(gen M {MAX_COLOUR})") == GenExpr("M", MAX_COLOUR)
        with pytest.raises(ParseError, match=f"MAX_COLOUR = {MAX_COLOUR}"):
            parse_expr(f"(compose (gen id 2) 1 (gen id {MAX_COLOUR + 1}))")

    def test_semantic_errors_are_tangle_errors(self):
        expr = parse_expr("(compose (gen M 2) 1 (gen id 3))")
        with pytest.raises(TangleError):
            slot_colours(expr)
        with pytest.raises(TangleError):
            realize(expr)


def _load_script(name):
    """``scripts/<name>.py`` loaded by path, apart from the package."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frozen_loop_tables_match_the_oracle():
    """``LOOP_TABLE`` above and the cut-down algebra's ``WHITE_WEIGHT_TABLE``,
    both frozen from ``scripts/loop_count_oracle.py``, entry by entry
    against its ``count_cycles`` and ``exponent`` of the matching diagram."""
    oracle = _load_script("loop_count_oracle")
    diagram = {
        "id": oracle.gen_identity,
        "M": oracle.gen_mult,
        "I": oracle.gen_incl,
        "E": oracle.gen_exp_right,
        "Eprime": oracle.gen_exp_left,
        "jones": oracle.gen_cupcap,
    }
    for (kind, k), row in LOOP_TABLE.items():
        d = diagram[kind](k)
        counted = tuple(f(d, black) for black in (True, False)
                        for f in (oracle.count_cycles, oracle.exponent))
        assert row == counted, (kind, k)
    for (kind, k), half_exponent in WHITE_WEIGHT_TABLE.items():
        assert half_exponent == oracle.exponent(diagram[kind](k), False), (kind, k)


# sha256 of what the reader makes of the texts of the test below: each
# ParseError message or rendered tree, in order; taken before the reader
# came to share its generator leaves
READER_DIGEST = "cdf91ee7fe4dfda4e033e569e15fdb6e32d144622c1e0d8daffbd4ff0bb3e2f9"


def test_reader_diagnostics_are_pinned():
    """Every ParseError message, and every tree read, over 500 pool texts,
    their broken copies (``scripts/report_digests.py``'s ``malformed``: cut
    short, a parenthesis dropped or added, two tokens swapped) and the
    refused texts above, hashes to the pinned digest."""
    malformed = _load_script("report_digests").malformed
    rng = random.Random(30)
    texts = list(PARSE_ERROR_TEXTS)
    for expr in _pool_trees(30, 500):
        text = render_expr(expr)
        texts += [text, *malformed(text, rng)]
    h = hashlib.sha256()
    refused = 0
    for text in texts:
        try:
            line = render_expr(parse_expr(text))
        except ParseError as exc:
            line = f"ParseError: {exc}"
            refused += 1
        h.update(line.encode() + b"\n")
    assert refused >= 1800, refused
    assert h.hexdigest() == READER_DIGEST


def _chain(n):
    """A generator inside ``n`` nested ``compose`` forms."""
    return "(compose (gen id 2) 1 " * n + "(gen id 2)" + ")" * n


def test_depth_bound_is_read_both_ways():
    assert isinstance(parse_expr(_chain(MAX_DEPTH)), ComposeExpr)
    with pytest.raises(ParseError, match=f"MAX_DEPTH = {MAX_DEPTH}"):
        parse_expr(_chain(MAX_DEPTH + 1))


def test_repeated_leaves_are_one_object():
    expr = parse_expr("(compose (gen M 2) 1 (gen M 2))")
    assert expr.outer is expr.inner
    assert parse_expr("(gen E 2 3)") is parse_expr(" ( gen  E 2 3 ) ")


@pytest.mark.parametrize("text", ["(gen E 2 4)", "(gen id 1_0)", "(gen frob 2)", "(gen id)"])
def test_refused_leaves_are_refused_again(text):
    """A malformed leaf raises on every read: no error is kept."""
    for _ in range(2):
        with pytest.raises(ParseError):
            parse_expr(f"(compose (gen id 2) 1 {text})")


def handwritten_leaves(colour, max_colour):
    """The sampler's leaf lists as they were written out by hand before
    ``generators_with_external`` derived them, kept as reference data."""
    k, sh = colour
    out = []
    if k == 0:
        out.append(GenExpr("unit", 0, sh))
        out.append(GenExpr("id", 0, sh))
        out.append(GenExpr("M", 0, sh))
        if not sh and max_colour >= 1:
            out.append(GenExpr("E", 0))
    else:
        out.append(GenExpr("id", k))
        out.append(GenExpr("M", k))
        out.append(GenExpr("Eprime", k))
        if k >= 2:
            out.append(GenExpr("jones", k))
        if k + 1 <= max_colour:
            out.append(GenExpr("E", k))
        if k == 1:
            out.append(GenExpr("I", 0))
            out.append(GenExpr("I", 0, True))
        else:
            out.append(GenExpr("I", k - 1))
    return out


def sampled_colours(max_colour):
    return [Disc(0, True)] + [Disc(k) for k in range(max_colour + 1)]


class TestSampledLeaves:
    @pytest.mark.parametrize("max_colour", range(7))
    def test_derived_list_matches_the_handwritten_one(self, max_colour):
        for colour in sampled_colours(max_colour):
            leaves = generators_with_external(colour, max_colour)
            assert list(leaves) == handwritten_leaves(colour, max_colour), colour

    @pytest.mark.parametrize("max_colour", range(7))
    def test_every_leaf_round_trips(self, max_colour):
        for colour in sampled_colours(max_colour):
            for leaf in generators_with_external(colour, max_colour):
                assert parse_expr(render_expr(leaf)) == leaf

    def test_memoized_tuple(self):
        leaves = generators_with_external(Disc(2), 4)
        assert isinstance(leaves, tuple)
        assert generators_with_external(Disc(2), 4) is leaves


# sha256 of the rendered pairs below, taken before the samplers stopped
# reading each tree's slots back off the tree
SAMPLER_DIGEST = "dcb34ad901282fa73b7bf819d416a86792e29f26a2fe6760847a5e0aea8c7d46"


def internal_nodes(expr):
    """The compose and renumber nodes of a tree, without recursion."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ComposeExpr):
            stack += (node.outer, node.inner)
        elif isinstance(node, RenumberExpr):
            stack.append(node.inner)
        else:
            continue
        yield node


def test_samplers_draw_the_same_trees_without_walking_them(disc_makes):
    """500 seeded pairs at colours <= 5, depth 3, and 500 at colours <= 4
    with combined arity <= 3 render to the pinned bytes.  The samplers read
    each node's discs where they need its slots, and a node makes them once
    for its life: over the draws and a read of every node of the glued
    pairs, through `slot_colours`, `arity` and the property, no node makes
    them twice, and a second read makes none."""
    h = hashlib.sha256()
    roots = []
    for seed, kw in ((2028, {"max_colour": 5, "depth": 3}),
                     (2029, {"max_colour": 4, "depth": 3, "max_arity": 3})):
        rng = random.Random(seed)
        for _ in range(500):
            outer, slot, inner = random_composable_pair(rng, **kw)
            roots.append(ComposeExpr(outer, slot, inner))
            h.update(render_expr(roots[-1]).encode() + b"\n")
    assert h.hexdigest() == SAMPLER_DIGEST
    nodes = [node for root in roots for node in internal_nodes(root)]
    for _ in range(2):
        for root in roots:
            assert len(slot_colours(root)) == arity(root)
        for node in nodes:
            node.discs
        made = {id(node) for node in disc_makes}
        assert len(made) == len(disc_makes)
        assert {id(node) for node in nodes} <= made


class TestExprBookkeeping:
    def test_every_node_recorded(self):
        inner = GenExpr("E", 2)
        outer = GenExpr("M", 2)
        glued = ComposeExpr(outer, 2, inner)
        expr = RenumberExpr((2, 1), glued)
        assert expr.discs == (Disc(2), (Disc(3), Disc(2)))
        assert [node.discs for node in (outer, inner, glued)] == [
            (Disc(2), (Disc(2), Disc(2))),
            (Disc(2), (Disc(3),)),
            (Disc(2), (Disc(2), Disc(3))),
        ]

    def test_signature_of_compose(self):
        expr = parse_expr("(compose (gen M 2) 2 (gen E 2 3))")
        assert external_colour(expr) == Disc(2)
        assert slot_colours(expr) == (Disc(2), Disc(3))
        assert arity(expr) == 2

    def test_renumber_moves_slots(self):
        expr = RenumberExpr((2, 1), ComposeExpr(GenExpr("M", 2), 2, GenExpr("E", 2)))
        assert slot_colours(expr) == (Disc(3), Disc(2))

    def test_realize_is_a_fold(self):
        """One splice of a whole tree equals the node-by-node fold through
        `compose` and `renumber`, on depth-3 trees with renumberings and
        unit leaves; and gluing associates on the nose."""
        rng = random.Random(31)
        renumbered = units = nested = 0
        for _ in range(240):
            outer, i, inner = random_composable_pair(rng, max_colour=5, depth=3)
            whole = ComposeExpr(outer, i, inner)
            text = render_expr(whole)
            renumbered += "renumber" in text
            units += "unit" in text
            assert realize(whole) == fold(whole) == compose(realize(outer), i, realize(inner)), text
            slots = slot_colours(inner)
            if not slots:
                continue
            j = rng.randint(1, len(slots))
            last = random_expr(rng, slots[j - 1], max_colour=5, depth=1)
            left = ComposeExpr(whole, i + j - 1, last)
            right = ComposeExpr(outer, i, ComposeExpr(inner, j, last))
            nested += 1
            assert realize(left) == realize(right) == fold(left) == fold(right), text
            t_outer, t_inner, t_last = realize(outer), realize(inner), realize(last)
            assert (compose(compose(t_outer, i, t_inner), i + j - 1, t_last)
                    == compose(t_outer, i, compose(t_inner, j, t_last)) == realize(left)), text
        assert renumbered >= 30 and units >= 30 and nested >= 150, (renumbered, units, nested)


def fold(expr):
    """The tree folded node by node through `compose` and `renumber`."""
    if isinstance(expr, GenExpr):
        return make_generator(expr.kind, expr.k, expr.shaded)
    if isinstance(expr, ComposeExpr):
        return compose(fold(expr.outer), expr.slot, fold(expr.inner))
    return renumber(fold(expr.inner), expr.perm)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_trees_realize_valid(seed):
    rng = random.Random(seed)
    t = realize(random_expr(rng, max_colour=5, depth=3))
    assert validate(t).ok
    assert t.closed_loops >= 0


def shift_point_labels(t):
    """Rotate every point label down by one (1 -> 2k), which exchanges the
    roles of black and white intervals."""

    def move(pt):
        d, p = pt
        return (d, p - 1 if p > 1 else 2 * t.disc(d).colour)

    return tangle(
        t.external, t.internal, [(move(a), move(b)) for a, b in t.strings], t.closed_loops
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_mirror_loop_count(seed):
    rng = random.Random(seed)
    t = realize(random_expr(rng, max_colour=5, depth=3))
    assert loops_white(t) == loops_black(shift_point_labels(t))
    assert loops_black(t) == loops_white(shift_point_labels(t))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_capping_ratio_identity(seed):
    """Composing tangles changes the weight by exactly the loop-count
    defect: weight(T) * weight(S) / weight(T glued S) is the ratio raised
    to (colour of the glued disc - l(T) - l(S) + l(glued)) / 2."""
    rng = random.Random(seed)
    outer, i, inner = random_composable_pair(rng, max_colour=6, depth=2)
    t, s = realize(outer), realize(inner)
    glued = compose(t, i, s)
    k_i = t.internal[i - 1].colour
    for ratio in (2, 3):
        lhs = alpha(t, ratio) * alpha(s, ratio) * alpha(glued, ratio).invert()
        rhs = pow_half(
            ratio, k_i - loops_black(t) - loops_black(s) + loops_black(glued)
        )
        assert lhs == rhs
        lhs_w = (
            alpha_tilde(t, ratio)
            * alpha_tilde(s, ratio)
            * alpha_tilde(glued, ratio).invert()
        )
        rhs_w = pow_half(
            ratio, k_i - loops_white(t) - loops_white(s) + loops_white(glued)
        )
        assert lhs_w == rhs_w


def test_composition_keeps_validity_and_loop_counts_nonnegative():
    rng = random.Random(41)
    for _ in range(60):
        outer, i, inner = random_composable_pair(rng, max_colour=5, depth=2)
        glued = compose(realize(outer), i, realize(inner))
        assert validate(glued).ok
        assert glued.closed_loops >= 0


# (a tree with one slot fault, its external colour, the message both tree
# readers give)
SLOT_FAULTS = [
    (ComposeExpr(GenExpr("id", 2), 2, GenExpr("id", 2)), 2, "slot 2 out of range 1..1"),
    (ComposeExpr(GenExpr("id", 2), 1, GenExpr("id", 3)), 2,
     "colour mismatch at slot 1: disc is 2, tangle is 3"),
    (ComposeExpr(GenExpr("id", 0), 1, GenExpr("id", 0, True)), 0,
     "colour mismatch at slot 1: disc is 0+, tangle is 0-"),
    (RenumberExpr((1, 1), GenExpr("M", 2)), 2, "not a permutation of 1..2: [1, 1]"),
]


@pytest.mark.parametrize(
    "fault, colour, message", SLOT_FAULTS, ids=["range", "colour", "shading", "permutation"]
)
def test_slot_faults_get_one_message_from_either_reader(fault, colour, message):
    """``realize`` reads a tree's discs before it glues any diagram, so
    each slot fault gets the same words from it as from the node's
    ``discs``, also one level down, as the right factor of a product."""
    for read in (realize, operator.attrgetter("discs")):
        for tree in (fault, ComposeExpr(GenExpr("M", colour), 2, fault)):
            with pytest.raises(TangleError) as caught:
                read(tree)
            assert str(caught.value) == message


# ---------------------------------------------------------------------------
# per-tangle loop counts and the generator cache
# ---------------------------------------------------------------------------

def _pool_trees(seed, n=200):
    """Glued trees of a seeded pool, colours up to 5, depth 3."""
    rng = random.Random(seed)
    for _ in range(n):
        outer, slot, inner = random_composable_pair(rng, max_colour=5, depth=3)
        yield ComposeExpr(outer, slot, inner)


def test_loop_counts_kept_on_the_tangle_match_fresh_counts():
    """Each count, read twice in either order, equals the first read on a
    fresh equal tangle, whose face memo is made anew; a memo that mixed up
    the two colours would differ on the trees where they differ."""
    differ = 0
    for n, expr in enumerate(_pool_trees(51)):
        t = realize(expr)
        twin = Tangle(t.external, t.internal, t.strings, t.closed_loops)
        fresh = (loops_black(twin), loops_white(twin))
        differ += fresh[0] != fresh[1]
        reads = (loops_white, loops_black) if n % 2 else (loops_black, loops_white)
        for _ in range(2):
            got = {read: read(t) for read in reads}
            assert (got[loops_black], got[loops_white]) == fresh, render_expr(expr)
    assert differ >= 50


def test_seeded_forms_are_the_real_forms():
    """The integer form a splice leaves on the tangle it builds, and the
    faces read from it, equal those a fresh equal tangle makes from its
    strings: on realized pool trees and on ``compose`` and ``renumber``
    results, colour-0, shaded and renumbered discs among them.  Each pair
    the splice writes is ordered as ``_pair`` orders it."""
    rng = random.Random(31)
    colour_0 = shaded = renumbered = 0
    for expr in _pool_trees(31, 1000):
        glued = compose(realize(expr.outer), expr.slot, realize(expr.inner))
        results = [realize(expr), glued]
        if len(glued.internal) > 1:
            sigma = list(range(1, len(glued.internal) + 1))
            rng.shuffle(sigma)
            results.append(renumber(glued, sigma))
            renumbered += 1
        for t in results:
            assert all(a < b for a, b in t.strings), render_expr(expr)
            fresh = Tangle(t.external, t.internal, t.strings, t.closed_loops)
            assert (t._form, t._faces) == (fresh._form, fresh._faces), render_expr(expr)
        discs = (glued.external, *glued.internal)
        colour_0 += any(d.colour == 0 for d in discs)
        shaded += any(d.shaded for d in discs)
    assert min(colour_0, shaded, renumbered) >= 100, (colour_0, shaded, renumbered)


def test_spliced_tangles_are_the_tangles_of_their_strings():
    """A tangle a splice builds keeps only its integer form until its
    strings are read, and is then equal to, and hashes like, the tangle
    built from its four values, with the same capping counts; like every
    tangle it refuses assignment and deletion.  Over realized pool trees,
    their ``compose`` and seeded ``renumber`` results, colour-0, shaded and
    renumbered discs among them."""
    rng = random.Random(34)
    colour_0 = shaded = renumbered = 0
    for expr in _pool_trees(34, 400):
        glued = compose(realize(expr.outer), expr.slot, realize(expr.inner))
        results = [realize(expr), glued]
        if len(glued.internal) > 1:
            sigma = list(range(1, len(glued.internal) + 1))
            rng.shuffle(sigma)
            results.append(renumber(glued, sigma))
            renumbered += 1
        for t in results:
            assert "strings" not in vars(t) and "_form" in vars(t), render_expr(expr)
            twin = Tangle(t.external, t.internal, t.strings, t.closed_loops)
            assert t == twin and twin == t and not t != twin, render_expr(expr)
            assert hash(t) == hash(twin), render_expr(expr)
            assert len({t, twin}) == 1
            for read in (loops_black, loops_white, capping_exponent, capping_exponent_white):
                assert read(t) == read(twin), (read.__name__, render_expr(expr))
            for u in (t, twin):
                for name in ("external", "internal", "strings", "closed_loops", "_form"):
                    with pytest.raises(AttributeError):
                        setattr(u, name, getattr(u, name))
                    with pytest.raises(AttributeError):
                        delattr(u, name)
            assert t != Tangle(t.external, t.internal, t.strings, t.closed_loops + 1)
        discs = (glued.external, *glued.internal)
        colour_0 += any(d.colour == 0 for d in discs)
        shaded += any(d.shaded for d in discs)
    assert min(colour_0, shaded, renumbered) >= 40, (colour_0, shaded, renumbered)


@pytest.mark.parametrize(
    "colour, internal, strings",
    [(2, [], []), (2, [], [((0, 1), (0, 2)), ((0, 2), (0, 3))]),
     (2, [], [((0, 1), (0, 2)), ((0, 3), (5, 1))]), (2, [], [((0, 1), (0, 2)), ((0, 3), (0, 3))]),
     (1, [Disc(1)], [((0, 1), (0, 2)), ((0, 3), (0, 4))]),
     (1, [Disc(1)], [((0, 1), (1, 0)), ((1, 1), (1, 2))]),
     (1, [Disc(1)], [((0, 1), (0, 2)), ((-1, -1), (-1, 0))])],
    ids=["unmatched", "doubled", "off every disc", "coincident", "past the disc's last point",
         "point 0", "negative disc"],
)
def test_loop_counts_refuse_strings_that_are_no_matching(colour, internal, strings):
    """Counts and gluing walk string partners, which only a perfect
    matching of the marked points has; anything else is refused, never
    walked, also where an end's point id would land on another disc."""
    t = tangle(Disc(colour), internal, strings)
    assert not validate(t).ok
    for read in (loops_black, loops_white, lambda t: alpha(t, 2),
                 lambda t: compose(make_generator("id", colour), 1, t)):
        with pytest.raises(TangleError, match="not a perfect matching"):
            read(t)


def _corrupted_copies(t, rng):
    """Copies of ``t``: two string ends swapped (still a perfect matching),
    one string dropped, and one endpoint moved off every marked point."""
    strings = sorted(t.strings)
    out = []

    def copy(pairs):
        return tangle(t.external, t.internal, pairs, t.closed_loops)

    if len(strings) >= 2:
        i, j = sorted(rng.sample(range(len(strings)), 2))
        (a, b), (c, d) = strings[i], strings[j]
        out.append(copy([*strings[:i], (a, d), *strings[i + 1:j], (c, b), *strings[j + 1:]]))
    if strings:
        k = rng.randrange(len(strings))
        out.append(copy(strings[:k] + strings[k + 1:]))
        (d, p), b = strings[k]
        bogus = rng.choice([(d, 0), (d, 2 * t.disc(d).colour + 1), (len(t.internal) + 1, 1), (-1, p)])
        out.append(copy([*strings[:k], (bogus, b), *strings[k + 1:]]))
    return out


# sha256 of validate's diagnostics, and the loop counts of every tangle that
# validates, over the inputs of the test below; taken once the face walks
# started at point ids in ascending order, which renamed the face point in
# 815 of the 7200 diagnostics and changed nothing else
DIAGNOSTICS_DIGEST = "46520cd2c46e248c2c407ade025a9a7e1d1b3a99096b2342d757cfe6b27bd7d2"


def test_validate_diagnostics_and_loop_counts_are_pinned():
    """Every diagnostic's text and order, on 2000 seeded pool trees and
    their corrupted copies, hashes to the pinned digest; the inputs reach
    two-coloured faces, Euler failures and matching problems."""
    rng = random.Random(29)
    h = hashlib.sha256()
    faces = euler = matching = 0
    for expr in _pool_trees(2029, 2000):
        t = realize(expr)
        for u in (t, *_corrupted_copies(t, rng)):
            diag = validate(u)
            line = repr(diag)
            if diag.ok:
                line += f" {loops_black(u)} {loops_white(u)}"
            h.update(line.encode() + b"\n")
            faces += any("black and white" in p for p in diag.problems)
            euler += any("Euler" in p for p in diag.problems)
            matching += any("matching" in p or "marked point" in p for p in diag.problems)
    assert min(faces, euler, matching) >= 500, (faces, euler, matching)
    assert h.hexdigest() == DIAGNOSTICS_DIGEST


def test_equal_tangles_get_equal_diagnostics():
    """Swapped-end copies of pool trees, built once from the sorted pairs
    and once from the reversed list, are equal and get one diagnosis, also
    where a face touches both colours and the message names its point."""
    rng = random.Random(77)
    faces = 0
    for expr in _pool_trees(30, 400):
        t = realize(expr)
        strings = sorted(t.strings)
        if len(strings) < 2:
            continue
        i, j = sorted(rng.sample(range(len(strings)), 2))
        (a, b), (c, d) = strings[i], strings[j]
        pairs = sorted([*strings[:i], (a, d), *strings[i + 1:j], (c, b), *strings[j + 1:]])
        one = tangle(t.external, t.internal, pairs, t.closed_loops)
        other = tangle(t.external, t.internal, pairs[::-1], t.closed_loops)
        assert one == other
        assert repr(validate(one)) == repr(validate(other)), render_expr(expr)
        faces += "black and white" in repr(validate(one))
    assert faces >= 100, faces


def test_a_negative_loop_count_is_reported_alone():
    """A negative loop count on a perfect matching is the one diagnosis,
    as for a faulty matching: no face or Euler check runs after it."""
    crossing = Tangle(Disc(2), (), frozenset({((0, 1), (0, 3)), ((0, 2), (0, 4))}), -1)
    assert repr(validate(crossing)) == "negative closed-loop count"


def _generator_keys(max_colour=5):
    """(kind, k, shaded) of every generator whose discs stay within ``max_colour``."""
    return [(g.kind, g.k, g.shaded) for colour in sampled_colours(max_colour)
            for g in generators_with_external(colour, max_colour)]


def test_cached_generators_are_shared_and_unchanged_by_use():
    """Every generator is one object across calls, equal to a fresh build,
    and still so, loop counts included, after being glued into 100 trees."""
    keys = _generator_keys()
    shared = {key: make_generator(*key) for key in keys}
    before = {key: dict(vars(g)) for key, g in shared.items()}
    for key, g in shared.items():
        assert make_generator(*key) is g
        assert g == make_generator.__wrapped__(*key)
    for expr in _pool_trees(52, 100):
        glued = compose(realize(expr.outer), expr.slot, realize(expr.inner))
        loops_black(glued), loops_white(glued)
    for key, g in shared.items():
        assert make_generator(*key) is g
        assert g == make_generator.__wrapped__(*key)
        after = vars(g)
        assert {f: after[f] for f in before[key]} == before[key], key
        twin = Tangle(g.external, g.internal, g.strings, g.closed_loops)
        assert (loops_black(g), loops_white(g)) == (loops_black(twin), loops_white(twin)), key


def test_generator_cache_is_bounded():
    """Every generator the samplers can draw fits in the cache, and no
    more than ``GENERATOR_CACHE_SIZE`` diagrams are ever kept."""
    assert make_generator.cache_info().maxsize == GENERATOR_CACHE_SIZE
    assert len(_generator_keys()) <= GENERATOR_CACHE_SIZE
    for k in range(GENERATOR_CACHE_SIZE + 8):
        make_generator("id", k)
    assert make_generator.cache_info().currsize == GENERATOR_CACHE_SIZE
