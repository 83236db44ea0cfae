"""Tests for the suite registry and the byte stability of whole reports."""

import collections
import hashlib
import importlib.util
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from planarbox import group_algebra, suites
from planarbox.crossed import CrossedProduct
from planarbox.group_algebra import GroupPlanarAlgebra, PAElement
from planarbox.groups import SemidirectGroup, inversion_action, load_action
from planarbox.scalars import ONE, ZERO
from planarbox.suites import SUITE_NAMES, SuiteError, run_suite

ACTIONS = Path(__file__).resolve().parent.parent / "actions"

# sha256 of json.dumps(run_suite("all", action, k_max=3, samples=3, seed=0),
# sort_keys=True), with the record count; any refactor must keep both
GOLDEN = {
    "z3xz2": (167, "fb94503d50ec345c0d04e550f327599ff48bbe6591bc353cf221619c0e4bd2d0"),
    "z4xz2": (262, "9e7307a929e39dcca8948b44d3a6208882d9e3bb6114a94835a5d0ad4614725b"),
    "z3-trivial": (236, "ea9650035763744cec1105b5594e747e6be35cbc27a21a620f051f6da1093693"),
    # Z7 x| Z3, Theta acting by x -> 2x and x -> 4x: the one Theta that is
    # not an involution
    "z7xz3": (478, "1bce3677ef5d053ad95087808615706b69278bbf57278ee4f4f162fbb37471bc"),
    # Z2^2 x| S3 = S4, S3 permuting the three involutions: the one Theta
    # that is not abelian
    "s4": (185, "0544f6db01447084009f4a01aa3bde3ea8b41fb7224158f29d08e10677fb7dfb"),
}


def action(stem: str):
    return load_action(json.loads((ACTIONS / f"{stem}.json").read_text()))


@pytest.mark.parametrize("stem", sorted(GOLDEN))
def test_all_suites_report_is_pinned(stem):
    records = run_suite("all", action(stem), k_max=3, samples=3, seed=0)
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert [r["case"] for r in records if not r["pass"]] == []
    assert (len(records), digest) == GOLDEN[stem]


# the same for z3xz2 at both ends of the k_max range; k_max 2 re-taken when
# the dual suite stopped reporting colour-3 weights and ranks above k_max
# (99 records before, 94 after)
GOLDEN_RANGE_ENDS = {
    2: (94, "3a519424792078ee476dea4952431156ccf73510ce91c8638d6797d07b2730fc"),
    4: (212, "611fe5fdd54f10d6ecece2048e29ccd6a21116808d8574ae3e6e00d3e4b37664"),
}


@pytest.mark.parametrize("k_max", sorted(GOLDEN_RANGE_ENDS))
def test_range_ends_are_pinned(k_max):
    records = run_suite("all", action("z3xz2"), k_max=k_max, samples=3, seed=0)
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert (len(records), digest) == GOLDEN_RANGE_ENDS[k_max]


def test_trivial_action_at_k_max_4_is_pinned():
    """The trivial action, whose trace suite once showed the colour-2
    inclusion defect, at the top of the k_max range."""
    records = run_suite("all", action("z3-trivial"), k_max=4, samples=3, seed=0)
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert [r["case"] for r in records if not r["pass"]] == []
    assert (len(records), digest) == (
        294, "dbcca75e68ad277f8c36de7bd2a9f424bc4d568d956995de976d226e1b7a0fcc"
    )


def test_z4xz2_base_algebra_at_k_max_4_is_pinned():
    """The benchmark's exact structure case, at the default samples; digest
    taken before the Gram matrix was read off the index table."""
    records = run_suite("base-algebra", action("z4xz2"), k_max=4, samples=40, seed=0)
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert [r["case"] for r in records if not r["pass"]] == []
    assert (len(records), digest) == (
        32, "ed04b0f4d9fd5a8cd1303106ddab5417996eca324a918739712dbf0ca94a8f39"
    )


# the two suites that share the substitution check, at the CLI defaults
# (k_max 4, 40 samples, seed 0) on z3xz2
GOLDEN_SUBSTITUTION = {
    "theorem-main": (87, "8a612116fe957f64025a7df6994b907993b34bc22ab6d5570a249973819e66c2"),
    "axioms": (84, "77d46370256b7d74633dcebcde3f99b32fc64264af3cd61097f0befccdaf4137"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SUBSTITUTION))
def test_substitution_suites_at_defaults_are_pinned(name):
    records = run_suite(name, action("z3xz2"), k_max=4, samples=40, seed=0)
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert [r["case"] for r in records if not r["pass"]] == []
    assert (len(records), digest) == GOLDEN_SUBSTITUTION[name]


# the cheap suites at the CLI defaults (k_max 4, 40 samples, seed 0), by
# (action, suite).  The two z4xz2 entries for trace and biprojection, the
# colour-4 trace and surround paths, were taken before the element layer's
# trusted results, folded prefactor and exponent-only basis traces; the
# rest before the crossed product's intertwining checks read the cut-down
# action of its subgroup.  z4xz2 axioms, whose every record goes through
# the cut-down algebra's table of basis values, was taken before that
# table went in; its ``planarbox suite`` output file has sha256
# 425eb3747874d81342ce382cf6d8cc76b81b41c2cb94ae7a25903a3ce40ec297.  The
# z7xz3 jones and dual entries, the only colour-4 cut-down over a group of
# order 21 here, were taken while the basis still surrounded every label.
GOLDEN_DEFAULTS = {
    ("z3xz2", "base-algebra"): (32, "d20d3d174730059696d9fd8943328082204484f3e359e0ee5186958b5be67d36"),
    ("z3xz2", "crossed-product"): (81, "1305af2610198ff108affb45e7b284b4a2d2bc20694790b6a4ad3d8cd5c78335"),
    ("z3xz2", "biprojection"): (19, "9c1f7e89b7d6e367e70a8448b434d0154cfb4a523c346ebbe6833c3b25aebf8f"),
    ("z3xz2", "jones"): (14, "844656a074466f2047a72f3c2c939f6b8744a2b6363db1392743164ac480661a"),
    ("z3xz2", "trace"): (26, "17c713dbc2f930893fdb077dfb6e337c31574718fdcbfe241b25e45e976ec21b"),
    ("z3xz2", "dual"): (17, "03870e41e847a0680460c3596c1a4bd63221cc1f25ad741ea95c96936e9feff9"),
    ("z3-trivial", "base-algebra"): (32, "017c3bcd58d57fc5115ae83f4c92ffa048fbd68384d7c0b7783d8b0e37cf5480"),
    ("z3-trivial", "crossed-product"): (166, "06504cf5566184f66b61e8ca3ecc964135ee5a436101926a726e8d5da4587eb4"),
    ("z3-trivial", "biprojection"): (16, "f743386100d3477487877874ed686c283d53e40603a618ad7691bc2d8e31f0e3"),
    ("z3-trivial", "jones"): (14, "73fa5791a439b3fb969787185c873bfe0242a16a7c2e211b56b96b1a62eafa5e"),
    ("z3-trivial", "trace"): (26, "17c713dbc2f930893fdb077dfb6e337c31574718fdcbfe241b25e45e976ec21b"),
    ("z3-trivial", "dual"): (17, "60f074bf4ab31fb5877d62fdf704ccb5257d677d93dd328c48668faed4ffa5f8"),
    ("z4xz2", "crossed-product"): (196, "51068c1427ae756848f67cc744e34d93f27fa908cf04195903a4309a9fa5703a"),
    ("z4xz2", "biprojection"): (21, "02feaddb0c6175a1b301bd1b6cec71b3807784c014bc38353ee7c44a7951ff63"),
    ("z4xz2", "jones"): (14, "520c0bc692ff5b943567810f4cf4b4fda47e45a6a1717f72caa4e22fe9339575"),
    ("z4xz2", "trace"): (26, "17c713dbc2f930893fdb077dfb6e337c31574718fdcbfe241b25e45e976ec21b"),
    ("z4xz2", "dual"): (17, "ff9b21ed2b048ac657a273072cf31c671a709fd76c55031fbe9d983def707551"),
    ("z4xz2", "axioms"): (84, "77d46370256b7d74633dcebcde3f99b32fc64264af3cd61097f0befccdaf4137"),
    ("z7xz3", "jones"): (14, "e8647150be854d5377901d0c817975d03528186bb366fdcbbdf361709d266770"),
    ("z7xz3", "dual"): (17, "aefc3760e4ef089a0de27410405afc354e5172110ae6fafa24ea0b603f537cdc"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_DEFAULTS), ids="-".join)
def test_suites_at_defaults_are_pinned(key):
    stem, name = key
    records = run_suite(name, action(stem), k_max=4, samples=40, seed=0)
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert [r["case"] for r in records if not r["pass"]] == []
    assert (len(records), digest) == GOLDEN_DEFAULTS[key]


def report_digests():
    """``scripts/report_digests.py`` loaded by path, apart from the package."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# what a run's child hands back: a crash (a traceback on stderr, nothing on
# stdout), and a run the CLI refused with exit 2, which the child prints
CRASHED = (1, b"", b"Traceback (most recent call last): ...")
REFUSED = (0, b"a.json jones refused exit 2\na.json jones values refused exit 2", b"")
# the child drawing the alpha texts, and an alpha run the CLI refused
TEXTS = (0, b"(M 2)\n(I 2)\n", b"")
ALPHA_REFUSED = (2, b"", b"error: ...")


@pytest.mark.parametrize(
    "suite_child, pool_child, texts_child, alpha_child, status, shown",
    [
        (CRASHED, REFUSED, TEXTS, ALPHA_REFUSED, 1, "a.json jones failed exit 1"),
        (REFUSED, REFUSED, TEXTS, ALPHA_REFUSED, 0, "a.json jones refused exit 2"),
        (REFUSED, (0, b"", b""), TEXTS, ALPHA_REFUSED, 1, "alpha-pool failed exit 0"),
        (REFUSED, REFUSED, CRASHED, ALPHA_REFUSED, 1, "alpha failed exit 1"),
        (REFUSED, REFUSED, (0, b"", b""), ALPHA_REFUSED, 1, "alpha failed exit 0"),
        (REFUSED, REFUSED, TEXTS, CRASHED, 1, "alpha failed exit 1"),
    ],
    ids=["crashed", "refused", "silent-pool", "crashed-texts", "silent-texts", "crashed-alpha"],
)
def test_digest_script_exits_1_when_a_run_failed(
    suite_child, pool_child, texts_child, alpha_child, status, shown, monkeypatch, capsys
):
    """A crashed suite run, an alpha-pool child that printed nothing, an
    alpha-text child that crashed or drew nothing, or an alpha run that
    exited with a code the CLI never returns is a ``failed`` line and exit
    1; a refused run is a normal result."""
    script = report_digests()
    children = {script.SUITE_CHILD: suite_child, script.ALPHA_POOL_CHILD: pool_child,
                script.ALPHA_POOL: texts_child}

    def child(*args):
        code, out, err = children.get(args[1], alpha_child)
        return subprocess.CompletedProcess(args, code, out, err)

    monkeypatch.setattr(script, "child", child)
    monkeypatch.setattr(sys, "argv", ["report_digests.py", "a.json", "--suite", "jones",
                                      "--suite", "alpha", "--suite", "alpha-pool"])
    assert script.main() == status
    assert shown in capsys.readouterr().out.splitlines()


# the values of the two substitution suites at the CLI defaults on z3xz2:
# the number of element comparisons each run makes and the sha256 of both
# sides and the result of each (``value_digest`` of the script above, the
# ``values`` line it prints).  Their reports carry verdicts only, the same
# on z3xz2 and z4xz2; these move with every value compared.
GOLDEN_VALUES = {
    "theorem-main": (3468, "eb114220a775be1aaa9fb2756555d160c04c96ef800a8700239b92146aaa3618"),
    "axioms": (2598, "df054cd81562e62c050a44f4b15bdcc08e7b2b6faeea5dd1e6af83dc7f1de9e3"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VALUES))
def test_substitution_suite_values_at_defaults_are_pinned(name):
    value_digest = report_digests().value_digest
    found = value_digest(lambda: run_suite(name, action("z3xz2"), k_max=4, samples=40, seed=0))
    assert found == GOLDEN_VALUES[name]


# the same for two suites whose membership tests meet elements fixed by the
# surround, which returns them as themselves at every colour, so those tests
# compare no elements; taken when the surround became the only test of
# fixedness (the jones run then compares exactly what the dual run does: the
# cut-down algebra's construction checks)
GOLDEN_FIXED_VALUES = {
    "trace": (115, "59cff8ffec78760d7253f9101b2800df844089d8f528634f0ffb29283e16574a"),
    "jones": (65, "25f9e6ee0c5685fb07db2e546bec4a1c5a8e584a40d6609f94ae43b4357c867a"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FIXED_VALUES))
def test_membership_suite_values_at_defaults_are_pinned(name):
    value_digest = report_digests().value_digest
    found = value_digest(lambda: run_suite(name, action("z3xz2"), k_max=4, samples=40, seed=0))
    assert found == GOLDEN_FIXED_VALUES[name]


# the multiplies and generator actions (``_act`` calls) of the two
# substitution suites at the CLI defaults on z3xz2.  A fixed inner value is
# its own surround, so the nested side of a substitution meets the inputs
# the glued side gave ``outer`` and reads its value from the per-record
# cache; these counts rise if that reuse is lost.
GOLDEN_WORK = {
    "theorem-main": (6463, 13310),
    "axioms": (3304, 7106),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WORK))
def test_substitution_suite_work_at_defaults_is_pinned(name, monkeypatch):
    calls = collections.Counter()
    for method in ("multiply", "_act"):
        inner = getattr(GroupPlanarAlgebra, method)

        def counted(self, *args, inner=inner, method=method):
            calls[method] += 1
            return inner(self, *args)

        monkeypatch.setattr(GroupPlanarAlgebra, method, counted)
    run_suite(name, action("z3xz2"), k_max=4, samples=40, seed=0)
    assert (calls["multiply"], calls["_act"]) == GOLDEN_WORK[name]


@pytest.mark.parametrize("k_max", [1, 5, 9])
def test_k_max_outside_range_rejected(k_max):
    assert suites.MAX_KMAX == 4
    with pytest.raises(SuiteError, match=rf"k_max must lie in 2\.\.4, got {k_max}$"):
        run_suite("jones", action("z3xz2"), k_max=k_max)


@pytest.mark.parametrize(
    "stem,k_max,allowed",
    [("z4xz2", 4, True), ("z7xz3", 3, True), ("z7xz3", 4, False)],
)
def test_base_algebra_cost_bound(stem, k_max, allowed, monkeypatch):
    """dimension(k_max)^2 above MAX_BASE_ALGEBRA_PAIRS is refused before the
    crossed product is built, by base-algebra and by all, not by the rest."""

    class Built(Exception):
        pass

    def build(a):
        raise Built

    monkeypatch.setattr(suites, "CrossedProduct", build)
    assert suites.MAX_BASE_ALGEBRA_PAIRS == 2**20
    for name in ("base-algebra", "all"):
        if allowed:
            with pytest.raises(Built):
                run_suite(name, action(stem), k_max=k_max)
        else:
            with pytest.raises(SuiteError, match=r"above the maximum 1048576; lower k_max$"):
                run_suite(name, action(stem), k_max=k_max)
    with pytest.raises(Built):
        run_suite("jones", action(stem), k_max=k_max)


def associative_by_loop(table) -> bool:
    """The reference: every triple, one at a time, -1 absorbing."""
    size = len(table)

    def mul(i, j):
        return -1 if i < 0 or j < 0 else int(table[i, j])

    return all(
        mul(mul(i, j), k) == mul(i, mul(j, k))
        for i in range(size) for j in range(size) for k in range(size)
    )


def associative_by_row_blocks(table) -> bool:
    """The reference the support-only check replaced, kept as it was: for
    each left factor i, one block over the rows j of its nonzero products
    and every column k, plus the count of nonzero right sides."""
    nonzero = table >= 0
    # entry i: the pairs (j, k) with x_i (x_j x_k) nonzero
    expected = nonzero @ np.bincount(table[nonzero], minlength=len(table))
    for i, row in enumerate(table):
        js = np.flatnonzero(nonzero[i])
        right = np.append(row, -1)[table[js]]
        if not (table[row[js]] == right).all() or np.count_nonzero(right >= 0) != expected[i]:
            return False
    return True


def test_index_table_associativity_matches_the_row_blocks_at_colour_4():
    """The colour-4 table of Z4 x| Z2 (512 labels, 64 nonzero products per
    row) and seeded copies with one entry changed: a product index moved
    to another index, turned into -1, or a zero product given an index,
    which leaves its row one entry wider than the rest.  The support-only
    check and the row-block reference agree on each."""
    algebra = GroupPlanarAlgebra(SemidirectGroup(inversion_action(4)))
    table, labels, _ = algebra.product_structure(4)
    size = len(labels)
    assert table.shape == (512, 512) and set(np.count_nonzero(table >= 0, axis=1)) == {64}
    assert suites.index_table_associative(table) and associative_by_row_blocks(table)
    rng = np.random.default_rng(31)
    products, zeros = np.argwhere(table >= 0), np.argwhere(table < 0)
    for kind in ("other index", "index to -1", "-1 to index"):
        for _ in range(4):
            pool = zeros if kind == "-1 to index" else products
            i, j = pool[rng.integers(len(pool))]
            broken = table.copy()
            if kind == "other index":
                broken[i, j] = (table[i, j] + rng.integers(1, size)) % size
            else:
                broken[i, j] = -1 if kind == "index to -1" else rng.integers(size)
            assert broken.dtype == np.int32
            verdict = suites.index_table_associative(broken)
            assert verdict == associative_by_row_blocks(broken), (kind, i, j)
            assert not verdict, (kind, i, j)


def test_index_table_associativity_scratch_is_below_the_table():
    """On the colour-4 table of Z4 x| Z2 (512 labels, 1 MiB of int32) the
    check reads the table in place: everything it allocates at once, as
    tracemalloc sees it, stays below the table's own size."""
    algebra = GroupPlanarAlgebra(SemidirectGroup(inversion_action(4)))
    table, _, _ = algebra.product_structure(4)
    assert table.dtype == np.int32 and table.nbytes == 2**20
    tracemalloc.start()
    try:
        assert suites.index_table_associative(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes, peak


def test_index_table_associativity_catches_one_planted_entry():
    """Every entry of the int32 colour-3 table of Z3 x| Z2, changed alone,
    breaks associativity: a product index moved to another index, a product
    index turned into the zero sentinel -1, or a zero product given an index."""
    algebra = GroupPlanarAlgebra(SemidirectGroup(inversion_action(3)))
    table, labels, _ = algebra.product_structure(3)
    size = len(labels)
    assert table.dtype == np.int32 and table.shape == (size, size) == (36, 36)
    assert suites.index_table_associative(table)
    assert associative_by_loop(table)
    planted = {"other index": 0, "index to -1": 0, "-1 to index": 0}
    for i in range(size):
        for j in range(size):
            kinds = (
                [("other index", (table[i, j] + 1) % size), ("index to -1", -1)]
                if table[i, j] >= 0 else [("-1 to index", 0)]
            )
            for kind, value in kinds:
                broken = table.copy()
                broken[i, j] = value
                assert broken.dtype == np.int32
                assert not suites.index_table_associative(broken), (kind, i, j)
                if (i * size + j) % 97 == 0:
                    assert not associative_by_loop(broken), (kind, i, j)
                planted[kind] += 1
    assert planted == {"other index": 216, "index to -1": 216, "-1 to index": 1080}


def test_index_table_associativity_reads_the_zero_rows_by_count():
    """Triples whose left product is zero are checked by the count alone:
    here ``(x_2 x_2) x_1 = 0`` but ``x_2 (x_2 x_1) = x_1``, and no row the
    block compares differs."""
    table = np.array([[-1, -1, -1], [-1, -1, -1], [-1, 1, -1]], dtype=np.int32)
    assert not associative_by_loop(table)
    assert not suites.index_table_associative(table)


def test_index_table_associativity_reads_the_left_sides_by_count():
    """Triples whose right side is zero because ``x_j x_k = 0`` are checked
    by the count of left sides alone: here ``(x_1 x_0) x_0 = x_1`` but
    ``x_0 x_0 = 0``, and row 0, whose nonzero products are all the
    comparison would read, has none."""
    table = np.array([[-1, -1], [1, -1]], dtype=np.int32)
    assert not associative_by_loop(table)
    assert not suites.index_table_associative(table)


def test_index_table_associativity_matches_the_loop_on_sparse_tables():
    """Seeded partial tables of sizes 2-4, mostly zero products, against the
    triple-by-triple reference."""
    rng = np.random.default_rng(14)
    verdicts = collections.Counter()
    for _ in range(3000):
        size = int(rng.integers(2, 5))
        table = rng.integers(0, size, size=(size, size)).astype(np.int32)
        table[rng.random((size, size)) < 0.75] = -1
        expected = associative_by_loop(table)
        assert suites.index_table_associative(table) == expected, table.tolist()
        verdicts[expected] += 1
    assert min(verdicts[True], verdicts[False]) >= 300


GRAM_AT_3 = "Gram matrix of the label basis is the identity at colour 3"


def gram_at_3(cp: CrossedProduct) -> str:
    """The lhs of the colour-3 Gram record of base-algebra at k_max 3."""
    records = suites.base_algebra_report(cp, k_max=3, samples=3)
    (found,) = [r for r in records if r["case"] == GRAM_AT_3]
    return found["lhs"]


def colour_3_pairs(P: GroupPlanarAlgebra):
    """A nonzero basis pair and a zero one at colour 3, the labels of the
    nonzero pair's row, and a label outside that row."""
    table, labels, _ = P.product_structure(3)
    (i, j), (zi, zj) = np.argwhere(table >= 0)[0], np.argwhere(table < 0)[0]
    row = {labels[k] for k in table[i] if k >= 0}
    outside = next(lab for lab in labels if lab not in row)
    return (labels[i], labels[j]), (labels[zi], labels[zj]), row, outside


def plant_product(monkeypatch, g0, h0, wrong) -> None:
    """``multiply`` with the colour-3 basis product S(g0) S(h0) replaced by
    ``wrong(P, true product)``, still bilinear, so encoded right factors
    carry the defect."""
    real = GroupPlanarAlgebra.multiply

    def multiply(self, x, y):
        out = real(self, x, y)
        if x.colour == 3 and g0 in x.coeffs and h0 in y.coeffs:
            true = real(self, self.basis_element(3, g0), self.basis_element(3, h0))
            out = out + (wrong(self, true) - true).scale(x.coeffs[g0] * y.coeffs[h0])
        return out

    monkeypatch.setattr(GroupPlanarAlgebra, "multiply", multiply)


def cancelling_pairs(P: GroupPlanarAlgebra):
    """Left label g with right factors h0, h2 whose letters satisfy
    ``h2[d] + 1 == 2 * (h0[d] + 1)``, and the label of a third pair of the
    row: the letter products cannot tell ``+2 S(L)`` on (g, h0) together
    with ``-S(L)`` on (g, h2) from nothing, the count product can."""
    table, labels, _ = P.product_structure(3)
    for g, row in zip(labels, table):
        cols = [j for j in range(len(labels)) if row[j] >= 0]
        for j0 in cols:
            for j2 in cols:
                if all(b + 1 == 2 * (a + 1) for a, b in zip(labels[j0], labels[j2])):
                    j1 = next(j for j in cols if j not in (j0, j2))
                    return g, labels[j0], labels[j2], labels[row[j1]]
    raise AssertionError("no cancelling pairs")


@pytest.mark.parametrize(
    "defect",
    ["to another label", "into its own row", "dropped", "doubled", "zero pair labelled",
     "cancelling pairs", "star two terms"],
)
def test_gram_flag_catches_a_planted_defect(defect, monkeypatch):
    """One basis product or one star of Z3 x| Z2 at colour 3 planted wrong:
    the Gram record reads degenerate, and the report does not raise."""
    cp = CrossedProduct(action("z3xz2"))
    assert gram_at_3(cp) == "orthonormal"
    (g, h), (zg, zh), row, outside = colour_3_pairs(cp.product)
    pref = cp.product.product_structure(3)[2]
    (true_label,) = cp.product.multiply(
        cp.product.basis_element(3, g), cp.product.basis_element(3, h)
    ).support()
    other_in_row = next(lab for lab in sorted(row) if lab != true_label)
    if defect == "to another label":
        plant_product(monkeypatch, g, h, lambda P, t: P.basis_element(3, outside).scale(pref))
    elif defect == "into its own row":
        plant_product(monkeypatch, g, h, lambda P, t: P.basis_element(3, other_in_row).scale(pref))
    elif defect == "dropped":
        plant_product(monkeypatch, g, h, lambda P, t: P.zero(3))
    elif defect == "doubled":
        plant_product(monkeypatch, g, h, lambda P, t: t.scale(2))
    elif defect == "zero pair labelled":
        plant_product(monkeypatch, zg, zh, lambda P, t: P.basis_element(3, true_label).scale(pref))
    elif defect == "cancelling pairs":
        g, h0, h2, label = cancelling_pairs(cp.product)
        plant_product(monkeypatch, g, h0, lambda P, t: t + P.basis_element(3, label).scale(pref * 2))
        plant_product(monkeypatch, g, h2, lambda P, t: t - P.basis_element(3, label).scale(pref))
    else:
        real_star = GroupPlanarAlgebra.star

        def star(self, x):
            out = real_star(self, x)
            if x.colour == 3 and list(x.coeffs) == [g]:
                out = out + self.basis_element(3, outside if outside not in out.coeffs else g)
            return out

        monkeypatch.setattr(GroupPlanarAlgebra, "star", star)
        assert len(cp.product.star(cp.product.basis_element(3, g)).coeffs) == 2
    assert gram_at_3(CrossedProduct(action("z3xz2"))) == "degenerate"


def test_gram_flag_catches_a_planted_off_diagonal_trace(monkeypatch):
    """A nonzero trace planted on a colour-3 label of Z3 x| Z2 that is a
    product in the table but on no diagonal entry of the Gram matrix: the
    diagonal still reads 1, so only the count of nonzero entries sees the
    defect, and the Gram record reads degenerate."""
    P = CrossedProduct(action("z3xz2")).product
    table, labels, _ = P.product_structure(3)
    products = {labels[k] for k in table[table >= 0].tolist()}
    planted = next(
        lab for lab in labels
        if lab in products and P.trace(P.basis_element(3, lab)).is_zero()
    )
    real = GroupPlanarAlgebra.trace

    def trace(self, x):
        if x.colour == 3 and list(x.coeffs) == [planted]:
            return x.coeffs[planted]
        return real(self, x)

    monkeypatch.setattr(GroupPlanarAlgebra, "trace", trace)
    assert gram_at_3(CrossedProduct(action("z3xz2"))) == "degenerate"


class TwoLabelAlgebra:
    """Two colour-2 labels with product table ``[[0, 1], [-1, -1]]``, unit
    traces, a ``multiply`` that reads the table, and a star that sends both
    labels to the first: the Gram matrix is two copies of table row 0, so
    each diagonal entry is nonzero and so is each off-diagonal one."""

    group = (0, 1)
    labels = [(0,), (1,)]
    table = np.array([[0, 1], [-1, -1]], dtype=np.int32)

    def basis_element(self, colour, label):
        return PAElement(colour, {label: ONE})

    def star(self, x):
        return PAElement(x.colour, {self.labels[0]: ONE})

    def trace(self, x):
        return ONE

    def multiply(self, x, y):
        out = {}
        for g, a in x.coeffs.items():
            for h, b in y.coeffs.items():
                k = int(self.table[self.labels.index(g), self.labels.index(h)])
                if k >= 0:
                    out[self.labels[k]] = out.get(self.labels[k], ZERO) + a * b
        return PAElement(x.colour, out)


def test_gram_flag_refuses_a_star_that_sends_two_labels_to_one():
    """The table holds exactly as many nonzero traces as labels, and
    ``multiply`` agrees with it, but the star is not one-to-one, so the
    Gram matrix repeats a table row and is not the identity."""
    P = TwoLabelAlgebra()
    assert suites._multiply_matches_table(
        P, 2, [P.basis_element(2, lab) for lab in P.labels], P.table, P.labels, ONE
    )
    assert not suites.gram_is_identity(P, 2, P.table, P.labels, ONE)


def test_gram_flag_catches_a_planted_table_entry():
    """Sampled entries of the colour-3 table of Z3 x| Z2, each changed alone
    (to another index, to the zero sentinel, or a zero product given an
    index): multiply no longer agrees with the table, and the flag is False."""
    P = CrossedProduct(action("z3xz2")).product
    table, labels, prefactor = P.product_structure(3)
    assert suites.gram_is_identity(P, 3, table, labels, prefactor)
    rng = np.random.default_rng(11)
    planted = collections.Counter()
    for i, j in rng.integers(0, len(labels), size=(40, 2)).tolist():
        if table[i, j] >= 0:
            kinds = [("other index", (table[i, j] + 1) % len(labels)), ("index to -1", -1)]
        else:
            kinds = [("-1 to index", int(table[i, table[i] >= 0][0]))]
        for kind, value in kinds:
            broken = table.copy()
            broken[i, j] = value
            assert not suites.gram_is_identity(P, 3, broken, labels, prefactor), (kind, i, j)
            planted[kind] += 1
    assert min(planted.values()) >= 5 and len(planted) == 3


@pytest.mark.parametrize("colour", [3, 4])
def test_table_check_reads_every_letter(colour):
    """Two nonzero entries of one table row swapped, on Z3 x| Z2: ``multiply``
    gives each right factor the other's label, which only the letters of
    the right factor tell apart.  Every swap is refused, including at colour
    4 those whose right factors differ in the last letter alone."""
    P = CrossedProduct(action("z3xz2")).product
    table, labels, prefactor = P.product_structure(colour)
    basis = [P.basis_element(colour, lab) for lab in labels]
    assert suites._multiply_matches_table(P, colour, basis, table, labels, prefactor)
    rng = np.random.default_rng(colour)
    differing = collections.Counter()
    for i in rng.choice(len(labels), size=12, replace=False).tolist():
        a, *others = np.flatnonzero(table[i] >= 0).tolist()
        for b in others:
            broken = table[i : i + 1].copy()
            broken[0, [a, b]] = broken[0, [b, a]]
            assert not suites._multiply_matches_table(
                P, colour, basis[i : i + 1], broken, labels, prefactor
            ), (i, a, b)
            differing[tuple(d for d in range(colour - 1) if labels[a][d] != labels[b][d])] += 1
    if colour == 4:
        assert differing[(2,)] >= 12
    assert sum(differing.values()) >= 12 * 2


def test_base_algebra_multiplies_linearly_in_the_dimension(monkeypatch):
    """The colour-4 products of base-algebra on Z3 x| Z2 (216 labels) grow
    with the dimension, not with its square (46,656 for the Gram loop over
    all pairs), and each right factor is grouped by coefficient once, however
    often it is used."""
    calls = collections.Counter()
    groupings = collections.Counter()
    rights = []
    real = GroupPlanarAlgebra.multiply
    real_classes = group_algebra.coefficient_classes

    def counting(self, x, y):
        calls[x.colour] += 1
        rights.append(y)
        try:
            return real(self, x, y)
        finally:
            rights.pop()

    def classes(x):
        if rights and x is rights[-1]:
            groupings[x.colour] += 1
        return real_classes(x)

    monkeypatch.setattr(GroupPlanarAlgebra, "multiply", counting)
    monkeypatch.setattr(group_algebra, "coefficient_classes", classes)
    cp = CrossedProduct(action("z3xz2"))
    samples = 40
    assert all(r["pass"] for r in suites.base_algebra_report(cp, k_max=4, samples=samples))
    dim = cp.product.dimension(4)
    assert dim == 216
    # Gram flag: one count and three letter products per label; unit: two
    # per label; star reversal: two per sampled pair; the colour-3 Markov
    # check multiplies at colour 4, once per colour-3 label
    assert calls[4] <= (4 + 2) * dim + 2 * samples + cp.product.dimension(3)
    # right factors grouped: the unit and each label (unit check), the four
    # encoded factors (Gram flag), two per sampled pair (star reversal) and
    # the Jones element (the colour-3 Markov check)
    assert groupings[4] <= (dim + 1) + 4 + 2 * samples + 1


def test_suite_names_in_order():
    assert SUITE_NAMES == (
        "base-algebra", "crossed-product", "biprojection", "theorem-main",
        "axioms", "jones", "trace", "dual", "all",
    )


def test_unknown_suite_rejected():
    with pytest.raises(SuiteError, match="unknown suite 'nope'; choose from base-algebra, "):
        run_suite("nope", action("z3xz2"))


def test_all_builds_the_cut_down_algebra_once(monkeypatch):
    built = []
    real = suites.IntermediateAlgebra
    monkeypatch.setattr(
        suites, "IntermediateAlgebra", lambda sub, k_max: built.append(k_max) or real(sub, k_max)
    )
    run_suite("biprojection", action("z3xz2"), k_max=2, samples=1)
    assert built == []
    records = run_suite("all", action("z3xz2"), k_max=2, samples=1)
    assert built == [2]
    assert [r["suite"] for r in records][-1] == "dual"
