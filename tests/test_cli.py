"""CLI behaviour: output formats, exit codes, report determinism."""

import errno
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from planarbox.cli import MAX_RATIO, format_scalar, main
from planarbox.expressions import (
    MAX_COLOUR,
    MAX_DEPTH,
    ComposeExpr,
    parse_expr,
    random_composable_pair,
    realize,
    render_expr,
)
from planarbox.group_algebra import render_terms
from planarbox.groups import load_action
from planarbox.scalars import ONE, ZERO, RadicalScalar, pow_half
from planarbox.tangles import alpha_tilde, loops_white

ACTIONS = "actions"

Z3 = {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
Z2 = {"table": [[0, 1], [1, 0]]}
MALFORMED_ACTIONS = {
    "missing-theta": {"group": Z3},
    "top-level-list": [Z3, Z2],
    "table-not-a-list": {"group": {"table": 3}, "theta": Z2},
    "row-not-integers": {"group": {"table": [[0, "1"], [1, 0]]}, "theta": Z2},
    "action-not-an-object": {"group": Z3, "theta": Z2, "action": [[0, 2, 1]]},
    "map-not-a-list": {"group": Z3, "theta": Z2, "action": {"1": 5}},
    "stray-action-key": {"group": Z3, "theta": Z2, "action": {"1": [0, 2, 1], "7": [0, 1, 2], "x": 5}},
    "stray-top-level-key": {"group": Z3, "theta": Z2, "action": {"1": [0, 2, 1]}, "extra": 5},
    "names-in-permutation-form": {
        "group": {"permutations": [[1, 2, 0]], "degree": 3, "names": ["e", "a", "b"]},
        "theta": Z2, "action": {"1": [0, 2, 1]},
    },
    "misspelled-names": {
        "group": Z3, "theta": {**Z2, "nmaes": ["e", "t"]}, "action": {"1": [0, 2, 1]},
    },
    "table-and-permutations": {
        "group": {**Z3, "permutations": [[1, 2, 0]], "degree": 3}, "theta": Z2, "action": {"1": [0, 2, 1]},
    },
}


def _chain(n: int) -> str:
    """``n`` nested ``compose`` forms around one generator, which then sits
    inside ``n`` forms."""
    return "(compose (gen id 2) 1 " * n + "(gen id 2)" + ")" * n


@pytest.fixture
def deep_action(tmp_path):
    """An action file nested past what the JSON parser can recurse into."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    return str(path)


@pytest.fixture(params=sorted(MALFORMED_ACTIONS))
def malformed_action(request, tmp_path):
    path = tmp_path / f"{request.param}.json"
    path.write_text(json.dumps(MALFORMED_ACTIONS[request.param]))
    return str(path)


class TestFormatScalar:
    def test_zero_and_one(self):
        assert format_scalar(ZERO) == "0"
        assert format_scalar(ONE) == "1"

    def test_plain_fraction(self):
        assert format_scalar(RadicalScalar.rational(Fraction(-3, 4))) == "-3/4"

    def test_fractional_radical_coefficient_is_parenthesized(self):
        assert format_scalar(pow_half(2, -1)) == "(1/2)*sqrt(2)"

    def test_unit_radical_coefficient(self):
        assert format_scalar(pow_half(2, 1)) == "sqrt(2)"
        assert format_scalar(pow_half(2, 1).__neg__()) == "-sqrt(2)"

    def test_integer_radical_coefficient(self):
        assert format_scalar(pow_half(3, 3)) == "3*sqrt(3)"

    def test_mixed_terms(self):
        value = RadicalScalar.rational(2) - pow_half(2, -1)
        assert format_scalar(value) == "2 - (1/2)*sqrt(2)"


class TestRenderTerms:
    """The one term renderer, under the library's and the CLI's scalar forms."""

    TERMS = [
        ("S(0)", -ONE),
        ("U(1)", ONE + pow_half(2, -1)),
        ("U(2)", pow_half(2, -1)),
        ("S(3)", ONE),
    ]

    def test_library_scalars(self):
        assert render_terms(self.TERMS, RadicalScalar.render) == (
            "-S(0) + (1 + 1/2*sqrt(2))*U(1) + 1/2*sqrt(2)*U(2) + S(3)"
        )

    def test_cli_scalars(self):
        assert render_terms(self.TERMS, format_scalar) == (
            "-S(0) + (1 + (1/2)*sqrt(2))*U(1) + (1/2)*sqrt(2)*U(2) + S(3)"
        )

    @pytest.mark.parametrize("scalar", [RadicalScalar.render, format_scalar])
    def test_no_terms_render_zero(self, scalar):
        assert render_terms([], scalar) == "0"


ALPHA_TEXTS = 400
ALPHA_RATIOS = (2, 3)


def _alpha_texts():
    """``ALPHA_TEXTS`` seeded glued pairs, colours up to 5, depth 3."""
    rng = random.Random(0)
    for _ in range(ALPHA_TEXTS):
        outer, slot, inner = random_composable_pair(rng, max_colour=5, depth=3)
        yield render_expr(ComposeExpr(outer, slot, inner))


# sha256 of the concatenated ``alpha`` output over _alpha_texts() x ALPHA_RATIOS
ALPHA_DIGEST = "02b9a029e7abc28a06c695f9d282b4291b4655ca02b6d280ef4e6c371abdf1ad"
# sha256 of "<alpha_tilde> <loops_white>" lines over the same texts and ratios
ALPHA_WHITE_DIGEST = "df94853d80d1a1cad058a6b94a370e94c2f402c34ddb655bf79a3275129b1a5f"


class TestAlphaCommand:
    def test_identity_tangle(self, capsys):
        assert main(["alpha", "(gen id 3)", "--ratio", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "alpha = 1",
            "c = 0",
            "loops = 3",
            "external = 3",
            "internal = 3",
        ]

    def test_expectation_tangle(self, capsys):
        assert main(["alpha", "(gen E 4 5)"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "alpha = (1/2)*sqrt(2)"
        assert out[1] == "c = -1"
        assert out[2] == "loops = 5"

    def test_composite_tangle(self, capsys):
        assert main(["alpha", "(compose (gen E 2 3) 1 (gen I 3 2))"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "alpha = (1/2)*sqrt(2)"
        assert out[3] == "external = 2"
        assert out[4] == "internal = 2"

    def test_no_internal_discs(self, capsys):
        assert main(["alpha", "(gen jones 2)"]) == 0
        assert "internal = none" in capsys.readouterr().out

    def test_starts_without_numpy(self):
        """Every planarbox module loads with the CLI, but only the table
        checks import numpy, so ``alpha`` never does.  Run in a child
        process, since this one has numpy loaded already."""
        script = (
            "import sys\n"
            "from planarbox import cli\n"
            "assert cli.main(['alpha', '(compose (gen E 2 3) 1 (gen I 3 2))']) == 0\n"
            "assert 'planarbox.suites' in sys.modules\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("alpha = (1/2)*sqrt(2)\n")

    def test_parse_error_exits_2(self, capsys):
        assert main(["alpha", "(gen E 4"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_colour_above_bound_exits_2(self, capsys):
        assert main(["alpha", "(gen id 1000000)"]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and f"MAX_COLOUR = {MAX_COLOUR}" in err

    @pytest.mark.parametrize(
        "text",
        ["(" * 3000, _chain(1200)],
        ids=["3000 open parentheses", "1200-deep compose chain"],
    )
    def test_deep_nesting_exits_2(self, capsys, text):
        assert main(["alpha", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and f"MAX_DEPTH = {MAX_DEPTH}" in err
        assert "Traceback" not in err

    def test_chain_at_the_depth_bound_runs(self, capsys):
        """Reading and realizing recurse per level; the deepest text the
        parser accepts still runs through them and the rest of ``alpha``."""
        assert main(["alpha", _chain(MAX_DEPTH)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["alpha = 1", "c = 0"]

    @pytest.mark.parametrize(
        "text",
        ["(gen id 1_0)", "(gen id +2)", "(gen id \u0663)",
         "(compose (gen id 2) +1 (gen id 2))", "(compose (gen id 2) 0_1 (gen id 2))",
         "(renumber (2 +1) (gen M 2))"],
    )
    def test_non_decimal_number_exits_2(self, text, capsys):
        """Colours, slots and permutation images must be ASCII digits: none
        is read as another number."""
        assert main(["alpha", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: bad ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(gen id {n})", "bad colour token {n!r}"),
            ("(compose (gen id 2) {n} (gen id 2))", "bad slot index {n!r}"),
            ("(renumber ({n} 1) (gen M 2))", "bad permutation {images!r}"),
        ],
        ids=["colour", "slot", "image"],
    )
    def test_numeral_longer_than_int_converts_exits_2(self, text, message, capsys):
        """A numeral of ASCII digits that ``int()`` refuses for its length
        (5,000 digits, past the interpreter's 4,300) is a bad number like
        any other, not a traceback."""
        n = "1" * 5000
        assert 0 < sys.get_int_max_str_digits() < len(n)
        assert main(["alpha", text.format(n=n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {message.format(n=n, images=[n, '1'])}\n"

    def test_unknown_generator_exits_2(self, capsys):
        assert main(["alpha", "(gen wobble 2)"]) == 2

    def test_invalid_tangle_exits_3(self, capsys):
        assert main(["alpha", "(compose (gen E 2 3) 1 (gen M 2))"]) == 3
        assert "invalid tangle" in capsys.readouterr().err

    def test_bad_ratio_exits_2(self, capsys):
        assert main(["alpha", "(gen id 2)", "--ratio", "0"]) == 2

    def test_ratio_above_bound_exits_2(self, capsys):
        """An odd capping exponent factors the ratio by trial division, so
        a ratio above the bound is refused before any tangle work."""
        assert main(["alpha", "(gen E 4 5)", "--ratio", str(MAX_RATIO + 1)]) == 2
        err = capsys.readouterr().err
        assert f"MAX_RATIO = {MAX_RATIO}" in err and "Traceback" not in err

    def test_ratio_at_bound_prints_its_weight(self, capsys):
        assert main(["alpha", "(gen E 4 5)", "--ratio", str(MAX_RATIO)]) == 0
        weight = format_scalar(pow_half(MAX_RATIO, -1))
        assert capsys.readouterr().out.splitlines()[:2] == [f"alpha = {weight}", "c = -1"]

    def test_output_bytes_pinned(self, capsys):
        shown, white = hashlib.sha256(), hashlib.sha256()
        calls = 0
        for text in _alpha_texts():
            t = realize(parse_expr(text))
            for ratio in ALPHA_RATIOS:
                assert main(["alpha", text, "--ratio", str(ratio)]) == 0, text
                shown.update(capsys.readouterr().out.encode())
                white.update(f"{format_scalar(alpha_tilde(t, ratio))} {loops_white(t)}\n".encode())
                calls += 1
        assert (calls, shown.hexdigest(), white.hexdigest()) == (
            ALPHA_TEXTS * len(ALPHA_RATIOS), ALPHA_DIGEST, ALPHA_WHITE_DIGEST)


class TestSuiteCommand:
    def test_report_written_and_green(self, tmp_path, capsys):
        out = tmp_path / "jones.json"
        code = main(["suite", "jones", "--out", str(out), "--samples", "3"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["summary"] == {"cases": 14, "failed": 0, "ok": True}
        assert report["config"]["suite"] == "jones"
        assert report["config"]["action"] == "crossed(3,2)"
        assert all(
            set(r) == {"suite", "case", "lhs", "rhs", "pass"}
            for r in report["records"]
        )

    def test_stdout_when_no_out_path(self, capsys):
        assert main(["suite", "dual", "--samples", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["ok"] is True

    def test_identical_config_gives_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            main(["suite", "axioms", "--out", str(target), "--samples", "2", "--seed", "5"])
        assert a.read_bytes() == b.read_bytes()

    def test_action_file_matches_builtin_default(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["suite", "jones", "--out", str(a), "--samples", "2"])
        main(["suite", "jones", "--out", str(b), "--samples", "2",
              "--action", f"{ACTIONS}/z3xz2.json"])
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ra["records"] == rb["records"]
        assert rb["config"]["action_path"].endswith("z3xz2.json")

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["suite", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_bad_kmax_exits_2(self, capsys):
        assert main(["suite", "jones", "--kmax", "9"]) == 2
        assert main(["suite", "jones", "--kmax", "1"]) == 2

    def test_bad_samples_exits_2(self, capsys):
        assert main(["suite", "jones", "--samples", "0"]) == 2

    def test_missing_action_file_exits_2(self, capsys):
        assert main(["suite", "jones", "--action", "no/such/file.json"]) == 2
        assert "cannot load action" in capsys.readouterr().err

    def test_malformed_action_file_exits_2(self, malformed_action, capsys):
        assert main(["suite", "jones", "--action", malformed_action]) == 2
        assert "cannot load action" in capsys.readouterr().err

    def test_deeply_nested_action_file_exits_2(self, deep_action, capsys):
        assert main(["suite", "trace", "--action", deep_action]) == 2
        assert "cannot load action" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["suite", "jones"], ["multiply", "2", "1", "1"]], ids=str)
    @pytest.mark.parametrize("key", ["7", "x", "01", "-1"])
    def test_stray_action_key_exits_2(self, command, key, tmp_path, capsys):
        path = tmp_path / "stray.json"
        path.write_text(json.dumps({"group": Z3, "theta": Z2, "action": {"1": [0, 2, 1], key: [0, 1, 2]}}))
        assert main([*command, "--action", str(path)]) == 2
        assert f"action key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["suite", "jones"], ["multiply", "2", "1", "1"]], ids=str)
    def test_theta_identity_acting_as_an_automorphism_exits_2(self, command, tmp_path, capsys):
        """Inversion is an automorphism of Z3, but theta's identity must
        act as the identity map."""
        path = tmp_path / "identity.json"
        path.write_text(json.dumps({"group": Z3, "theta": Z2, "action": {"0": [0, 2, 1], "1": [0, 2, 1]}}))
        assert main([*command, "--action", str(path)]) == 2
        assert capsys.readouterr().err.strip() == (
            "cannot load action: theta identity must act as the identity map"
        )

    def test_group_above_order_cap_exits_2(self, tmp_path, capsys):
        # S_7 (order 5040): validating its table would check 1.3e11 triples
        s7 = {"permutations": [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]], "degree": 7}
        path = tmp_path / "s7.json"
        path.write_text(json.dumps({"group": s7, "theta": {"table": [[0]]}}))
        start = time.perf_counter()
        assert main(["suite", "jones", "--action", str(path)]) == 2
        assert time.perf_counter() - start < 10
        assert "maximum" in capsys.readouterr().err

    @pytest.mark.parametrize("degree", [0, -1])
    def test_non_positive_degree_exits_2(self, degree, tmp_path, capsys):
        path = tmp_path / "degree.json"
        group = {"permutations": [], "degree": degree}
        path.write_text(json.dumps({"group": group, "theta": {"table": [[0]]}}))
        assert main(["suite", "jones", "--action", str(path)]) == 2
        assert "degree must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "perms, code", [([], 0), ([[1, 0]], 2)], ids=["no generators", "short generator"]
    )
    def test_large_degree_builds_nothing_of_its_size(self, perms, code, tmp_path):
        """Nothing is built at size ``degree`` before the generators are
        checked against it: under a 1.5 GB address-space cap, a
        10^8-entry identity tuple would be a MemoryError.  The cap is set
        in a child process, so a failure stays inside it."""
        path = tmp_path / "degree.json"
        group = {"permutations": perms, "degree": 10**8}
        path.write_text(json.dumps({"group": group, "theta": {"table": [[0]]}}))
        script = (
            "import resource, sys\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "cap = 1536 * 2**20\n"
            "if hard != resource.RLIM_INFINITY:\n"
            "    cap = min(cap, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "from planarbox.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["multiply", "2", "0", "0", "--action", str(path)]
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_kmax_above_bound_names_the_range(self, capsys):
        assert main(["suite", "jones", "--kmax", "5"]) == 2
        assert "2..4" in capsys.readouterr().err

    def test_base_algebra_above_cost_bound_exits_2(self, capsys):
        # Z7 x| Z3 at k_max 4: 9261^2 (about 86M) basis label pairs
        start = time.perf_counter()
        code = main(["suite", "base-algebra", "--action", f"{ACTIONS}/z7xz3.json", "--kmax", "4"])
        assert code == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "9261^2 = 85766121 basis label pairs" in err
        assert "maximum 1048576" in err

    def test_out_into_missing_directory_exits_2_before_any_suite_work(
        self, tmp_path, monkeypatch, capsys
    ):
        import planarbox.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("suite ran before the output directory was checked")

        monkeypatch.setattr(cli, "run_suite", refuse)
        out = tmp_path / "no" / "such" / "r.json"
        assert main(["suite", "jones", "--out", str(out)]) == 2
        assert "cannot write report" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_out_onto_a_directory_exits_2_before_any_suite_work(
        self, tmp_path, monkeypatch, capsys
    ):
        import planarbox.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("suite ran before the output path was checked")

        monkeypatch.setattr(cli, "run_suite", refuse)
        assert main(["suite", "jones", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot write report" in err
        assert f"{tmp_path} is a directory" in err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        # the parent exists, but the target is a directory
        assert main(["suite", "jones", "--kmax", "2", "--out", str(tmp_path)]) == 2
        assert "cannot write report" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["name", "directory"])
    def test_over_long_out_exits_2_before_any_suite_work(
        self, where, tmp_path, monkeypatch, capsys
    ):
        """A file or directory name past the file system's limit makes the
        path checks themselves raise; that is a report that cannot be
        written, not a failed record."""
        import planarbox.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("suite ran before the output path was checked")

        monkeypatch.setattr(cli, "run_suite", refuse)
        long = "x" * 300
        out = tmp_path / f"{long}.json" if where == "name" else tmp_path / long / "r.json"
        assert main(["suite", "jones", "--kmax", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write report: [Errno {errno.ENAMETOOLONG}] ")

    def test_a_write_that_fails_exits_2(self, tmp_path, monkeypatch, capsys):
        """The write itself failing after the suite ran (a full disk, say)
        is exit 2 with the error, and nothing is reported as written."""

        def fail(self, *args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", fail)
        out = tmp_path / "r.json"
        assert main(["suite", "jones", "--kmax", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "cannot write report: [Errno 28] No space left on device\n"
        assert captured.out == ""
        assert not out.exists()

    def test_failures_exit_1_with_report(self, tmp_path, monkeypatch, capsys):
        import planarbox.cli as cli

        bad = [{"suite": "jones", "case": "x", "lhs": "a", "rhs": "b", "pass": False}]
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: list(bad))
        out = tmp_path / "r.json"
        assert main(["suite", "jones", "--out", str(out)]) == 1
        assert json.loads(out.read_text())["summary"]["failed"] == 1


PAIRS_PER_CELL = 64


def _multiply_argvs():
    """``multiply`` on z3xz2 and s4 in every basis at colours 2 and 3: all
    label pairs of a cell, or ``PAIRS_PER_CELL`` of them evenly spaced."""
    for stem in ("z3xz2", "s4"):
        path = f"{ACTIONS}/{stem}.json"
        action = load_action(json.loads(Path(path).read_text()))
        n = action.group.order
        for basis, order in (("S", n * action.theta.order), ("thetaS", n), ("U", n)):
            for colour in (2, 3):
                labels = [
                    ",".join(map(str, lab))
                    for lab in itertools.product(range(order), repeat=colour - 1)
                ]
                pairs = len(labels) ** 2
                for i in range(0, pairs, -(-pairs // PAIRS_PER_CELL)):
                    left, right = divmod(i, len(labels))
                    yield ["multiply", str(colour), labels[left], labels[right],
                           "--basis", basis, "--action", path]


# sha256 of the concatenated output of _multiply_argvs(), 486 products
MULTIPLY_DIGEST = "9d923771d66c6c5dbf9905a899f655273733cd19c8a446a8d3ccbbcaaaa99d23"


# the highest colour of the sum-basis sweep on each shipped action file
SUM_COLOURS = {"z3xz2": 5, "z4xz2": 5, "z3-trivial": 5, "s4": 4, "z7xz3": 4}
SUM_PAIRS = 25


def _sum_multiply_argvs():
    """``multiply`` in the orbit-sum and twist-sum bases on every shipped
    action file, from colour 2 to its ``SUM_COLOURS`` entry: ``SUM_PAIRS``
    seeded label pairs per colour, each in both bases."""
    for stem, top in SUM_COLOURS.items():
        path = f"{ACTIONS}/{stem}.json"
        n = load_action(json.loads(Path(path).read_text())).group.order
        for colour in range(2, top + 1):
            rng = random.Random(f"sum-multiply-{stem}-{colour}")
            for _ in range(SUM_PAIRS):
                left, right = (
                    ",".join(str(rng.randrange(n)) for _ in range(colour - 1)) for _ in range(2)
                )
                for basis in ("thetaS", "U"):
                    yield ["multiply", str(colour), left, right, "--basis", basis, "--action", path]


# sha256 of the concatenated output of _sum_multiply_argvs(), 900 products,
# each read back over its basis (``invariant_components``, ``twist_components``)
SUM_MULTIPLY_DIGEST = "f4c53f6c1cdc67515deb498e961bb1f7ab3ba23b68d4a40cf5358d0f20e36d55"


class TestMultiplyCommand:
    def test_output_bytes_pinned(self, capsys):
        digest = hashlib.sha256()
        calls = 0
        for argv in _multiply_argvs():
            assert main(argv) == 0, argv
            digest.update(capsys.readouterr().out.encode())
            calls += 1
        assert (calls, digest.hexdigest()) == (486, MULTIPLY_DIGEST)

    def test_sum_basis_output_bytes_pinned(self, capsys):
        digest = hashlib.sha256()
        calls = 0
        for argv in _sum_multiply_argvs():
            assert main(argv) == 0, argv
            digest.update(capsys.readouterr().out.encode())
            calls += 1
        assert (calls, digest.hexdigest()) == (900, SUM_MULTIPLY_DIGEST)

    def test_plain_labels(self, capsys):
        assert main(["multiply", "2", "1", "2"]) == 0
        assert capsys.readouterr().out.strip() == "S((2,1))"

    def test_orbit_sums(self, capsys):
        assert main(["multiply", "2", "1", "1", "--basis", "thetaS"]) == 0
        assert capsys.readouterr().out.strip() == "ThetaS(0) + ThetaS(1)"

    def test_twist_sums(self, capsys):
        assert main(["multiply", "2", "1", "1", "--basis", "U"]) == 0
        assert capsys.readouterr().out.strip() == "2*U(0) + 2*U(1)"

    def test_twist_sum_colour_3(self, capsys):
        assert main(["multiply", "3", "0,1", "1,0", "--basis", "U"]) == 0
        assert capsys.readouterr().out.strip() == "2*sqrt(6)*U(1,0)"

    def test_vanishing_product_prints_zero(self, capsys):
        assert main(["multiply", "3", "0,1", "1,1", "--basis", "U"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_action_file(self, capsys):
        code = main(["multiply", "2", "1", "3", "--basis", "thetaS",
                     "--action", f"{ACTIONS}/z4xz2.json"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "ThetaS(0) + ThetaS(2)"

    def test_malformed_action_file_exits_2(self, malformed_action, capsys):
        assert main(["multiply", "2", "1", "1", "--action", malformed_action]) == 2
        assert "cannot load action" in capsys.readouterr().err

    def test_deeply_nested_action_file_exits_2(self, deep_action, capsys):
        assert main(["multiply", "2", "1", "1", "--action", deep_action]) == 2
        assert "cannot load action" in capsys.readouterr().err

    def test_label_out_of_range_exits_2(self, capsys):
        assert main(["multiply", "2", "9", "1"]) == 2

    def test_wrong_label_length_exits_2(self, capsys):
        assert main(["multiply", "3", "1", "1"]) == 2

    def test_colour_out_of_range_exits_2(self, capsys):
        assert main(["multiply", "7", "1,1,1,1,1,1", "1,1,1,1,1,1"]) == 2

    def test_non_integer_label_exits_2(self, capsys):
        assert main(["multiply", "2", "x", "1"]) == 2

    @pytest.mark.parametrize(
        "colour,label", [(2, "1,"), (2, ",1"), (2, "+1"), (2, " 1"), (2, "0_1"), (2, ""),
                         (2, "\u0661"), (3, "1,,2")]
    )
    def test_malformed_label_exits_2(self, colour, label, capsys):
        """Each piece must be ASCII digits: none is read as another label."""
        code = main(["multiply", str(colour), label, "1" if colour == 2 else "1,1",
                     "--action", f"{ACTIONS}/z7xz3.json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not a comma-separated integer tuple" in captured.err

    def test_colour_is_checked_before_the_algebras_are_built(self, monkeypatch, capsys):
        import planarbox.cli as cli

        def refuse(action):
            raise AssertionError("CrossedProduct built before the colour check")

        monkeypatch.setattr(cli, "CrossedProduct", refuse)
        assert main(["multiply", "6", "1,1,1,1,1", "1,1,1,1,1"]) == 2
        assert "colour must lie in 2..5" in capsys.readouterr().err


# tokens that are no plain decimal numeral, most of which int() reads as a
# number: digits of other scripts (Arabic-Indic, fullwidth, superscript), an
# underscore, surrounding space, a sign; then other notations and nothing
NOT_DECIMAL = ["٣", "３", "²", "1_000", " 3", "3 ", "+3", "3.0", "0x3", ""]
INTEGER_ARGVS = {
    "--ratio": lambda v: ["alpha", "(gen E 2 3)", "--ratio", v],
    "--kmax": lambda v: ["suite", "jones", "--kmax", v],
    "--samples": lambda v: ["suite", "jones", "--samples", v],
    "--seed": lambda v: ["suite", "jones", "--seed", v],
    "colour": lambda v: ["multiply", v, "1", "1"],
}


class TestIntegerOptions:
    """Every integer option and argument reads a plain decimal numeral, as
    the expression reader and ``multiply``'s labels do; ``--seed`` may
    carry one leading ``-``."""

    @pytest.mark.parametrize(
        "option, token",
        [(option, token) for option in sorted(INTEGER_ARGVS)
         for token in [*NOT_DECIMAL, "-3", "-٣", "- 3"] if (option, token) != ("--seed", "-3")],
    )
    def test_anything_but_a_decimal_numeral_exits_2(self, option, token, capsys):
        with pytest.raises(SystemExit) as exc:
            main(INTEGER_ARGVS[option](token))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{token!r} is not a decimal numeral" in captured.err

    def test_seed_takes_a_leading_minus(self, capsys):
        argv = ["suite", "jones", "--kmax", "2", "--samples", "1"]
        assert main([*argv, "--seed", "-3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["seed"] == -3
        assert main([*argv, "--seed", "003"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 3
