"""The three benchmark workloads: composite, structure and tangles.

A workload is built from the benchmark seed alone and runs as a closed
loop of a fixed number of *passes*; the next pass starts only after the
previous one has returned.  A pass is a fixed list of verdict requests:

* ``composite``: three one-sample reports on ``actions/z3xz2.json`` at
  ``k_max`` 4.  One is a *heavy* verdict from ``HEAVY_VERDICTS``: its
  sampled tree multiplies colour-4 sums, about 0.1 million multiply term
  pairs.  The other two are ``theorem-main`` and ``axioms`` for a *light*
  suite seed whose sampled trees cost at most ``COST_CAP``.  The benchmark
  seed orders the heavy list and draws the light seeds.  A full 40-sample
  suite costs from 4 s to 47 s depending on the seed, so one long verdict
  cannot give a steady time; passes of similar cost can.
* ``structure``: the six structure suites on ``actions/z4xz2.json`` and on
  ``actions/z3-trivial.json`` at the CLI defaults, suite seed = benchmark
  seed.  One pass takes about 14 s at the reference speed (``speed.py``).
* ``tangles``: a batch of ``BATCH`` expression texts from a seeded pool,
  each parsed, realized, validated and capped as ``planarbox alpha`` does.

Every verdict is checked against a fixed record count and hashed in the
CLI's canonical report bytes, under a label that names its inputs, so that
repeats and commits can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import random
from pathlib import Path

WORKLOADS = ("composite", "structure", "tangles")
K_MAX = 4
SUITE_SAMPLES = 40
COMPOSITE_SAMPLES = 1
# input tuples times (1 + colour-4 products and Jones leaves) of one tree
COST_CAP = 300
# passes of one run; a run stops early only if --seconds runs out
PASSES = {"composite": 12, "structure": 1, "tangles": 128}
# (suite, suite seed) of one-sample z3xz2 verdicts at k_max 4 that each make
# 85k-105k multiply term pairs (sum of |x|*|y|), nearly all at colour 4;
# ``python3 perfbench/heavy.py`` lists them
HEAVY_VERDICTS = (
    ("axioms", 87),  # 93314 term pairs, 93312 at colour 4
    ("axioms", 88),  # 93316 term pairs, 93312 at colour 4
    ("axioms", 144),  # 95904 term pairs, 93312 at colour 4
    ("axioms", 463),  # 93316 term pairs, 93312 at colour 4
    ("axioms", 491),  # 93312 term pairs, 93312 at colour 4
    ("axioms", 492),  # 93316 term pairs, 93312 at colour 4
    ("axioms", 529),  # 93314 term pairs, 93312 at colour 4
    ("axioms", 530),  # 93318 term pairs, 93312 at colour 4
    ("axioms", 618),  # 93384 term pairs, 93312 at colour 4
    ("axioms", 619),  # 93312 term pairs, 93312 at colour 4
    ("axioms", 624),  # 93312 term pairs, 93312 at colour 4
    ("axioms", 625),  # 93314 term pairs, 93312 at colour 4
    ("axioms", 652),  # 93312 term pairs, 93312 at colour 4
    ("axioms", 653),  # 93314 term pairs, 93312 at colour 4
    ("axioms", 655),  # 93314 term pairs, 93312 at colour 4
    ("axioms", 656),  # 93312 term pairs, 93312 at colour 4
    ("theorem-main", 666),  # 93456 term pairs, 93312 at colour 4
    ("axioms", 739),  # 93312 term pairs, 93312 at colour 4
    ("axioms", 740),  # 93312 term pairs, 93312 at colour 4
    ("axioms", 794),  # 93324 term pairs, 93312 at colour 4
    ("axioms", 795),  # 93312 term pairs, 93312 at colour 4
    ("axioms", 799),  # 93312 term pairs, 93312 at colour 4
    ("axioms", 800),  # 93312 term pairs, 93312 at colour 4
    ("axioms", 838),  # 93312 term pairs, 93312 at colour 4
    ("axioms", 839),  # 93312 term pairs, 93312 at colour 4
    ("axioms", 861),  # 96962 term pairs, 96960 at colour 4
    ("axioms", 862),  # 103584 term pairs, 103584 at colour 4
    ("axioms", 931),  # 94104 term pairs, 93312 at colour 4
    ("axioms", 944),  # 96728 term pairs, 93312 at colour 4
)
POOL = 2000
BATCH = 250
ALPHA_RATIO = 2

# (action file stem, suite, samples) -> record count of one report
EXPECTED_RECORDS = {
    ("z3xz2", "theorem-main", 1): 9,
    ("z3xz2", "axioms", 1): 6,
    ("z4xz2", "base-algebra", 40): 32,
    ("z4xz2", "crossed-product", 40): 196,
    ("z4xz2", "biprojection", 40): 21,
    ("z4xz2", "jones", 40): 14,
    ("z4xz2", "trace", 40): 26,
    ("z4xz2", "dual", 40): 17,
    ("z3-trivial", "base-algebra", 40): 32,
    ("z3-trivial", "crossed-product", 40): 166,
    ("z3-trivial", "biprojection", 40): 16,
    ("z3-trivial", "jones", 40): 14,
    ("z3-trivial", "trace", 40): 26,
    ("z3-trivial", "dual", 40): 17,
}


class GateError(RuntimeError):
    """A correctness-gate violation: wrong count, differing bytes, bad output."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def untraced_sampler():
    """The program's tree sampler without a tracing wrapper: the benchmark's
    own input generation is not work of the program under test."""
    from planarbox.expressions import random_composable_pair

    return getattr(random_composable_pair, "__wrapped__", random_composable_pair)


class Verdict:
    """One verdict request and the canonical report it must produce."""

    def __init__(self, action_path: str, suite: str, samples: int, seed: int, compute,
                 cli_repeat: bool = True):
        self.action_path = action_path
        self.stem = Path(action_path).stem
        self.suite = suite
        self.samples = samples
        self.seed = seed
        self.compute = compute
        self.cli_repeat = cli_repeat

    @property
    def label(self) -> str:
        return f"{self.stem} {self.suite} samples {self.samples} seed {self.seed}"

    def cli_args(self) -> list[str]:
        return ["suite", self.suite, "--action", self.action_path, "--kmax", str(K_MAX),
                "--samples", str(self.samples), "--seed", str(self.seed)]


class SuiteWorkload:
    """Shared pieces of the two report workloads."""

    # exponent on the machine-speed factor (speed.py)
    speed_share = 1.0

    def __init__(self, root: Path, seed: int):
        from planarbox.crossed import CrossedProduct
        from planarbox.groups import load_action
        from planarbox.intermediate import IntermediateAlgebra, crossed_instance

        self.root = root
        self.seed = seed
        self.instances = {}
        for path in self.action_paths:
            action = load_action(json.loads((root / path).read_text()))
            cp = CrossedProduct(action)
            inter = IntermediateAlgebra(crossed_instance(cp), k_max=K_MAX)
            self.instances[path] = (action, cp, inter)

    def report_text(self, verdict: Verdict, records: list[dict]) -> str:
        """The bytes ``planarbox suite --out`` writes for these records."""
        from planarbox.suites import summarize

        action = self.instances[verdict.action_path][0]
        report = {
            "config": {
                "suite": verdict.suite,
                "action": f"crossed({action.group.order},{action.theta.order})",
                "action_path": verdict.action_path,
                "k_max": K_MAX,
                "samples": verdict.samples,
                "seed": verdict.seed,
            },
            "records": records,
            "summary": summarize(records),
        }
        return json.dumps(report, indent=2, sort_keys=True) + "\n"

    def run_pass(self, j: int, clock, speed, tracer=None) -> dict:
        """Run every verdict of pass ``j``; returns timings and outcomes.

        Each verdict is a segment of ``speed``, timed on its own.
        """
        verdicts = self.pass_verdicts(j)
        items, digests, failed_cases = [], [], []
        attempted, scaled = 0, 0.0
        for v in verdicts:
            speed.start()
            span = tracer.span("bench.verdict." + v.suite) if tracer else contextlib.nullcontext()
            with span:
                records = v.compute()
                ser = tracer.span("cli.serialize") if tracer else contextlib.nullcontext()
                with ser:
                    text = self.report_text(v, records)
                    h = digest(text)
            seconds, at_reference = speed.stop(self.speed_share)
            items.append(seconds)
            scaled += at_reference
            if tracer:
                tracer.counts["cli.report_bytes"] += len(text.encode())
            expected = EXPECTED_RECORDS[(v.stem, v.suite, v.samples)]
            if len(records) != expected:
                raise GateError(f"{v.label}: {len(records)} records, expected {expected}")
            digests.append((v.label, h))
            attempted += len(records)
            failed_cases += [f"{v.stem} {v.suite}: {r['case']}" for r in records if not r["pass"]]
        return {"seconds": sum(items), "scaled": scaled, "items": items, "digests": digests,
                "attempted": attempted, "failed": len(failed_cases),
                "failed_cases": failed_cases}

    def cli_digests(self, j: int, scratch: Path) -> dict[str, str]:
        """Label -> digest of each verdict of pass ``j`` that is repeated
        through ``planarbox suite``."""
        from planarbox.cli import main

        out: dict[str, str] = {}
        scratch.mkdir(parents=True, exist_ok=True)
        target = scratch / f"report-{os.getpid()}.json"
        try:
            for v in self.pass_verdicts(j):
                if not v.cli_repeat:
                    continue
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(v.cli_args() + ["--out", str(target)])
                if code not in (0, 1):
                    raise GateError(f"{v.label}: planarbox suite exited {code}")
                out[v.label] = digest(target.read_text())
        finally:
            target.unlink(missing_ok=True)
        return out

    def check(self) -> tuple[int, int]:
        """(checked, failed) of the checks made before the timed loop."""
        return 0, 0


class Composite(SuiteWorkload):
    action_paths = ("actions/z3xz2.json",)

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        inter = self.instances[self.action_paths[0]][2]
        self.dims = {c: inter.dimension(c) for c in range(0, K_MAX + 1)}
        self._rng = random.Random(seed)
        self._suite_seeds: list[int] = []
        self._heavy = self._rng.sample(HEAVY_VERDICTS, len(HEAVY_VERDICTS))

    def _cost(self, slots, *trees) -> int:
        """Input tuples of the slots, weighted by the colour-4 products and
        Jones leaves the trees evaluate for each tuple."""
        from planarbox.expressions import ComposeExpr, GenExpr

        heavy = 0
        stack = list(trees)
        while stack:
            e = stack.pop()
            if isinstance(e, GenExpr):
                heavy += e.kind in ("M", "jones") and e.k == K_MAX
            elif isinstance(e, ComposeExpr):
                stack += [e.outer, e.inner]
            else:
                stack.append(e.inner)
        return math.prod(self.dims[d.colour] for d in slots) * (1 + heavy)

    def _pair_cost(self, outer, slot, inner) -> int:
        from planarbox.expressions import slot_colours

        outer_slots = slot_colours(outer)
        rest = outer_slots[: slot - 1] + outer_slots[slot:]
        return self._cost(tuple(slot_colours(inner)) + rest, outer, inner)

    def tree_costs(self, s: int) -> dict[str, int]:
        """The cost of the costliest tree each suite samples for seed ``s``.

        Follows the draw order of ``theorem_main_report`` and
        ``axiom_report``; a mismatch only changes which seeds are skipped,
        never what a verdict checks.
        """
        from planarbox.expressions import ComposeExpr, arity, slot_colours

        draw = untraced_sampler()
        rng = random.Random(s)
        main = self._pair_cost(*draw(rng, max_colour=K_MAX, depth=3, max_arity=3))
        rng = random.Random(s)
        while True:
            outer, slot, inner = draw(rng, max_colour=K_MAX, depth=2, max_arity=3)
            glued = ComposeExpr(outer, slot, inner)
            if arity(glued) >= 1:
                break
        axioms = self._cost(slot_colours(glued), glued)
        rng = random.Random(s + 1)
        axioms = max(axioms, self._pair_cost(*draw(rng, max_colour=K_MAX, depth=2, max_arity=3)))
        return {"theorem-main": main, "axioms": axioms}

    def suite_seed(self, j: int) -> int:
        while len(self._suite_seeds) <= j:
            s = self._rng.randrange(2**31)
            if max(self.tree_costs(s).values()) <= COST_CAP:
                self._suite_seeds.append(s)
        return self._suite_seeds[j]

    def verdict(self, suite: str, s: int) -> Verdict:
        path = self.action_paths[0]
        inter = self.instances[path][2]
        report = {"theorem-main": inter.theorem_main_report, "axioms": inter.axiom_report}[suite]
        n = COMPOSITE_SAMPLES
        return Verdict(path, suite, n, s, lambda: report(samples=n, seed=s, max_colour=K_MAX))

    def pass_verdicts(self, j: int) -> list[Verdict]:
        heavy = self._heavy[j % len(self._heavy)]
        light = self.suite_seed(j)
        return [self.verdict(*heavy), self.verdict("theorem-main", light),
                self.verdict("axioms", light)]


HEAVY_ACTION = "actions/z4xz2.json"


class Structure(SuiteWorkload):
    action_paths = (HEAVY_ACTION, "actions/z3-trivial.json")
    # measured: 1.34x slower when the speed loop ran 1.87x slower
    speed_share = 0.5

    def pass_verdicts(self, j: int) -> list[Verdict]:
        from planarbox import suites

        out = []
        n, s = SUITE_SAMPLES, self.seed
        for path in self.action_paths:
            _, cp, inter = self.instances[path]
            computes = {
                "base-algebra": lambda cp=cp: suites.base_algebra_report(cp, k_max=K_MAX, samples=n, seed=s),
                "crossed-product": lambda cp=cp: suites.crossed_product_report(cp, k_max=K_MAX, samples=n, seed=s),
                "biprojection": lambda cp=cp: suites.biprojection_suite(cp, k_max=K_MAX, samples=n, seed=s),
                "jones": lambda inter=inter: inter.jones_report(top=K_MAX),
                "trace": lambda inter=inter: inter.trace_report(kmax=K_MAX),
                "dual": lambda inter=inter: inter.dual_report(samples=n, seed=s),
            }
            # repeating z4xz2 base-algebra would add 20 s to every run; the
            # traced runs repeat it in a fresh interpreter instead
            out += [Verdict(path, name, n, s, fn,
                            cli_repeat=(path, name) != (HEAVY_ACTION, "base-algebra"))
                    for name, fn in computes.items()]
        return out


def load_oracle(root: Path):
    """``scripts/loop_count_oracle.py`` loaded by path, not through the package."""
    spec = importlib.util.spec_from_file_location(
        "loop_count_oracle", root / "scripts" / "loop_count_oracle.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Tangles:
    """Expression texts through the ``planarbox alpha`` path."""

    def __init__(self, root: Path, seed: int):
        from planarbox.expressions import ComposeExpr, render_expr

        self.root = root
        draw = untraced_sampler()
        rng = random.Random(seed)
        self.texts = []
        for _ in range(POOL):
            outer, slot, inner = draw(rng, max_colour=5, depth=3)
            self.texts.append(render_expr(ComposeExpr(outer, slot, inner)))
        self.seed = seed
        self.batches = POOL // BATCH
        self.mismatched: set[int] = set()

    def batch(self, j: int) -> range:
        b = j % self.batches
        return range(b * BATCH, (b + 1) * BATCH)

    def label(self, j: int) -> str:
        return f"tangles seed {self.seed} batch {j % self.batches}"

    @staticmethod
    def alpha_text(text: str) -> tuple[str, str]:
        """(what ``planarbox alpha`` prints, white-capping companion lines)."""
        from planarbox.cli import format_scalar
        from planarbox.expressions import parse_expr, realize
        from planarbox.tangles import (alpha, alpha_tilde, capping_exponent, loops_black,
                                       loops_white, validate)

        t = realize(parse_expr(text))
        diagnostics = validate(t)
        if not diagnostics.ok:
            raise GateError(f"generated expression is invalid: {text}: {diagnostics!r}")
        internal = " ".join(d.label() for d in t.internal)
        shown = (
            f"alpha = {format_scalar(alpha(t, ALPHA_RATIO))}\n"
            f"c = {capping_exponent(t)}\n"
            f"loops = {loops_black(t)}\n"
            f"external = {t.external.label()}\n"
            f"internal = {internal if internal else 'none'}\n"
        )
        white = (
            f"alpha_tilde = {format_scalar(alpha_tilde(t, ALPHA_RATIO))}\n"
            f"loops_white = {loops_white(t)}\n"
        )
        return shown, white

    def run_pass(self, j: int, clock, speed, tracer=None) -> dict:
        """Run batch ``j``; the whole pass is one segment of ``speed``."""
        items, parts = [], []
        speed.start()
        for i in self.batch(j):
            if tracer:
                tracer.request = j * BATCH + (i % BATCH)
            t0, sampling = clock(), speed.sampling
            shown, white = self.alpha_text(self.texts[i])
            items.append(clock() - t0 - (speed.sampling - sampling))
            parts.append(shown + white)
        seconds, scaled = speed.stop()
        text = "".join(parts)
        if tracer:
            tracer.counts["cli.report_bytes"] += len(text.encode())
        failed_cases = [f"loop counts differ from the oracle: {self.texts[i]}"
                        for i in self.batch(j) if i in self.mismatched]
        return {"seconds": seconds, "scaled": scaled, "items": items,
                "digests": [(self.label(j), digest(text))],
                "attempted": len(items), "failed_cases": failed_cases,
                "failed": len(failed_cases)}

    def cli_digests(self, j: int, scratch: Path) -> dict[str, str]:
        from planarbox.cli import main

        parts = []
        for i in self.batch(j):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["alpha", self.texts[i], "--ratio", str(ALPHA_RATIO)])
            if code != 0:
                raise GateError(f"planarbox alpha exited {code} on {self.texts[i]}")
            parts.append(buf.getvalue() + self.alpha_text(self.texts[i])[1])
        return {self.label(j): digest("".join(parts))}

    def check(self) -> tuple[int, int]:
        """Round trip and validity for every pool text; loop counts against
        the standalone oracle on every tree it can express.

        Returns (trees compared with the oracle, mismatches).  A failed
        round trip is a gate error; an oracle mismatch is a failed
        expression.
        """
        from planarbox.expressions import parse_expr, realize, render_expr
        from planarbox.tangles import loops_black, loops_white

        oracle = load_oracle(self.root)
        compared = 0
        for i, text in enumerate(self.texts):
            expr = parse_expr(text)
            if render_expr(expr) != text:
                raise GateError(f"render_expr(parse_expr(t)) != t for {text}")
            diagram = oracle_diagram(oracle, expr)
            if diagram is None:
                continue
            compared += 1
            glued, loops = diagram
            t = realize(expr)
            black = oracle.count_cycles(glued, True) + loops
            white = oracle.count_cycles(glued, False) + loops
            if (black, white) != (loops_black(t), loops_white(t)):
                self.mismatched.add(i)
        return compared, len(self.mismatched)


def oracle_diagram(oracle, expr):
    """(diagram, spliced loops) in the oracle's encoding, or None when the
    tree uses something the oracle has no encoding for (a renumbering, a
    unit, or a shaded disc)."""
    from planarbox.expressions import ComposeExpr, GenExpr

    if isinstance(expr, GenExpr):
        if expr.shaded or expr.kind == "unit":
            return None
        k = expr.k
        build = {
            "id": oracle.gen_identity,
            "M": oracle.gen_mult,
            "I": oracle.gen_incl,
            "E": oracle.gen_exp_right,
            "Eprime": oracle.gen_exp_left,
            "jones": oracle.gen_cupcap,
        }[expr.kind]
        return build(k), 0
    if isinstance(expr, ComposeExpr):
        outer = oracle_diagram(oracle, expr.outer)
        inner = oracle_diagram(oracle, expr.inner)
        if outer is None or inner is None:
            return None
        glued, loops = oracle.splice(outer[0], expr.slot, inner[0])
        return glued, outer[1] + inner[1] + loops
    return None


def make(name: str, root: Path, seed: int):
    return {"composite": Composite, "structure": Structure, "tangles": Tangles}[name](root, seed)
