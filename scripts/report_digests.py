#!/usr/bin/env python3
"""Print the record count and sha256 of each suite report for some actions,
a digest of the element values each suite run compares, and digests of
the ``alpha`` command over seeded pools of texts.

For every action file given, this runs ``planarbox suite <name> --action
<path>`` once per suite at the CLI defaults and once more as
``suite all --kmax 3``, each in a child that imports the ``src`` tree next
to this script and calls ``planarbox.cli.main`` in process, with its
standard output captured and ``PAElement.__eq__`` wrapped (`suite_lines`).
It prints two lines per run:

    <action path> <suite> <records> <sha256 of the report bytes>
    <action path> <suite> values <comparisons> <sha256 of the comparisons>

The first reads the captured report.  The second comes from the wrapped
comparison (`value_digest`), which also serves ``!=``.  It sees every
comparison of two elements the run makes,
the report's own checks and the library's (a cut-down algebra's
membership test, say), and feeds one sha256, in order, with both sides,
each as its colour, shading and sorted ``(label, integer coordinates,
denominator)`` terms, and the result.  A report keeps only the verdict of
most such checks, so this line moves when the values do, even where
every verdict holds.

Then it runs ``planarbox alpha <text> --ratio <2 or 3, alternating>`` the
same way on each of ``ALPHA_TEXTS`` glued trees drawn from seed
``ALPHA_SEED`` (colours up to 5, depth 3), and prints

    alpha <texts> <sha256 of every exit code and output, in order>

and, in one child that calls ``planarbox.cli.main`` in process, the same
over ``ALPHA_POOL_TEXTS`` trees from seed ``ALPHA_POOL_SEED``, each
followed by its broken copies (`malformed`), every standard error too:

    alpha-pool <texts> <sha256 of every exit code, output and error, in order>

A report records the action path as given, so two checkouts compare
equal only when each is run from its own root with the same relative
paths, e.g. ``python3 scripts/report_digests.py actions/z3xz2.json``.  A
run the CLI refuses (exit 2, say a cost bound) prints ``refused`` and its
exit code in place of the count and digest, on both lines.  A run whose
child crashes prints ``failed`` and the child's exit code instead, and
then the script exits 1; refused runs alone leave it at 0.  The alpha
line fails the same way when the child drawing its texts crashes or draws
none, or when an alpha child exits with a code other than the CLI's 0, 2
and 3.  ``--suite``
keeps only the named runs (``all-k3`` names the ``all --kmax 3`` run, ``alpha`` and
``alpha-pool`` the alpha lines); some suites at the defaults take minutes on the larger
actions.

Run:  python3 scripts/report_digests.py actions/*.json
      python3 scripts/report_digests.py actions/z7xz3.json --suite jones --suite dual
      python3 scripts/report_digests.py --suite alpha --suite alpha-pool
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
# the suites at the CLI defaults, then "all" at k_max 3
RUNS = {
    "base-algebra": [],
    "crossed-product": [],
    "biprojection": [],
    "theorem-main": [],
    "axioms": [],
    "jones": [],
    "trace": [],
    "dual": [],
    "all-k3": ["--kmax", "3"],
}


ALPHA_SEED = 0
ALPHA_TEXTS = 32
# prints the alpha pool, one text a line, with the checkout's own sampler
ALPHA_POOL = f"""
import random
from planarbox.expressions import ComposeExpr, random_composable_pair, render_expr
rng = random.Random({ALPHA_SEED})
for _ in range({ALPHA_TEXTS}):
    outer, slot, inner = random_composable_pair(rng, max_colour=5, depth=3)
    print(render_expr(ComposeExpr(outer, slot, inner)))
"""


ALPHA_POOL_SEED = 30
ALPHA_POOL_TEXTS = 2000
# runs alpha_pool in a child that imports the checkout's src
ALPHA_POOL_CHILD = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from report_digests import alpha_pool
print(alpha_pool())
"""


# prints the report and values lines of one suite run, in a child that
# imports the checkout's src; argv: action path, run name
SUITE_CHILD = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from report_digests import suite_lines
print(suite_lines(*sys.argv[1:]))
"""


def value_digest(run: Callable[[], object]) -> tuple[int, str]:
    """Call ``run()`` with ``PAElement.__eq__`` wrapped; return the number
    of comparisons of two elements it made and the sha256 of both sides and
    the result of each, in order."""
    from planarbox.group_algebra import PAElement

    compare = PAElement.__eq__
    digest = hashlib.sha256()
    count = 0

    def side(x: PAElement) -> tuple:
        terms = sorted((lab, sorted(c._num.items()), c._den) for lab, c in x.coeffs.items())
        return x.colour, x.shaded, terms

    def wrapped(self: PAElement, other: object) -> bool:
        nonlocal count
        result = compare(self, other)
        if isinstance(other, PAElement):
            count += 1
            digest.update(repr((side(self), side(other), result)).encode() + b"\n")
        return result

    PAElement.__eq__ = wrapped
    try:
        run()
    finally:
        PAElement.__eq__ = compare
    return count, digest.hexdigest()


def suite_lines(action: str, run: str) -> str:
    """The report and values lines of one suite run, run in the process
    that imports planarbox."""
    import contextlib
    import io

    from planarbox.cli import main

    name = "all" if run == "all-k3" else run
    out, codes = io.StringIO(), []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        count, digest = value_digest(
            lambda: codes.append(main(["suite", name, "--action", action, *RUNS[run]]))
        )
    if codes[0] not in (0, 1):
        return f"{action} {run} refused exit {codes[0]}\n{action} {run} values refused exit {codes[0]}"
    report = out.getvalue().encode()
    records = len(json.loads(report)["records"])
    return (f"{action} {run} {records} {hashlib.sha256(report).hexdigest()}\n"
            f"{action} {run} values {count} {digest}")


def malformed(text: str, rng: random.Random) -> list[str]:
    """Four broken copies of an expression text: cut short, one parenthesis
    dropped, one parenthesis added between tokens, and two tokens swapped."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    cut = text[:rng.randrange(1, len(text))]
    p = rng.choice([p for p, ch in enumerate(text) if ch in "()"])
    added = tokens[:]
    added.insert(rng.randrange(len(tokens) + 1), rng.choice("()"))
    swapped = tokens[:]
    i, j = rng.sample(range(len(tokens)), 2)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return [cut, text[:p] + text[p + 1:], " ".join(added), " ".join(swapped)]


def alpha_pool() -> str:
    """The alpha-pool line, run in the process that imports planarbox."""
    import contextlib
    import io

    from planarbox.cli import main
    from planarbox.expressions import ComposeExpr, random_composable_pair, render_expr

    rng = random.Random(ALPHA_POOL_SEED)
    texts = []
    for _ in range(ALPHA_POOL_TEXTS):
        outer, slot, inner = random_composable_pair(rng, max_colour=5, depth=3)
        text = render_expr(ComposeExpr(outer, slot, inner))
        texts += [text, *malformed(text, rng)]
    digest = hashlib.sha256()
    for i, text in enumerate(texts):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["alpha", text, "--ratio", str(2 + i % 2)])
            except SystemExit as exc:  # argparse refusing the arguments
                code = exc.code
        digest.update(repr((code, out.getvalue(), err.getvalue())).encode() + b"\n")
    return f"alpha-pool {len(texts)} {digest.hexdigest()}"


def child(*args: str) -> subprocess.CompletedProcess:
    """``python <args>`` importing the ``src`` tree next to this script."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


def alpha_line() -> tuple[str, bool]:
    """The alpha line and whether it ran: ``alpha failed exit <code>``
    instead when the child that draws the texts exits nonzero or prints
    none, or when an alpha child exits with a code the CLI never returns
    (it returns only 0, 2 and 3)."""
    drawn = child("-c", ALPHA_POOL)
    texts = drawn.stdout.decode().splitlines()
    if drawn.returncode != 0 or not texts:
        return f"alpha failed exit {drawn.returncode}", False
    digest = hashlib.sha256()
    for i, text in enumerate(texts):
        proc = child("-m", "planarbox.cli", "alpha", text, "--ratio", str(2 + i % 2))
        if proc.returncode not in (0, 2, 3):
            return f"alpha failed exit {proc.returncode}", False
        digest.update(f"{proc.returncode}\n".encode() + proc.stdout)
    return f"alpha {len(texts)} {digest.hexdigest()}", True


def shown(proc: subprocess.CompletedProcess, name: str) -> bool:
    """Print what a child printed, or ``<name> failed exit <code>`` when it
    printed nothing or exited nonzero; return whether it ran."""
    out = proc.stdout.decode().strip()
    ran = proc.returncode == 0 and bool(out)
    print(out if ran else f"{name} failed exit {proc.returncode}", flush=True)
    return ran


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("actions", nargs="*", help="action JSON files (the alpha lines read none)")
    parser.add_argument("--suite", action="append", choices=[*RUNS, "alpha", "alpha-pool"],
                        help="keep only this run (repeatable; default: every run)")
    args = parser.parse_args()
    runs = args.suite or [*RUNS, "alpha", "alpha-pool"]
    ran = True
    for action in args.actions:
        for run in runs:
            if run in RUNS:
                ran &= shown(child("-c", SUITE_CHILD, action, run), f"{action} {run}")
    if "alpha" in runs:
        line, ok = alpha_line()
        print(line, flush=True)
        ran &= ok
    if "alpha-pool" in runs:
        ran &= shown(child("-c", ALPHA_POOL_CHILD), "alpha-pool")
    return 0 if ran else 1


if __name__ == "__main__":
    raise SystemExit(main())
