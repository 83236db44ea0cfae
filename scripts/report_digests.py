#!/usr/bin/env python3
"""Print the record count and sha256 of each suite report for some actions.

For every action file given, this runs ``planarbox suite <name> --action
<path>`` once per suite at the CLI defaults and once more as
``suite all --kmax 3``, each in a child ``python -m planarbox.cli`` that
imports the ``src`` tree next to this script.  It prints one line per run:

    <action path> <suite> <records> <sha256 of the report bytes>

A report records the action path as given, so two checkouts compare
equal only when each is run from its own root with the same relative
paths, e.g. ``python3 scripts/report_digests.py actions/z3xz2.json``.  A
run the CLI refuses (exit 2, say a cost bound) prints ``refused`` and its
exit code in place of the count and digest.  ``--suite`` keeps only the
named runs (``all-k3`` names the ``all --kmax 3`` run); some suites at
the defaults take minutes on the larger actions.

Run:  python3 scripts/report_digests.py actions/*.json
      python3 scripts/report_digests.py actions/z7xz3.json --suite jones --suite dual
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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


def report_line(action: str, run: str) -> str:
    name = "all" if run == "all-k3" else run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "planarbox.cli", "suite", name, "--action", action, *RUNS[run]],
        capture_output=True, env=env,
    )
    if proc.returncode not in (0, 1):
        return f"{action} {run} refused exit {proc.returncode}"
    records = len(json.loads(proc.stdout)["records"])
    return f"{action} {run} {records} {hashlib.sha256(proc.stdout).hexdigest()}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("actions", nargs="+", help="action JSON files")
    parser.add_argument("--suite", action="append", choices=list(RUNS),
                        help="keep only this run (repeatable; default: every run)")
    args = parser.parse_args()
    for action in args.actions:
        for run in args.suite or RUNS:
            print(report_line(action, run), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
