"""planarbox benchmark: one command for every workload and metric.

Run from the root of a planarbox checkout:

    python3 perfbench/run.py --workload {composite,structure,tangles}
                             --seed N --seconds S --trace {0,1}

All load comes from one single-threaded client in a closed loop; each
measurement runs in a fresh interpreter (``perfbench/worker.py``), so
set-up time and peak memory belong to one workload alone.

Each run makes the workload's fixed number of passes (``PASSES``);
``--seconds`` only caps their scaled time.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of nine
fresh set-ups, before and after the timed run), ``verdict_s`` (median time
of one pass of verdict requests), ``peak_rss_mb`` and ``pass_share``
(records or expressions that passed, over those attempted).  Both times
are wall times scaled to the reference machine speed (``speed.py``); a
``# raw`` line gives them unscaled.  A second interpreter recomputes pass 0
through the ``planarbox`` command line (all but z4xz2 ``base-algebra``,
which the traced runs repeat); its report bytes must match.

``--trace 1`` runs the passes twice, untraced and then with every public
layer entry point wrapped (``perfbench/tracer.py``), and prints the
per-layer metrics with the tracing overhead.  Both runs must give the same
report bytes.

Before the result, one ``# digest <label> <sha256>`` line per verdict gives
the sha256 of its report in the CLI's canonical bytes, so that two commits
can be shown to produce byte-identical reports.  The last line of standard
output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A correctness-gate
violation (a changed record count, report bytes that differ between
repeats, an invalid generated expression) prints ``"correct": false`` and
exits with code 1.  Times are wall-clock times; no hardware counters are
read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import PASSES, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
DEADLINE_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run: a worker crashed or ran out of time."""


class GateFailure(RuntimeError):
    """A correctness-gate violation."""


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload,
               "--seed", str(self.seed), *extra]
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {' '.join(extra)} exceeded the time budget")
        sys.stderr.write(proc.stderr)
        if proc.returncode == 1 and "correctness gate" in proc.stderr:
            raise GateFailure(proc.stderr.strip().splitlines()[-1])
        if proc.returncode != 0:
            raise BenchError(f"worker {' '.join(extra)} exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setups(runner: Runner, count: int) -> list[dict]:
    return [runner.worker("--passes", "0") for _ in range(count)]


def untraced(runner: Runner, seconds: int) -> tuple[dict, dict]:
    # set-ups before and after the timed run, so that their median spans it
    before = setups(runner, SETUP_SAMPLES // 2)
    main = runner.worker("--passes", str(PASSES[runner.workload]), "--seconds", str(seconds))
    cli = runner.worker("--passes", "0", "--cli")
    after = setups(runner, SETUP_SAMPLES - 1 - len(before))
    differing = [label for label, h in cli["digests"].items() if main["digests"].get(label) != h]
    if not cli["digests"] or differing:
        raise GateFailure("report bytes differ between the timed run and the planarbox "
                          f"command line: {', '.join(differing) or 'nothing compared'}")
    attempted, failed = main["attempted"], main["failed"]
    runs = before + [main] + after
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "verdict_s": statistics.median(main["passes"]),
        "speed_loop_s": statistics.median(main["speed_samples"]),
    }
    print("# raw " + json.dumps(raw, sort_keys=True))
    metrics = {
        "setup_s": (statistics.median(r["setup_scaled"] for r in runs), "s"),
        "verdict_s": (statistics.median(main["scaled"]), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "pass_share": ((attempted - failed) / attempted, "share"),
    }
    return main, metrics


def traced(runner: Runner) -> tuple[dict, dict]:
    passes = str(PASSES[runner.workload])
    plain = runner.worker("--passes", passes)
    traced_run = runner.worker("--passes", passes, "--trace")
    if plain["digests"] != traced_run["digests"]:
        raise GateFailure("report bytes differ between the untraced and traced repeats")
    values = dict(traced_run["layers"])
    items = plain["items"]
    values["stream.items"] = len(items)
    values["stream.item_p50_us"] = quantile(items, 50) * 1e6
    values["stream.item_p99_us"] = quantile(items, 99) * 1e6
    values["trace.overhead_share"] = sum(traced_run["scaled"]) / sum(plain["scaled"]) - 1
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    return plain, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "planarbox" / "__init__.py").is_file():
        print("perfbench: run from the root of a planarbox checkout "
              "(src/planarbox not found)", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            main_run, metrics = traced(runner)
        else:
            main_run, metrics = untraced(runner, args.seconds)
    except GateFailure as exc:
        print(f"correctness gate violated: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": main_run["numpy"],
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "oracle_compared": main_run["oracle_compared"],
        "oracle_mismatches": main_run["oracle_mismatches"],
        "passes": len(main_run["passes"]),
        "passes_planned": PASSES[args.workload],
        "note": "wall-clock times on a shared machine, scaled by speed.py; no hardware counters",
    }
    print("# env " + json.dumps(env, sort_keys=True))
    for label, h in sorted(main_run["digests"].items()):
        print(f"# digest {label} {h}")
    for case in main_run["failed_cases"]:
        print(f"# failed record: {case}")
    print(json.dumps({
        "correct": True,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
