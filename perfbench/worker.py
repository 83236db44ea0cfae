"""One fresh interpreter of the planarbox benchmark.

Run from the root of a planarbox checkout:

    python3 perfbench/worker.py <workload> --seed N --passes P [--seconds S]
                                [--trace] [--cli]

It sets the workload up (timed from the start of ``main``), then
runs ``--passes`` passes in a closed loop; ``--seconds`` is a cap on their
scaled time, and the loop stops before a pass that would end outside it.  Set-up and every
timed segment are also given scaled to the reference speed (``speed.py``).
Every verdict's report digest is kept under its label, and a label that
repeats must repeat its bytes.  With ``--cli`` it instead recomputes pass
0 through the ``planarbox`` command line and reports those digests.  The
last line of standard output is one JSON object; a correctness-gate
violation exits with code 1.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from speed import Speed

ROOT = Path.cwd()
OUT = ROOT / "perfbench" / "out"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cli", action="store_true")
    args = parser.parse_args()

    speed = Speed(ticks=not args.trace)
    speed.start()  # set-up is the first segment
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import planarbox.cli  # noqa: F401  (loads every planarbox module)
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    try:
        wl = workloads.make(args.workload, ROOT, args.seed)
        setup_s, setup_scaled = speed.stop()
        result = {"setup_s": setup_s, "setup_scaled": setup_scaled,
                  "numpy": numpy.__version__}
        if args.cli:
            result["digests"] = wl.cli_digests(0, OUT)
            print(json.dumps(result))
            return 0
        # the untraced run with passes makes the checks, so spans cover
        # passes only and set-up samples stay short
        check_attempted, check_failed = (0, 0) if tracer or not args.passes else wl.check()
        passes = []
        while len(passes) < args.passes:
            # the window is in scaled seconds, so a slow machine alone does
            # not cut the fixed passes short
            if (args.seconds is not None and passes
                    and sum(p["scaled"] for p in passes) + passes[-1]["scaled"] > args.seconds):
                break  # the next pass would end outside the window
            if tracer:
                tracer.request = len(passes)
            passes.append(wl.run_pass(len(passes), clock, speed, tracer))
        digests: dict[str, str] = {}
        for p in passes:
            for label, h in p["digests"]:
                if digests.setdefault(label, h) != h:
                    raise workloads.GateError(f"{label}: report bytes differ between repeats")
    except workloads.GateError as exc:
        print(f"correctness gate: {exc}", file=sys.stderr)
        return 1
    finally:
        speed.close()
    failed_cases = sorted({c for p in passes for c in p["failed_cases"]})
    result.update(
        passes=[p["seconds"] for p in passes],
        scaled=[p["scaled"] for p in passes],
        speed_samples=speed.samples,
        items=[t for p in passes for t in p["items"]],
        digests=digests,
        attempted=sum(p["attempted"] for p in passes),
        failed=sum(p["failed"] for p in passes),
        failed_cases=failed_cases,
        oracle_compared=check_attempted,
        oracle_mismatches=check_failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer:
        result["layers"] = tracer.layer_metrics()
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.bin")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
