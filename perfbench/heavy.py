"""List the heavy composite verdicts (``HEAVY_VERDICTS`` in workloads.py).

Run from the root of a planarbox checkout:

    python3 perfbench/heavy.py [first_seed] [end_seed]

For each suite seed in the range and each of ``theorem-main`` and
``axioms``, the one-sample z3xz2 verdict at ``k_max`` 4 is a candidate
when its costliest sampled tree costs more than ``COST_CAP`` and at most
``CANDIDATE_CAP``.  Each candidate is run once with
``GroupPlanarAlgebra.multiply`` counting term pairs (|x|*|y| per call);
it is printed when the pairs lie in ``PAIRS`` and at least ``C4_SHARE`` of
them are at colour 4.  Term pairs are a count, so the list does not depend
on the machine.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

CANDIDATE_CAP = 2000
PAIRS = (85_000, 105_000)
C4_SHARE = 0.9


def main() -> int:
    first, end = (int(a) for a in (sys.argv[1:3] if len(sys.argv) > 2 else (0, 1000)))
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads
    from planarbox.group_algebra import GroupPlanarAlgebra

    wl = workloads.Composite(root, 0)
    counts = {"pairs": 0, "c4": 0}
    multiply = GroupPlanarAlgebra.multiply

    def counting(self, x, y):
        n = len(x.coeffs) * len(y.coeffs)
        counts["pairs"] += n
        counts["c4"] += n if x.colour == workloads.K_MAX else 0
        return multiply(self, x, y)

    GroupPlanarAlgebra.multiply = counting
    for s in range(first, end):
        for suite, cost in wl.tree_costs(s).items():
            if not workloads.COST_CAP < cost <= CANDIDATE_CAP:
                continue
            counts.update(pairs=0, c4=0)
            wl.verdict(suite, s).compute()
            pairs, c4 = counts["pairs"], counts["c4"]
            if PAIRS[0] <= pairs <= PAIRS[1] and c4 >= C4_SHARE * pairs:
                print(f'    ("{suite}", {s}),  # {pairs} term pairs, {c4} at colour 4',
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
