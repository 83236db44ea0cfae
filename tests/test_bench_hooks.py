"""The benchmark calls the library by name and keyword: every name its
tracer wraps must still resolve, or ``perfbench/run.py --trace 1`` would
raise, every call ``perfbench/workloads.py`` makes must still bind, and its
set-up must still build and run a verdict, or the benchmark would fail
where tier-1 passed."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from planarbox import cli, suites, tangles
from planarbox.crossed import CrossedProduct
from planarbox.expressions import (
    ComposeExpr,
    GenExpr,
    parse_expr,
    random_composable_pair,
    realize,
    render_expr,
)
from planarbox.groups import load_action
from planarbox.intermediate import IntermediateAlgebra, crossed_instance

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    """``perfbench/<name>.py`` loaded by path, not through a package."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    patches = _load("tracer").PATCHES
    assert patches
    for module_name, cls_name, attr, _, _ in patches:
        module = importlib.import_module(f"planarbox.{module_name}")
        if cls_name is None:
            assert callable(getattr(module, attr, None)), f"planarbox.{module_name}.{attr}"
        else:
            # the tracer reads the class's own namespace, not an inherited one
            cls = getattr(module, cls_name, None)
            assert cls is not None and attr in cls.__dict__, f"{cls_name}.{attr}"


def test_tracer_installs_after_importing_the_cli():
    """The benchmark's worker imports ``planarbox.cli`` alone before
    ``Tracer.install``, which reads ``sys.modules`` for every patched
    module; the check above imports each module itself, so it would miss a
    module that the CLI no longer imports at load time.  Run in a child
    process, since installing patches the library for good."""
    path = str(ROOT / "perfbench" / "tracer.py")
    script = (
        "import importlib.util\n"
        "import planarbox.cli\n"
        f"spec = importlib.util.spec_from_file_location('perfbench_tracer', {path!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "tracer.Tracer().install()\n"
    )
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


# (callable, positional arguments, keywords) as perfbench/workloads.py calls
# them; None stands for any value, and for ``self`` on the methods
SUITE_KEYWORDS = {"k_max": 4, "samples": 1, "seed": 0}
WORKLOAD_CALLS = [
    (load_action, (None,), {}),
    (CrossedProduct, (None,), {}),
    (crossed_instance, (None,), {}),
    (IntermediateAlgebra, (None,), {"k_max": 4}),
    (IntermediateAlgebra.dimension, (None, 4), {}),
    (IntermediateAlgebra.theorem_main_report, (None,), {"samples": 1, "seed": 0, "max_colour": 4}),
    (IntermediateAlgebra.axiom_report, (None,), {"samples": 1, "seed": 0, "max_colour": 4}),
    (IntermediateAlgebra.jones_report, (None,), {"top": 4}),
    (IntermediateAlgebra.trace_report, (None,), {"kmax": 4}),
    (IntermediateAlgebra.dual_report, (None,), {"samples": 1, "seed": 0}),
    (suites.base_algebra_report, (None,), SUITE_KEYWORDS),
    (suites.crossed_product_report, (None,), SUITE_KEYWORDS),
    (suites.biprojection_suite, (None,), SUITE_KEYWORDS),
    (suites.summarize, (None,), {}),
    (random_composable_pair, (None,), {"max_colour": 4, "depth": 3, "max_arity": 3}),
    (random_composable_pair, (None,), {"max_colour": 5, "depth": 3}),
    (ComposeExpr, (None, 1, None), {}),
    (GenExpr, ("M", 2), {}),
    (parse_expr, (None,), {}),
    (realize, (None,), {}),
    (render_expr, (None,), {}),
    (tangles.validate, (None,), {}),
    (tangles.alpha, (None, 2), {}),
    (tangles.alpha_tilde, (None, 2), {}),
    (tangles.capping_exponent, (None,), {}),
    (tangles.loops_black, (None,), {}),
    (tangles.loops_white, (None,), {}),
    (cli.format_scalar, (None,), {}),
    (cli.main, (["suite"],), {}),
]


@pytest.mark.parametrize(
    "fn, args, kwargs", WORKLOAD_CALLS, ids=lambda v: getattr(v, "__qualname__", None)
)
def test_every_workload_call_binds(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_workload_setup_runs_a_verdict():
    """Binding alone would pass a ``crossed_instance`` whose result
    ``IntermediateAlgebra`` cannot take; building the two report workloads
    and running one light verdict of each shows the set-up still works."""
    workloads = _load("workloads")
    composite = workloads.Composite(ROOT, 0)
    structure = workloads.Structure(ROOT, 0)
    light = composite.verdict("theorem-main", composite.suite_seed(0))
    (biprojection,) = [
        v for v in structure.pass_verdicts(0)
        if (v.stem, v.suite) == ("z3-trivial", "biprojection")
    ]
    for verdict in (light, biprojection):
        records = verdict.compute()
        expected = workloads.EXPECTED_RECORDS[(verdict.stem, verdict.suite, verdict.samples)]
        assert len(records) == expected, verdict.label
        assert all(r["pass"] for r in records), verdict.label


# (suite, suite seed) of every HEAVY_VERDICTS entry -> (record count, sha256
# of the canonical report) of its one-sample z3xz2 report at k_max 4, taken
# before the evaluation fast paths (checks once per tree, left-factor memo,
# unit scalings, repeated surrounds) went in
HEAVY_REPORTS = {
    ("axioms", 87): (6, "fc49c13f4b7be9925b82c89f074c7303f043d7f3c85eb91344b9ecb3929f593c"),
    ("axioms", 88): (6, "482e790b9e5c3d096293fb7d8954a463ddad24cd771ad4277c666fc6ebabfe23"),
    ("axioms", 144): (6, "e1174a3f2dcc06d57f0f638f46955db689aac4e3ab94d5e9b34a01156eba8a35"),
    ("axioms", 463): (6, "dc73f024c79ea02d5d3a617253c68480195b5d51420e68420f9a5edbab746ae5"),
    ("axioms", 491): (6, "d425735650318144f3348bdcb85feb580db680c197d68a5dae43b016d09f9c12"),
    ("axioms", 492): (6, "bfb4f21a11e5ae6cebf2965293eb7079167062fb31958c006f15db274a9144c1"),
    ("axioms", 529): (6, "563b7d451e90b99f42ab387a433c36688d8501967f411a84bf48ec452acb8dbd"),
    ("axioms", 530): (6, "92847c3de9480344abe62f8b9b14a33f12e0ad32f763241c4292dc3bc9853d1c"),
    ("axioms", 618): (6, "7784f636d73663e3192c320055e12c00f46dc7663be42c130fd65cc5ab424693"),
    ("axioms", 619): (6, "ef1ee036c805d06b4c1b63c3213e90bc9e61788895f21954be9e182f3a1510b1"),
    ("axioms", 624): (6, "dcf4b6b343a5807767544cbaff024ef1441cff65d7c381f08fe97bdbea4ec463"),
    ("axioms", 625): (6, "3030de35c7ddcaad338042347b65d82fa85cfa3375766ce14041c7aa3b4eabe1"),
    ("axioms", 652): (6, "aefd3d2ec05e95d483243aa3e480200fd098f88ffc7051203b27a262dbc99027"),
    ("axioms", 653): (6, "624969d733dc4c268b302d604f131969a7df8b0d2e4ac61f1f6fa749266c92d4"),
    ("axioms", 655): (6, "4238186c73c9da6a1e6981891fe73bf80e5152db4a64e711b9c6ae3191bcc125"),
    ("axioms", 656): (6, "7c9a4521b1a1dd6c615d28007b78ade01e8dfaf1411cd4329ba67c6857a52415"),
    ("theorem-main", 666): (9, "884cd1e1d8beefed805154c0824531c4c42fa0b4690c55af88cd647bc454b264"),
    ("axioms", 739): (6, "c6a07513b03ebbe1bcd66912774021f00ab959180f30b87fc58b17d4bf87a783"),
    ("axioms", 740): (6, "a02389d51cc384b4b7695877a85aefc94a13cf2bc14fc8877f6cd8f8680ad1e0"),
    ("axioms", 794): (6, "f50b1af42d8953b76d3aa87ff371e009c6c29e177347ff5633aa509ff08ff576"),
    ("axioms", 795): (6, "c9d72000a25860ba2791d98547c27739d6e8ba1ac2cee2f09b8c30720cd60a2d"),
    ("axioms", 799): (6, "91c9ab1892a6afc5a61bda2879632eeb81b640695f37ce9ac8ce83dbc12f8e83"),
    ("axioms", 800): (6, "25a526ac52f688b0377d444dbc293799e6d566573355140d64e5a098e595eb07"),
    ("axioms", 838): (6, "773004a40acba261f7949d60d92796b236db5b8ae14d0c3198bed034cbc2c7cb"),
    ("axioms", 839): (6, "75976fa6a96c1d148ae3d60d19903739c3d32c142106f123dc4df89decf0e309"),
    ("axioms", 861): (6, "d34538de68d92641a2bae65d0b2218fe97595db2e2f6c334153e6a936b1f269d"),
    ("axioms", 862): (6, "99c300b95307a9a0c0e5086d0c49ea5a0e28ab2cddea4c5db11b190b8ef55c8e"),
    ("axioms", 931): (6, "cc5f66edd63f7da5899dec0c9eb21ff0f16e3a32c86159ebb471bddcef4132ac"),
    ("axioms", 944): (6, "33c7d80541846575a6200f84df485787ac0ac79d81ab443dd3b96fe72e11261f"),
}


def heavy_reports(workloads, verdicts) -> dict:
    """(record count, report sha256) of each heavy verdict, run in the
    order given on one fresh composite workload."""
    composite = workloads.Composite(ROOT, 0)
    found = {}
    for suite, seed in verdicts:
        verdict = composite.verdict(suite, seed)
        records = verdict.compute()
        found[(suite, seed)] = (len(records), workloads.digest(composite.report_text(verdict, records)))
    return found


def test_heavy_verdicts_keep_their_reports():
    """The composite workload's heavy verdicts are where its time goes;
    each must keep its record count and its report bytes."""
    workloads = _load("workloads")
    assert set(HEAVY_REPORTS) == set(workloads.HEAVY_VERDICTS)
    assert heavy_reports(workloads, workloads.HEAVY_VERDICTS) == HEAVY_REPORTS


def test_heavy_verdicts_in_reverse_keep_their_reports():
    """The cut-down algebra keeps its generator values on basis tuples
    across verdicts; run in the other order on a fresh workload, each
    verdict meets a differently filled table and must give the same bytes."""
    workloads = _load("workloads")
    assert heavy_reports(workloads, reversed(workloads.HEAVY_VERDICTS)) == HEAVY_REPORTS
