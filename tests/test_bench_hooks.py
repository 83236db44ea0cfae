"""The benchmark calls the library by name and keyword: every name its
tracer wraps must still resolve, or ``perfbench/run.py --trace 1`` would
raise, every call ``perfbench/workloads.py`` makes must still bind, and its
set-up must still build and run a verdict, or the benchmark would fail
where tier-1 passed."""

import importlib
import importlib.util
import inspect
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
