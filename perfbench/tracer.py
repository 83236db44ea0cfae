"""In-memory span tracer that wraps planarbox's public functions from outside.

The program is not edited: :meth:`Tracer.install` replaces the public
functions and methods listed in ``PATCHES`` with timing wrappers, in every
loaded ``planarbox`` module that holds a reference to them (so names
imported with ``from .x import f`` are covered too).  Each call records a
span (name, start, end, parent span, request id) in flat arrays; the spans
are written out once at the end of the run and every per-layer metric is
derived from them, with a layer's self time being its span durations minus
the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

perf_counter = time.perf_counter

# (module, class or None, attribute, span name, option)
# option "colour": the span name gets a ".c<colour>" suffix from the first
# argument's colour; "multiply": colour suffix plus term-pair counters;
# "tuples": no span, count the yielded tuples instead.
PATCHES = (
    ("scalars", "RadicalScalar", "__mul__", "scalars.mul", None),
    ("scalars", "RadicalScalar", "__add__", "scalars.add", None),
    ("scalars", "RadicalScalar", "invert", "scalars.invert", None),
    ("group_algebra", "GroupPlanarAlgebra", "multiply", "group_algebra.multiply", "multiply"),
    ("group_algebra", "GroupPlanarAlgebra", "evaluate", "group_algebra.evaluate", None),
    ("group_algebra", "GroupPlanarAlgebra", "act_generator", "group_algebra.act_generator", None),
    ("group_algebra", "GroupPlanarAlgebra", "star", "group_algebra.star", None),
    ("group_algebra", "GroupPlanarAlgebra", "trace", "group_algebra.trace", None),
    ("group_algebra", None, "row_reduce", "group_algebra.row_reduce", None),
    ("crossed", "CrossedProduct", "surround", "crossed.surround", "colour"),
    ("crossed", "CrossedProduct", "orbit_multiply", "crossed.orbit_multiply", None),
    ("crossed", "CrossedProduct", "twist_multiply", "crossed.twist_multiply", None),
    ("crossed", "CrossedProduct", "transport", "crossed.transport", None),
    ("crossed", "CrossedProduct", "transport_inverse", "crossed.transport", None),
    ("intermediate", "IntermediateAlgebra", "__init__", "intermediate.construct", None),
    ("intermediate", "IntermediateAlgebra", "z_prime", "intermediate.z_prime", None),
    ("intermediate", "IntermediateAlgebra", "basis_tuples", "intermediate.basis_tuples", "tuples"),
    ("intermediate", "IntermediateAlgebra", "theorem_main_report", "intermediate.theorem_main_report", None),
    ("intermediate", "IntermediateAlgebra", "axiom_report", "intermediate.axiom_report", None),
    ("intermediate", "IntermediateAlgebra", "jones_report", "intermediate.jones_report", None),
    ("intermediate", "IntermediateAlgebra", "trace_report", "intermediate.trace_report", None),
    ("intermediate", "IntermediateAlgebra", "dual_report", "intermediate.dual_report", None),
    ("expressions", None, "parse_expr", "expressions.parse_expr", None),
    ("expressions", None, "realize", "expressions.realize", None),
    ("expressions", None, "random_composable_pair", "expressions.random_composable_pair", None),
    ("tangles", None, "compose", "tangles.compose", None),
    ("tangles", None, "validate", "tangles.validate", None),
    ("tangles", None, "alpha", "tangles.alpha", None),
    ("tangles", None, "alpha_tilde", "tangles.alpha", None),
    ("tangles", None, "loops_black", "tangles.loops", None),
    ("tangles", None, "loops_white", "tangles.loops", None),
    ("groups", None, "load_action", "groups.load_action", None),
    ("groups", None, "orbit_of", "groups.orbit_of", None),
    ("suites", None, "base_algebra_report", "suites.base_algebra_report", None),
    ("suites", None, "crossed_product_report", "suites.crossed_product_report", None),
    ("suites", None, "biprojection_suite", "suites.biprojection_suite", None),
)

SUITES = ("base-algebra", "crossed-product", "biprojection", "theorem-main",
          "axioms", "jones", "trace", "dual")
REPORTS = ("theorem_main_report", "axiom_report", "jones_report", "trace_report",
           "dual_report")
SUITE_FUNCTIONS = ("base_algebra_report", "crossed_product_report", "biprojection_suite")


def _per_layer() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [("scalars.mul_calls", "count"), ("scalars.add_calls", "count"),
           ("scalars.invert_calls", "count"), ("scalars.self_s", "s")]
    ga = "group_algebra."
    out += [(ga + "multiply_calls", "count"), (ga + "multiply_self_s", "s"),
            (ga + "multiply_total_s", "s")]
    for c in (2, 3, 4):
        out += [(f"{ga}multiply_calls.c{c}", "count"), (f"{ga}multiply_self_s.c{c}", "s"),
                (f"{ga}multiply_total_s.c{c}", "s")]
    out += [(ga + "multiply_term_pairs", "count"), (ga + "multiply_yield", "ratio")]
    for fn in ("evaluate", "act_generator", "star", "trace", "row_reduce"):
        out += [(f"{ga}{fn}_calls", "count"), (f"{ga}{fn}_self_s", "s")]
    out += [("crossed.surround_calls", "count"), ("crossed.surround_self_s", "s")]
    for c in (1, 2, 3, 4):
        out += [(f"crossed.surround_calls.c{c}", "count"), (f"crossed.surround_self_s.c{c}", "s")]
    for fn in ("orbit_multiply", "twist_multiply", "transport"):
        out += [(f"crossed.{fn}_calls", "count"), (f"crossed.{fn}_self_s", "s")]
    out += [("intermediate.construct_s", "s"), ("intermediate.basis_tuples", "count"),
            ("intermediate.z_prime_calls", "count"), ("intermediate.z_prime_self_s", "s")]
    out += [(f"intermediate.{fn}_self_s", "s") for fn in REPORTS]
    out += [("expressions.parse_expr_calls", "count"), ("expressions.parse_expr_self_s", "s"),
            ("expressions.realize_calls", "count"), ("expressions.realize_self_s", "s"),
            ("expressions.random_composable_pair_calls", "count")]
    for fn in ("compose", "validate", "alpha", "loops"):
        out += [(f"tangles.{fn}_calls", "count"), (f"tangles.{fn}_self_s", "s")]
    out += [("groups.load_action_s", "s"), ("groups.orbit_of_calls", "count")]
    out += [(f"suites.{name}_s", "s") for name in SUITES]
    out += [("suites.self_s", "s"), ("cli.serialize_s", "s"), ("cli.report_bytes", "bytes")]
    out += [("stream.items", "count"), ("stream.item_p50_us", "us"), ("stream.item_p99_us", "us")]
    out += [("trace.overhead_share", "ratio"), ("trace.spans", "count")]
    return out


PER_LAYER = _per_layer()


class Tracer:
    """Flat-array span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.requests = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- wrapping ----------------------------------------------------

    def _wrap(self, fn, name: str, option):
        tracer = self
        base = self.name_id(name)
        by_colour: dict[int, int] = {}
        counts = self.counts

        if option == "tuples":
            def counted(it):
                for item in it:
                    counts["intermediate.basis_tuples"] += 1
                    yield item

            @functools.wraps(fn)
            def tuples_wrapper(*args, **kwargs):
                return counted(fn(*args, **kwargs))

            return tuples_wrapper

        def colour_id(c: int) -> int:
            nid = by_colour.get(c)
            if nid is None:
                nid = by_colour[c] = tracer.name_id(f"{name}.c{c}")
            return nid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = colour_id(args[1].colour) if option else base
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if option == "multiply":
                counts["group_algebra.multiply_term_pairs"] += (
                    len(args[1].coeffs) * len(args[2].coeffs)
                )
                counts["group_algebra.multiply_terms_out"] += len(result.coeffs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry of ``PATCHES`` in the loaded planarbox modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "planarbox" or n.startswith("planarbox.")]
        for module_name, cls_name, attr, name, option in PATCHES:
            module = sys.modules[f"planarbox.{module_name}"]
            if cls_name is not None:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(original, name, option)
                # aliases such as __radd__ = __add__ share the wrapper
                for key, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, key, wrapper)
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(original, name, option)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)

    # -- results -----------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        name_ids = self.name_ids
        for i in range(n):
            nid = name_ids[i]
            d = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += d
            own[nid] += d - child[i]
        return {name: (calls[i], total[i], own[i]) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Spans as raw arrays after a one-line JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "arrays": ["name_ids:H", "starts:d", "ends:d", "parents:i", "requests:i"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_ids, self.starts, self.ends, self.parents, self.requests):
                arr.tofile(fh)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics this tracer can derive on its own."""
        t = self.totals()

        def calls(*names):
            return sum(t[n][0] for n in names if n in t)

        def own(*names):
            return sum(t[n][2] for n in names if n in t)

        def total(*names):
            return sum(t[n][1] for n in names if n in t)

        def family(prefix):
            return [n for n in t if n == prefix or n.startswith(prefix + ".c")]

        m: dict[str, float] = {}
        m["scalars.mul_calls"] = calls("scalars.mul")
        m["scalars.add_calls"] = calls("scalars.add")
        m["scalars.invert_calls"] = calls("scalars.invert")
        m["scalars.self_s"] = own("scalars.mul", "scalars.add", "scalars.invert")
        ga = "group_algebra."
        mult = family(ga + "multiply")
        m[ga + "multiply_calls"] = calls(*mult)
        m[ga + "multiply_self_s"] = own(*mult)
        # with the scalar arithmetic under it; multiply never calls itself
        m[ga + "multiply_total_s"] = total(*mult)
        for c in (2, 3, 4):
            m[f"{ga}multiply_calls.c{c}"] = calls(f"{ga}multiply.c{c}")
            m[f"{ga}multiply_self_s.c{c}"] = own(f"{ga}multiply.c{c}")
            m[f"{ga}multiply_total_s.c{c}"] = total(f"{ga}multiply.c{c}")
        pairs = self.counts["group_algebra.multiply_term_pairs"]
        m[ga + "multiply_term_pairs"] = pairs
        m[ga + "multiply_yield"] = (
            self.counts["group_algebra.multiply_terms_out"] / pairs if pairs else 0.0
        )
        for fn in ("evaluate", "act_generator", "star", "trace", "row_reduce"):
            m[f"{ga}{fn}_calls"] = calls(ga + fn)
            m[f"{ga}{fn}_self_s"] = own(ga + fn)
        sur = family("crossed.surround")
        m["crossed.surround_calls"] = calls(*sur)
        m["crossed.surround_self_s"] = own(*sur)
        for c in (1, 2, 3, 4):
            m[f"crossed.surround_calls.c{c}"] = calls(f"crossed.surround.c{c}")
            m[f"crossed.surround_self_s.c{c}"] = own(f"crossed.surround.c{c}")
        for fn in ("orbit_multiply", "twist_multiply", "transport"):
            m[f"crossed.{fn}_calls"] = calls("crossed." + fn)
            m[f"crossed.{fn}_self_s"] = own("crossed." + fn)
        m["intermediate.construct_s"] = total("intermediate.construct")
        m["intermediate.basis_tuples"] = self.counts["intermediate.basis_tuples"]
        m["intermediate.z_prime_calls"] = calls("intermediate.z_prime")
        m["intermediate.z_prime_self_s"] = own("intermediate.z_prime")
        for fn in REPORTS:
            m[f"intermediate.{fn}_self_s"] = own("intermediate." + fn)
        for fn in ("parse_expr", "realize"):
            m[f"expressions.{fn}_calls"] = calls("expressions." + fn)
            m[f"expressions.{fn}_self_s"] = own("expressions." + fn)
        m["expressions.random_composable_pair_calls"] = calls(
            "expressions.random_composable_pair"
        )
        for fn in ("compose", "validate", "alpha", "loops"):
            m[f"tangles.{fn}_calls"] = calls("tangles." + fn)
            m[f"tangles.{fn}_self_s"] = own("tangles." + fn)
        m["groups.load_action_s"] = total("groups.load_action")
        m["groups.orbit_of_calls"] = calls("groups.orbit_of")
        for name in SUITES:
            m[f"suites.{name}_s"] = total("bench.verdict." + name)
        m["suites.self_s"] = own(*("suites." + fn for fn in SUITE_FUNCTIONS))
        m["cli.serialize_s"] = total("cli.serialize")
        m["cli.report_bytes"] = self.counts["cli.report_bytes"]
        m["trace.spans"] = len(self.starts)
        return m
