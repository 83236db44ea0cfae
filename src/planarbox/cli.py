"""Batch front end: capping weights, verification suites, label products.

Three subcommands.  ``alpha`` parses a tangle expression, validates the
diagram, and prints the capping weight with its loop bookkeeping.
``suite`` runs a named verification suite against an action and writes a
JSON report; the exit code says whether every record passed.
``multiply`` expands a product of two basis labels in the requested
basis.  Reports contain no timestamps, so the same configuration always
produces the same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from .crossed import CrossedProduct
from .expressions import ParseError, decimal_value, parse_expr, realize
from .group_algebra import AlgebraError, render_terms
from .groups import GroupAction, GroupError, inversion_action, load_action
from .scalars import RadicalScalar
from .suites import MAX_KMAX, SUITE_NAMES, SuiteError, run_suite, summarize
from .tangles import TangleError, alpha, capping_exponent, loops_black, validate

DEFAULT_KMAX = 4
DEFAULT_SAMPLES = 40
# An odd capping exponent takes sqrt(ratio), whose canonical form factors the
# ratio by trial division up to its square root.  End to end on a 2-core x86
# VM, `alpha` with a prime ratio near 10^12 ran in 0.4 s, near 10^14 in
# 1.2 s, and near 10^20 did not finish in 30 s.
MAX_RATIO = 10**12

EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_INVALID_TANGLE = 3


def format_scalar(value: RadicalScalar) -> str:
    """Text form with parenthesized fractional coefficients of roots.

    E.g. ``(1/2)*sqrt(2)`` where :meth:`RadicalScalar.render` gives
    ``1/2*sqrt(2)``.
    """
    return value.render(parenthesize=True)


def _decimal(text: str, signed: bool = False) -> int:
    """The value of an integer option or argument: a plain decimal numeral,
    as :func:`~planarbox.expressions.decimal_value` reads one, after one
    leading ``-`` if ``signed``.  Anything else, such as a plus sign, space,
    underscore or digit of another script, exits 2 like any usage error."""
    negative = signed and text.startswith("-")
    value = decimal_value(text[1:] if negative else text)
    if value is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not a decimal numeral")
    return -value if negative else value


def _load_action(path: str | None) -> GroupAction:
    if path is None:
        return inversion_action(3)
    try:
        spec = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    return load_action(spec)


def _action_name(action: GroupAction) -> str:
    return f"crossed({action.group.order},{action.theta.order})"


def cmd_alpha(args: argparse.Namespace) -> int:
    if args.ratio < 1:
        print("--ratio must be a positive integer", file=sys.stderr)
        return EXIT_USAGE
    if args.ratio > MAX_RATIO:
        print(f"--ratio must be at most MAX_RATIO = {MAX_RATIO}", file=sys.stderr)
        return EXIT_USAGE
    try:
        expr = parse_expr(args.expr)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        tangle = realize(expr)
    except TangleError as exc:
        print(f"invalid tangle: {exc}", file=sys.stderr)
        return EXIT_INVALID_TANGLE
    diagnostics = validate(tangle)
    if not diagnostics.ok:
        print(f"invalid tangle: {diagnostics!r}", file=sys.stderr)
        return EXIT_INVALID_TANGLE
    print(f"alpha = {format_scalar(alpha(tangle, args.ratio))}")
    print(f"c = {capping_exponent(tangle)}")
    print(f"loops = {loops_black(tangle)}")
    print(f"external = {tangle.external.label()}")
    internal = " ".join(d.label() for d in tangle.internal)
    print(f"internal = {internal if internal else 'none'}")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    if args.samples < 1:
        print("--samples must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.out and not Path(args.out).parent.is_dir():
        print(f"cannot write report: no directory for {args.out}", file=sys.stderr)
        return EXIT_USAGE
    if args.out and Path(args.out).is_dir():
        print(f"cannot write report: {args.out} is a directory", file=sys.stderr)
        return EXIT_USAGE
    try:
        action = _load_action(args.action)
    except (OSError, ValueError, GroupError) as exc:
        print(f"cannot load action: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        records = run_suite(
            args.name, action, k_max=args.kmax, samples=args.samples, seed=args.seed
        )
    except SuiteError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    summary = summarize(records)
    report = {
        "config": {
            "suite": args.name,
            "action": _action_name(action),
            "action_path": args.action,
            "k_max": args.kmax,
            "samples": args.samples,
            "seed": args.seed,
        },
        "records": records,
        "summary": summary,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(
            f"suite {args.name}: {summary['cases']} cases, "
            f"{summary['failed']} failed -> {args.out}"
        )
    else:
        sys.stdout.write(text)
    return 0 if summary["ok"] else EXIT_FAILURES


def _parse_label(text: str, colour: int, order: int) -> tuple[int, ...]:
    label = tuple(decimal_value(p) for p in text.split(","))
    if None in label:
        raise ValueError(f"label {text!r} is not a comma-separated integer tuple")
    if len(label) != colour - 1:
        raise ValueError(
            f"label {text!r} has {len(label)} entries; colour {colour} needs {colour - 1}"
        )
    for entry in label:
        if not 0 <= entry < order:
            raise ValueError(f"label entry {entry} outside 0..{order - 1}")
    return label


def cmd_multiply(args: argparse.Namespace) -> int:
    try:
        action = _load_action(args.action)
    except (OSError, ValueError, GroupError) as exc:
        print(f"cannot load action: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not 2 <= args.colour <= 5:
        print("colour must lie in 2..5", file=sys.stderr)
        return EXIT_USAGE
    cp = CrossedProduct(action)
    group = cp.semidirect if args.basis == "S" else cp.group
    try:
        left = _parse_label(args.left, args.colour, len(group))
        right = _parse_label(args.right, args.colour, len(group))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.basis == "S":
            P = cp.product
            result = P.multiply(
                P.basis_element(args.colour, left), P.basis_element(args.colour, right)
            )
            print(P.render(result))
            return 0
        if args.basis == "thetaS":
            product = cp.orbit_multiply(
                cp.orbit_sum(args.colour, left), cp.orbit_sum(args.colour, right)
            )
            symbol, comps = "ThetaS", cp.invariant_components(product)
        else:
            product = cp.twist_multiply(args.colour, left, right)
            symbol, comps = "U", cp.twist_components(product)
    except AlgebraError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    name = cp.group.name
    terms = ((f"{symbol}({','.join(map(name, rep))})", c) for rep, c in sorted(comps.items()))
    print(render_terms(terms, format_scalar))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planarbox",
        description="Exact computations in group planar algebras and their cut-downs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alpha = sub.add_parser(
        "alpha", help="capping weight of a tangle expression"
    )
    p_alpha.add_argument("expr", help="s-expression, e.g. '(gen E 2 3)'")
    p_alpha.add_argument(
        "--ratio", type=_decimal, default=2, help=f"index ratio, 1..{MAX_RATIO} (default 2)"
    )
    p_alpha.set_defaults(func=cmd_alpha)

    p_suite = sub.add_parser("suite", help="run a named verification suite")
    p_suite.add_argument("name", help=f"one of: {', '.join(SUITE_NAMES)}")
    p_suite.add_argument("--action", help="path to an action JSON file")
    p_suite.add_argument(
        "--kmax", type=_decimal, default=DEFAULT_KMAX,
        help=f"highest colour checked, 2..{MAX_KMAX} (default {DEFAULT_KMAX})",
    )
    p_suite.add_argument("--samples", type=_decimal, default=DEFAULT_SAMPLES)
    p_suite.add_argument("--seed", type=partial(_decimal, signed=True), default=0)
    p_suite.add_argument("--out", help="write the JSON report here instead of stdout")
    p_suite.set_defaults(func=cmd_suite)

    p_mult = sub.add_parser("multiply", help="product of two basis labels")
    p_mult.add_argument("colour", type=_decimal)
    p_mult.add_argument("left", help="comma-separated label, e.g. '1' or '0,1'")
    p_mult.add_argument("right")
    p_mult.add_argument("--action", help="path to an action JSON file")
    p_mult.add_argument(
        "--basis",
        choices=["S", "thetaS", "U"],
        default="S",
        help="S: ambient labels; thetaS: orbit sums over the acted-on group; "
        "U: twist sums (labels over the acted-on group)",
    )
    p_mult.set_defaults(func=cmd_multiply)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
