"""Command-line interface.

Four subcommands: eval (evaluate one expression), check (run a
conformance suite), t (print one ordered monomial), evolve (truncated
flow series).  Exit codes: 0 success or all checks passing, 1 at least
one failing check, 2 usage or expression errors.

The flags --dof, --s-value (alias --s), --format, and --seed are
accepted by every subcommand.  WEYLFORGE_SEED in the environment
overrides --seed.  The effective dof count is the larger of --dof and
the highest variable index an expression mentions.
"""

import argparse
import os
import sys

from .conformance import SUITES, run_suite
from .dynamics import FlowSeries, classical_flow_series, pmb_flow_series
from .expressions import (
    ExprError,
    ExprSyntaxError,
    evaluate,
    max_dof_index,
    parse,
)
from .operators import t_monomial
from .phase import PhasePoly
from .render import render

__all__ = ["UsageError", "run_command", "main"]


class UsageError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        # argparse reads every token led by a single "-" as an option
        # unless it looks like a negative number; one that names no option
        # here is an expression such as -q*p or -3*q2^3, so a value.
        if (
            arg_string[:1] == "-"
            and arg_string[1:2] not in ("", "-")
            and arg_string not in self._option_string_actions
        ):
            return None
        return super()._parse_optional(arg_string)


def _add_common_flags(parser):
    parser.add_argument("--dof", type=int, default=1, help="degrees of freedom")
    parser.add_argument(
        "--s-value",
        "--s",
        dest="s_value",
        default=None,
        metavar="VALUE",
        help="substitute this rational or Gaussian rational for the order parameter",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "latex"), default="text"
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="seed for randomized checks"
    )


def _build_parser():
    parser = _ArgumentParser(prog="weylforge")
    commands = parser.add_subparsers(dest="command", required=True)

    eval_parser = commands.add_parser("eval", help="evaluate an expression")
    eval_parser.add_argument("expression")
    _add_common_flags(eval_parser)

    check_parser = commands.add_parser("check", help="run a conformance suite")
    check_parser.add_argument("--suite", choices=SUITES, default="all")
    _add_common_flags(check_parser)

    t_parser = commands.add_parser("t", help="print one ordered monomial")
    t_parser.add_argument("n", type=int)
    t_parser.add_argument("m", type=int)
    _add_common_flags(t_parser)

    evolve_parser = commands.add_parser("evolve", help="truncated flow series")
    evolve_parser.add_argument("--observable", required=True, metavar="EXPR")
    evolve_parser.add_argument("--hamiltonian", required=True, metavar="EXPR")
    evolve_parser.add_argument("--order", type=int, required=True)
    _add_common_flags(evolve_parser)

    return parser


def _parse_s_value(text):
    """A plain Gaussian rational for substitution, or a usage error."""
    try:
        kind, value = evaluate(parse(text), 1)
    except ExprError as error:
        raise UsageError(f"bad --s-value: {error}") from error
    if kind != "scalar":
        raise UsageError("--s-value must be a scalar constant")
    terms = value.sorted_terms()
    if not terms:
        return 0
    if len(terms) == 1 and terms[0][0] == (0, 0):
        return terms[0][1]
    raise UsageError(
        "--s-value must be free of the formal parameters and variables"
    )


def _substitute(value, s_value):
    if s_value is None:
        return value
    if isinstance(value, FlowSeries):
        return value.map_coefficients(lambda c: c.substitute(s_value=s_value))
    return value.substitute(s_value=s_value)


def _seed(args):
    override = os.environ.get("WEYLFORGE_SEED")
    if override is None:
        return args.seed
    try:
        return int(override)
    except ValueError:
        raise UsageError(
            f"WEYLFORGE_SEED must be an integer, got {override!r}"
        ) from None


def _require_positive_dof(args):
    if args.dof < 1:
        raise UsageError("--dof must be at least 1")


def _to_phase_value(kind, value, dof_count):
    if kind == "phase":
        return value
    if kind == "scalar":
        return PhasePoly.constant(value, dof_count)
    raise UsageError("the hamiltonian must be commutative")


def _dispatch(args):
    _require_positive_dof(args)
    s_value = _parse_s_value(args.s_value) if args.s_value is not None else None

    if args.command == "eval":
        tree = parse(args.expression)
        dof_count = max(args.dof, max_dof_index(tree))
        kind, value = evaluate(tree, dof_count)
        if kind == "scalar":
            value = PhasePoly.constant(value, dof_count)
        return 0, render(_substitute(value, s_value), args.format)

    if args.command == "check":
        report = run_suite(args.suite, _seed(args))
        code = 0 if report["failed"] == 0 else 1
        return code, render(report, args.format)

    if args.command == "t":
        if args.n < 0 or args.m < 0:
            raise UsageError("exponents must be nonnegative")
        trailing = (0,) * (args.dof - 1)
        value = t_monomial((args.n,) + trailing, (args.m,) + trailing)
        return 0, render(_substitute(value, s_value), args.format)

    observable_tree = parse(args.observable)
    hamiltonian_tree = parse(args.hamiltonian)
    dof_count = max(
        args.dof,
        max_dof_index(observable_tree),
        max_dof_index(hamiltonian_tree),
    )
    if args.order < 0:
        raise UsageError("--order must be nonnegative")
    h_kind, h_value = evaluate(hamiltonian_tree, dof_count)
    hamiltonian = _to_phase_value(h_kind, h_value, dof_count)
    o_kind, o_value = evaluate(observable_tree, dof_count)
    if o_kind == "op":
        series = pmb_flow_series(o_value, hamiltonian, args.order)
    else:
        observable = _to_phase_value(o_kind, o_value, dof_count)
        series = classical_flow_series(observable, hamiltonian, args.order)
    return 0, render(_substitute(series, s_value), args.format)


def run_command(argv):
    """Run one invocation; returns (exit_code, output_text)."""
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as error:
        return 2, f"usage error: {error}"
    except SystemExit as leave:
        return (leave.code or 0), ""
    try:
        return _dispatch(args)
    except UsageError as error:
        return 2, f"usage error: {error}"
    except ExprSyntaxError as error:
        return 2, f"syntax error at column {error.column}: {error.message}"
    except ExprError as error:
        return 2, f"error: {error}"
    except (ValueError, TypeError, IndexError, ArithmeticError) as error:
        return 2, f"error: {error}"


def main():
    code, output = run_command(sys.argv[1:])
    if output:
        print(output)
    sys.exit(code)


if __name__ == "__main__":
    main()
