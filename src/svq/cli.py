"""Command line interface.

Exit codes: 0 on success; 1 only from `svq run`, when a past-fixity check
found violations (so CI can assert the past stayed fixed; `svq eval`
prints valuations and exits 0 whatever the audit found); 2 on any error,
including an unexpected one, reported with an "internal error:" prefix.

The argument parser is built once per process, on the first `main` call.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import traceback

from .errors import SvqError
from .hilbert import DEFAULT_TOL, is_valid_tol
from .runner import emit_report, run_scenario, valuation_line, verdict
from .scenario import compile_scenario, parse_scenario


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not is_valid_tol(value):
        raise argparse.ArgumentTypeError(f"must be a finite number in (0, 1), got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svq",
        description="Run scenarios over three-valued quantum propositions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="scenario file (.svq)")
    common.add_argument("--seed", type=_seed, default=0, help="seed for random steps, >= 0")
    common.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="numeric tolerance, in (0, 1)")

    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", parents=[common], help="execute a scenario file and print its report")
    run_p.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_parser("eval", parents=[common], help="execute a scenario and print only query results")
    sub.add_parser("check", parents=[common], help="parse and compile a scenario without running it")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.file, encoding="utf-8-sig") as handle:
            text = handle.read()
        scenario = parse_scenario(text)
        if args.command == "check":
            compile_scenario(scenario, args.tol)
            print(f"{args.file}: ok")
            return 0
        report = run_scenario(scenario, {"seed": args.seed, "tol": args.tol})
        if args.command == "eval":
            for entry in report.valuations:
                print(valuation_line(entry))
            for entry in report.feasibility:
                print(f"feasible {entry['first']} {entry['second']} = {verdict(entry['feasible'])}")
            return 0
        sys.stdout.buffer.write(emit_report(report, args.format))
        sys.stdout.buffer.flush()
        return 1 if report.has_violations else 0
    except (OSError, SvqError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # exit 1 must only ever mean "violations found"
        traceback.print_exc()
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
