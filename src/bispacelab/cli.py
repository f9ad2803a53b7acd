"""Command line front end.

Subcommands: verify-catalog, enumerate, suite, check. Global --format picks
human text or machine JSON lines. Exit codes: 0 everything passed, 1 a
claim or suite violation (or stdout closed by its reader), 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import run_catalog
from .finite import enumerate_spaces
from .reports import (
    human_report,
    human_suite,
    machine_report,
    machine_suite,
)
from .spacefile import SpaceFileError, check_user_file
from .suites import ALL_SUITES, SuiteConfig, run_theorem_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _cmd_verify_catalog(args) -> int:
    render = machine_report if args.format == "machine" else human_report
    failed = False
    for report in run_catalog():
        sys.stdout.write(render(report))
        failed = failed or not report.passed
    return EXIT_VIOLATION if failed else EXIT_OK


def _cmd_enumerate(args) -> int:
    try:
        spaces = list(enumerate_spaces(args.n))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    for idx, space in enumerate(spaces):
        opens = [sorted(o) for o in space.opens]
        if args.format == "machine":
            sys.stdout.write(
                json.dumps(
                    {"n": args.n, "index": idx, "opens": opens},
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
            )
        else:
            rendered = " ".join("{" + ",".join(map(str, o)) + "}" for o in opens)
            sys.stdout.write(f"#{idx}: {rendered}\n")
    if args.format != "machine":
        sys.stdout.write(f"total: {len(spaces)} spaces on {args.n} points\n")
    return EXIT_OK


def _cmd_suite(args) -> int:
    which = tuple(args.which.split(","))
    try:
        config = SuiteConfig(n=args.n, which=which, seed=args.seed)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    render = machine_suite if args.format == "machine" else human_suite
    failed = False
    for result in run_theorem_suite(config):
        sys.stdout.write(render(result))
        failed = failed or not result.passed
    return EXIT_VIOLATION if failed else EXIT_OK


def _cmd_check(args) -> int:
    try:
        report = check_user_file(args.file, args.claims)
    except SpaceFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    render = machine_report if args.format == "machine" else human_report
    sys.stdout.write(render(report))
    return EXIT_OK if report.passed else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bispace-lab",
        description="verify preopen-set structure over finite and symbolic bispaces",
    )
    parser.add_argument(
        "--format",
        choices=("text", "machine"),
        default="text",
        help="human text or machine-readable JSON lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify-catalog", help="check every cataloged counterexample")

    p_enum = sub.add_parser("enumerate", help="list all open-set structures on n points")
    p_enum.add_argument("--n", type=int, required=True, help="carrier size (1..4)")

    p_suite = sub.add_parser("suite", help="run theorem suites over enumerated models")
    p_suite.add_argument("--n", type=int, default=3, help="max carrier size (1..4)")
    p_suite.add_argument(
        "--which",
        default="all",
        help="comma-separated suite names, or 'all' (known: %s)" % ", ".join(ALL_SUITES),
    )
    p_suite.add_argument(
        "--seed", type=int, default=None, help="seed for the sampled n=4 map sweep"
    )

    p_check = sub.add_parser("check", help="verify a user-supplied space document")
    p_check.add_argument("file", help="path to the JSON space document")
    p_check.add_argument("--claims", default=None, help="extra claims file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "verify-catalog": _cmd_verify_catalog,
        "enumerate": _cmd_enumerate,
        "suite": _cmd_suite,
        "check": _cmd_check,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head -1`); point it at devnull so the
        # flush at exit cannot raise again ("Note on SIGPIPE" in the Python
        # signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_VIOLATION
    return code


if __name__ == "__main__":
    sys.exit(main())
