"""The argparse command line the package used to parse with: the tests'
reference for cli._config_from_args.

config_from_args builds the same RunConfig from an argv, or raises
InputError with argparse's one-line message; -h/--help prints argparse's
help and raises SystemExit(0).  It shares only RunConfig, COMMANDS and
InputError with the package.
"""

import argparse
import functools
from typing import NoReturn, Sequence

from latticealg.cli import COMMANDS, RunConfig
from latticealg.errors import InputError


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as InputError, not SystemExit."""

    def error(self, message: str) -> NoReturn:
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once; parse_args leaves it unchanged."""
    parser = _Parser(prog="latticealg")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("target", nargs="?")
        p.add_argument("--input")
        p.add_argument("--builtin")
        p.add_argument("--element", action="append", default=[], metavar="NAME")
        p.add_argument("--family", action="append", default=[], metavar="NAME")
        p.add_argument("--gamma")
        p.add_argument("--grid", type=int, default=2)
        p.add_argument(
            "--format", choices=("text", "json", "markdown"), default="text", dest="out_format"
        )
        p.add_argument("--cap", type=int)
    return parser


def config_from_args(argv: Sequence[str]) -> RunConfig:
    ns = build_parser().parse_args(argv)
    input_path, builtin_name = ns.input, ns.builtin
    if ns.target:
        if input_path or builtin_name:
            raise InputError("give either a positional target or --input/--builtin, not both")
        if ns.target.startswith("builtin:"):
            builtin_name = ns.target[len("builtin:") :]
        else:
            input_path = ns.target
    if input_path and builtin_name:
        raise InputError("--input and --builtin are mutually exclusive")
    return RunConfig(
        command=ns.command,
        input_path=input_path,
        builtin_name=builtin_name,
        elements=list(ns.element),
        family=list(ns.family),
        gamma=ns.gamma,
        grid=ns.grid,
        out_format=ns.out_format,
        cap=ns.cap,
    )
