#!/usr/bin/env python3
"""Print a digest of what the command line writes, one line per case.

Each line holds the sha256 of stdout, the sha256 of stderr, the exit code
and the command, separated by spaces.  Two checkouts whose outputs are
byte-identical print identical digests, so comparing the two listings checks
a change for byte identity:

    PYTHONPATH=src python scripts/cli_digest.py > after.txt
    PYTHONPATH=../parent/src python scripts/cli_digest.py > before.txt
    diff before.txt after.txt

The cases, for every builtin (or those named with --builtins) and every
file named with --files:
- each command in each of the text, json and markdown formats;
- classify --grid 1 and --grid 3, in each format;
- for a builtin that names a default family, inner --gamma with the
  diagonal pairs of that family, in each format;
- for each element a builtin names, inner --element NAME, in each format.

Then come three cases with no target: report in each format, which renders
every builtin's report, joined by "---" rules, whatever --builtins names.
Last come the fixed command lines of REFUSALS, malformed or written in an
unusual form (an option by prefix or with "=", "--", a negative value), so
that the refusals' messages and exit codes are compared byte for byte too.

Every case runs in this process through latticealg.cli.main, with stdout
and stderr captured.
"""

import argparse
import contextlib
import hashlib
import io
from typing import Iterator, Optional

import latticealg as la
from latticealg.cli import COMMANDS, main

FORMATS = ("text", "json", "markdown")
REFUSALS = (
    [],
    ["foo"],
    ["--", "verify"],
    ["classify", "builtin:ck2", "--grid", "x"],
    ["verify", "builtin:ck2", "--format", "xml"],
    ["classify", "builtin:ck2", "--element"],
    ["classify", "builtin:ck2", "--element", "-x"],
    ["verify", "builtin:ck2", "--f", "json"],
    ["verify", "builtin:ck2", "b"],
    ["--x", "verify", "builtin:ck2"],
    ["classify", "builtin:upper2", "--elem", "E12"],
    ["verify", "builtin:ck2", "--format=json"],
    ["verify", "--", "builtin:ck2"],
    ["classify", "builtin:ck2", "--grid", "-1"],
    ["verify", "builtin:ck2", "--input", "missing.json"],
    ["verify", "--builtin", "ck2", "--input", "missing.json"],
)


def cases(target: str, builtin_name: Optional[str]) -> Iterator[list[str]]:
    for command in COMMANDS:
        for fmt in FORMATS:
            yield [command, target, "--format", fmt]
    for grid in ("1", "3"):
        for fmt in FORMATS:
            yield ["classify", target, "--grid", grid, "--format", fmt]
    if builtin_name is None:
        return
    family = la.builtin_meta(builtin_name).default_family
    if family:
        gamma = ",".join(f"({i},{i})" for i in range(len(family)))
        for fmt in FORMATS:
            yield ["inner", target, "--gamma", gamma, "--format", fmt]
    for name in sorted(la.builtin(builtin_name).elements):
        for fmt in FORMATS:
            yield ["inner", target, "--element", name, "--format", fmt]


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    sha_out = hashlib.sha256(out.getvalue().encode()).hexdigest()
    sha_err = hashlib.sha256(err.getvalue().encode()).hexdigest()
    return f"{sha_out} {sha_err} {code} {' '.join(argv)}"


def main_digest() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--builtins", nargs="*", default=list(la.BUILTIN_NAMES), metavar="NAME",
        help="builtins to run (default: all of them)",
    )
    parser.add_argument(
        "--files", nargs="*", default=[], metavar="PATH", help="algebra files to run"
    )
    args = parser.parse_args()
    targets = [(f"builtin:{name}", name) for name in args.builtins]
    targets += [(path, None) for path in args.files]
    for target, builtin_name in targets:
        for argv in cases(target, builtin_name):
            print(digest(argv))
    for fmt in FORMATS:
        print(digest(["report", "--format", fmt]))
    for argv in REFUSALS:
        print(digest(argv))


if __name__ == "__main__":
    main_digest()
