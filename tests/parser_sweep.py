"""Compare ``pa``'s parser, built with only the branch a command line names,
with the whole tree (``tests/oracles.py``'s ``whole_parser``), and stop at
the first difference.

It needs only the standard library and the package, so any interpreter the
package supports can run it.  From the repository root:

    PYTHONPATH=src python3 tests/parser_sweep.py

The command lines are every one recorded in ``golden/cli.json``, every
command's and leaf's --help, and usage errors around the first and second
words.  Each must give the same exit code, stdout and stderr (help and
usage at 80 columns), and, wherever the whole tree parses it, an equal
``Namespace``.  Exits 0 when all agree, printing their count; 1 at the
first that does not, printing it.
"""

import contextlib
import io
import json
import sys
from unittest import mock

import oracles
from golden_replay import RECORD, replay
from pa import cli

def argvs() -> list[list[str]]:
    """Every golden argv, every command's and leaf's --help, and the usage
    errors around the first and second words."""
    with open(RECORD, encoding="utf-8") as fh:
        argvs = [entry["argv"] for entry in json.load(fh)]
    leaves = {"link": ["classify", "equiv", "cf", "hat"], "triangle": ["order", "image"]}
    argvs += [["--help"], ["-h"]]
    argvs += [[command, "--help"] for command in cli._COMMANDS]
    argvs += [[command, leaf, "--help"] for command in leaves for leaf in leaves[command]]
    argvs += [[], ["nosuch"], ["link"], ["link", "nosuch"], ["dihedral"], ["triangle"]]
    argvs += [
        ["dihedral", "2/7", "3", "5", "extra"],
        ["--json", "dihedral", "2/7", "3", "5"],
        ["cusp", "999"],
        ["verify"],
        # a second word that is, or is not, a leaf
        ["link", "cf", "3/8", "extra"],
        ["link", "cf"],
        ["link", "--json", "cf", "3/8"],
        ["triangle", "order", "2 3 5", "ab", "extra"],
        ["triangle", "image"],
        ["triangle", "nosuch"],
    ]
    return argvs


def mismatch(argv: list[str]) -> str | None:
    """How ``pa argv`` differs from the whole tree's, or None."""
    branch = replay(argv)
    with mock.patch.object(cli, "build_parser", lambda argv=(): oracles.whole_parser()):
        whole = replay(argv)
    if branch != whole:
        return f"{argv}: output {branch} against the whole tree's {whole}"
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = oracles.whole_parser().parse_args(argv)
    except SystemExit:  # its usage or help text is compared above
        return None
    parsed = cli.build_parser(argv).parse_args(argv)
    if parsed != expected:
        return f"{argv}: {parsed} against the whole tree's {expected}"
    return None


def main() -> int:
    sweep = argvs()
    for argv in sweep:
        found = mismatch(argv)
        if found is not None:
            print(found)
            return 1
    print(f"{len(sweep)} command lines agree with the whole tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
