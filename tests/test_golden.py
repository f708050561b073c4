"""CLI outputs against recorded ones: every command in ``COMMANDS`` is run
in process and its exit code, stdout and stderr must match
``golden/cli.json`` byte for byte.

The file holds one entry per command.  To record it again after a change
that is meant to alter an output, run from the repository root

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff of ``tests/golden/cli.json``.
"""

import functools
import json

import pytest

from golden_replay import RECORD, replay

# Paths in argv are relative to the golden directory.
COMMANDS = [
    ["verify", "--all"],
    ["verify", "--all", "--json"],
    *(
        ["dihedral", r, d1, d2, *fmt]
        for r, d1, d2 in [
            ("0/1", "1", "2"),
            ("0/1", "2", "1"),
            ("2/5", "2", "3"),
            ("3/8", "1", "1"),
            ("1/101", "7", "9"),
            ("1/601", "11", "13"),
            ("2/5", "0", "1"),
            ("1/500001", "1", "2"),
        ]
        for fmt in ([], ["--json"])
    ),
    # n past 2**63, every entry below dihedral.FACTOR_BOUND
    ["dihedral", "3/100000000003", "999999999989", "1"],
    ["dihedral", "3/100000000003", "999999999989", "999999999961", "--json"],
    # the infinite slope is refused in the orbifold's own terms
    ["dihedral", "inf", "2", "3"],
    *(
        ["triangle", "order", t, w, *fmt]
        for t, w in [
            ("2 3 5", "ab"),
            ("2 2 600", "c7a"),
            ("1 6 4", "b"),
            ("3 1 1", "a"),
            ("1 5000 5000", "b"),
            ("2 3 7", "ab"),
        ]
        for fmt in ([], ["--json"])
    ),
    ["triangle", "image", "4,6,8 -> 2,3,4", "bC2"],
    ["triangle", "image", "4,6,8 -> 2,3,4", "bC2", "--json"],
    *(
        ["cusp", kind, *opts, *fmt]
        for kind in ["244", "236", "T244", "T236"]
        for opts in (["--count", "24"], ["--brenner"])
        for fmt in ([], ["--json"])
    ),
    ["heckoid", "2/5", "3"],
    ["heckoid", "3/7", "5/2", "--json"],
    ["link", "classify", "3/8"],
    ["link", "equiv", "2/7", "4/7", "--json"],
    ["link", "cf", "3/8", "--json"],
    ["link", "hat", "3/8"],
    ["homology", "dihedral_2_5_2_3.json"],
    ["homology", "dihedral_2_5_2_3.json", "--json"],
    # Fraction reads "1_5" from Python 3.11 on; the index refuses it on all
    ["heckoid", "3/7", "1_5/2"],
    # every numeric argument is an optional sign and ASCII digits, so int()'s
    # underscores and other scripts' digits are refused
    ["link", "classify", "3/1_000_003"],
    ["dihedral", "2/5", "\u0662", "3"],
    # a negative slope follows "--"; without it argparse reads an option
    ["link", "classify", "--", "-3/7"],
    # usage and help text, wrapped at 80 columns by replay
    ["nosuch"],
    ["link"],
    ["dihedral", "2/7", "3", "5", "extra"],
    ["heckoid", "--help"],
]


@functools.cache
def _recorded() -> dict:
    with open(RECORD, encoding="utf-8") as fh:
        return {" ".join(e["argv"]): e for e in json.load(fh)}


def test_record_covers_every_command():
    assert sorted(_recorded()) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_record(argv):
    assert replay(argv) == _recorded()[" ".join(argv)]


if __name__ == "__main__":
    entries = [replay(argv) for argv in COMMANDS]
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(entries)} commands in {RECORD}")
