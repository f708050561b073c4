"""Replay every command recorded in ``golden/cli.json`` in process and
print the outputs, in the record's order and format, as JSON.

It needs only the standard library and the package, so any interpreter the
package supports can run it; the record holds ``pa verify --all --json``
too.  From the repository root:

    PYTHONPATH=src python3 tests/golden_replay.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from pa import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORD = GOLDEN / "cli.json"


def replay(argv: list[str]) -> dict:
    """Run ``pa argv`` in process from the golden directory, with help and
    usage text wrapped at 80 columns whatever the terminal."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with (
            mock.patch.dict(os.environ, COLUMNS="80"),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    with open(RECORD, encoding="utf-8") as fh:
        entries = json.load(fh)
    json.dump([replay(entry["argv"]) for entry in entries], sys.stdout, indent=1)
    sys.stdout.write("\n")
