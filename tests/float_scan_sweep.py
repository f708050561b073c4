"""Run criterion 9's float scan (``verify._float_literals``) and the
``tokenize`` oracle (``oracles.float_literals_by_tokenize``) on every
``.py`` file under a directory, and stop at the first file where they
differ.

It needs only the standard library and the package.  From the repository
root, for the running interpreter's standard library:

    PYTHONPATH=src python3 tests/float_scan_sweep.py "$(python3 -c 'import sysconfig; print(sysconfig.get_paths()["stdlib"])')"

Files that ``ast`` cannot parse are skipped, as the scan is defined on
valid Python only.  Exits 0 when every file agrees, 1 at the first
difference (printing the file and both answers), and 2 on bad usage.  Run it
under Python 3.11 or older on a tree with f-strings: from 3.12 tokenize
splits them (PEP 701) and a file may nest an f-string's own quotes.
"""

import ast
import sys
import time
from pathlib import Path

import oracles
from pa import verify


def sweep(root: Path) -> int:
    checked = skipped = 0
    start = time.perf_counter()
    for path in sorted(root.rglob("*.py")):
        try:
            source = path.read_text(encoding="utf-8")
            ast.parse(source)
        except (SyntaxError, UnicodeDecodeError, ValueError, OSError):
            skipped += 1
            continue
        got = verify._float_literals(source)
        want = oracles.float_literals_by_tokenize(source)
        if got != want:
            print(f"{path}: scan {got} != tokenize {want}")
            return 1
        checked += 1
    seconds = time.perf_counter() - start
    print(f"{checked} files agree, {skipped} skipped, in {seconds:.1f} s")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or not Path(sys.argv[1]).is_dir():
        print(f"usage: {sys.argv[0]} DIRECTORY", file=sys.stderr)
        sys.exit(2)
    sys.exit(sweep(Path(sys.argv[1])))
