"""The benchmark's own unit tests, run as part of this suite.

``bench/test_bench.py`` holds, among others, the benchmark's output checker
(``bench/expect.py``) against real ``pa`` payloads, so a payload change
fails here before a benchmark run reports it.  The suite runs as the bench
documents it, with ``unittest`` from the repository root, in a subprocess:
it puts ``bench/`` and ``src/`` on its own path.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_bench_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ran = re.search(r"^Ran (\d+) tests? in ", proc.stderr, re.MULTILINE)
    assert ran and int(ran[1]) >= 21, proc.stderr
