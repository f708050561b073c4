"""Each narrative script in demos/ runs to the end and prints what
``golden/demos.json`` recorded for it, byte for byte.

To record the file again after a change that is meant to alter a demo's
output, run from the repository root

    PYTHONPATH=src python3 tests/test_demos.py

and review the diff of ``tests/golden/demos.json``.
"""

import contextlib
import io
import json
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
RECORD = Path(__file__).resolve().parent / "golden" / "demos.json"


def run_demo(path: Path) -> str:
    """The demo's stdout when run as a script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_all_five_demos_found():
    assert [d.name[:3] for d in DEMOS] == ["01_", "02_", "03_", "04_", "05_"]


def test_record_covers_every_demo():
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    assert sorted(recorded) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))[path.stem]
    out = run_demo(path)
    assert out.startswith("== ")
    assert out == recorded


if __name__ == "__main__":
    entries = {d.stem: run_demo(d) for d in DEMOS}
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"recorded {len(entries)} demos in {RECORD}")
