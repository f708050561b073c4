"""Each narrative script in demos/ runs to the end and prints its sections."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert [d.name[:3] for d in DEMOS] == ["01_", "02_", "03_", "04_", "05_"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.startswith("== ")
