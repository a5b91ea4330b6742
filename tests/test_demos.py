"""The demos that print through the game layer print their documented
reports: demo 01 a mixed equilibrium's weights, demo 04 pessimistic values
on a witness chain at full precision."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("number", ["01", "04"])
def test_demo_prints_its_document(number, capsys):
    (demo,) = (ROOT / "demos").glob(f"{number}_*.py")
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (ROOT / "tests" / "documents" / f"demo-{number}.txt").read_text()
