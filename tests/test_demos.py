"""Each demo prints its documented report: demo 01 a mixed equilibrium's
weights, demo 02 the running example's worst-case values, demo 03 the
regime sweep and its CSV rows, demo 04 pessimistic values on a witness
chain at full precision."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("number", ["01", "02", "03", "04"])
def test_demo_prints_its_document(number, capsys):
    (demo,) = (ROOT / "demos").glob(f"{number}_*.py")
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (ROOT / "tests" / "documents" / f"demo-{number}.txt").read_text()
