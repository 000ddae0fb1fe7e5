"""Each demo prints exactly what its recorded output file holds.

The demos call the public API the way a reader would, so a renamed argument
or a changed estimate shows up here.  Re-record a file only when a demo's
output is meant to change.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_prints_recorded_output(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    expected = (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_text()
    assert capsys.readouterr().out == expected
