"""The identity demos run to completion in-process and print their tables."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, expected", [
    ("02_block_identities.py", "circle block closed forms"),
    ("03_helicoid_anatomy.py", "per-term norms at point 0"),
])
def test_demo_runs_cleanly(script, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / script), run_name="__main__")
    text = out.getvalue()
    assert expected in text
    assert "nan" not in text.lower()
