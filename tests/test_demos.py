"""The demos run to completion in-process and print their tables."""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, expected", [
    ("01_family_gallery.py", "Clifford torus"),
    ("02_block_identities.py", "circle block closed forms"),
    ("03_helicoid_anatomy.py", "per-term norms at point 0"),
    ("04_sphere_cone_bridge.py", "agreement=True"),
    ("05_angle_graph.py", "max equation residual"),
])
def test_demo_runs_cleanly(script, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / script), run_name="__main__")
    text = out.getvalue()
    assert expected in text
    assert "nan" not in text.lower()


def test_mesh_export_demo_writes_obj(tmp_path, monkeypatch):
    out_path = tmp_path / "helicoid.obj"
    monkeypatch.setattr(sys, "argv", [
        "06_mesh_export.py", "--out", str(out_path), "--resolution", "16"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / "06_mesh_export.py"), run_name="__main__")
    assert "mesh: 256 vertices" in out.getvalue()
    lines = out_path.read_text().splitlines()
    assert sum(line.startswith("v ") for line in lines) == 256
    assert sum(line.startswith("f ") for line in lines) == 2 * 15 * 15
