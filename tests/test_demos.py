import os
import pathlib
import subprocess
import sys

import pytest

import pdmsim

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    # The child imports the same pdmsim as this test process; it runs in
    # tmp_path because demo 02 writes its SVG to the working directory.
    src = os.path.dirname(os.path.dirname(pdmsim.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if demo.stem.startswith("02"):
        assert "<svg" in (tmp_path / "dephasing_sweep.svg").read_text()
