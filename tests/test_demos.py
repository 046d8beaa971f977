"""Each demo runs to the end without a RuntimeWarning, and the OBJ of demo 03 loads."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))
SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert res.returncode == 0, res.stderr
    if demo.name == "03_meridian_geodesics.py":
        # each vertex is three floats, which np.float64's repr is not, and the polyline takes all
        lines = (tmp_path / "meridian.obj").read_text().splitlines()
        vertices = [line.split()[1:] for line in lines if line.startswith("v ")]
        assert vertices and all(len(v) == 3 and all(map(math.isfinite, map(float, v)))
                                for v in vertices)
        assert lines[-1] == "l " + " ".join(map(str, range(1, len(vertices) + 1)))
