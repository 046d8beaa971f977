"""Each demo runs to the end without a RuntimeWarning."""

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
