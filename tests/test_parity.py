"""The byte corpus `parity.py` and the CI workflow that runs it.

The CLI promises outputs "bit-stable for a fixed seed and configuration"; the corpus holds it to
that promise within one process, after the caches have filled, against a fresh interpreter.  The
workflow runs tested code only: its report steps are gone or call kept modules, so no inline
Python there can fall out of step with the private names of `src/`.
"""

import os
import pathlib
import re
import subprocess
import sys
import warnings

import parity

from heisenberg_cmc import cli
from heisenberg_cmc._numerics import _gauss_legendre

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_the_corpus_writes_a_fresh_interpreters_bytes_after_a_warm_up():
    """One full pass of the corpus leaves the parser and the Gauss-Legendre nodes cached (no call
    makes a single-point radius solve, so the kept root `sphere._kept` is not reached); the
    passes in this process, the warm-up and the next, print the lines of a fresh interpreter,
    line for line, and no call warns."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get(
        "PYTHONPATH"))))}
    fresh = subprocess.Popen([sys.executable, parity.__file__], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, env=env)
    try:  # the fresh interpreter runs while this one makes its two passes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warm = parity.lines()
            assert cli._build_parser.cache_info().currsize == 1
            assert _gauss_legendre.cache_info().currsize > 0
            again = parity.lines()
        out, err = fresh.communicate(timeout=120)
    finally:
        fresh.kill()
    assert (fresh.returncode, err) == (0, "")
    assert len(warm) == len(parity.CORPUS) == 317
    assert warm == out.splitlines()
    assert again == out.splitlines()


def _python_c_bodies(text):
    """The bodies of the workflow's `python -c` calls, each up to its unescaped closing quote."""
    return [m.group(2) for m in re.finditer(r"python3? -c (['\"])(.*?)(?<!\\)\1", text, re.S)]


def test_ci_runs_only_tested_code():
    """No `python -c` body in the workflow runs over 10 lines, and it names no private attribute
    of the package and imports no private name; its gate steps, tier-1, the test-only import
    check and the quick benchmark runs, stay, and its byte report is the kept corpus."""
    text = WORKFLOW.read_text()
    bodies = _python_c_bodies(text)
    assert bodies and max(body.strip().count("\n") + 1 for body in bodies) <= 10
    assert re.findall(r"\._\w", text) == []
    imported = [name.split(" as ")[0].strip()
                for names in re.findall(r"\bimport\s+([\w., ]+)", text)
                for name in names.split(",")]
    assert imported and not [name for name in imported if name.split(".")[-1].startswith("_")]
    for gate in ("python -m pytest", "{'scipy', 'mpmath', 'sympy', 'hypothesis'}",
                 "perfbench/run.py --workload", "python tests/parity.py"):
        assert gate in text
