"""A fixed corpus of CLI calls and the sha256 of every byte each one writes.

    PYTHONPATH=src python tests/parity.py

runs each call of `CORPUS` in this process, in a temporary directory of its own (`{d}` in an
argument), and prints one line a call: its argv, its exit code and the sha256 of its stdout, its
stderr and each file it wrote, by name.  The lines hold nothing but those bytes, so the outputs
of two source trees, diffed, show each call whose bytes differ:

    PYTHONPATH=<other tree>/src python tests/parity.py > base.txt
    PYTHONPATH=src python tests/parity.py > head.txt
    diff base.txt head.txt

The corpus is the runs whose hashes CI reports, `verify --grid` at seeds 0 to 9 and `verify` on
a 175-sphere stress grid.  Not a test module: `tests/test_cli.py` runs it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import tempfile

from heisenberg_cmc import cli

# fixed seeds and specs, so a change of any byte shows as a changed hash between runs
CORPUS = [
    ["sphere", "--epsilon", "0.7", "--sigma", "0.5", "--R", "0.8", "--n", "100",
     "--out", "{d}/profile.csv", "--limits-out", "{d}/limits.csv",
     "--curvature-out", "{d}/curvature.csv", "--sweep-out", "{d}/sweep.csv"],
    ["verify", "--grid", "--seed", "7", "--json", "-"],
    ["verify", "--seed", "7", "--json", "-"],
    ["verify", "--epsilon", "1.5", "--seed", "7", "--json", "-"],
    # exit 3, with the message of the one-sphere stack's CMC stencil
    ["verify", "--epsilon", "1e-160", "--R", "1e-160", "--seed", "7", "--json", "-"],
    ["verify", "--seed", "7", "--delta", "0.3", "--foliation-out", "{d}/fol.csv",
     "--json", "{d}/report.json"],
    ["meridian", "--figure1", "--out-prefix", "{d}/m"],
    ["isoperim", "--seed", "7", "--n", "5", "--out-prefix", "{d}/iso"],
    *(["verify", "--grid", "--seed", str(k), "--json", "-"] for k in range(10)),
    # the stress grid, where specs of large curvature fail their own checks (exit 1)
    *(["verify", "--epsilon", e, f"--sigma={s}", "--R", R, "--seed", "7", "--json", "-"]
      for e in ("1e-6", "1e-3", "0.01", "0.1", "1", "10", "1e3")
      for s in ("-4", "0", "0.25", "1", "4")
      for R in ("1e-3", "0.1", "1", "10", "1e3")),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def line(argv: list[str]) -> str:
    """`cli.main(argv)` run in a new temporary directory, as one line of hashes."""
    with tempfile.TemporaryDirectory() as d:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.replace("{d}", d) for a in argv])
        files = "".join(f"; {p.name} {_sha(p.read_bytes())}"
                        for p in sorted(pathlib.Path(d).iterdir()))
    return (f"- {' '.join(argv)}: exit {code}; stdout {_sha(out.getvalue().encode())}; "
            f"stderr {_sha(err.getvalue().encode())}{files}")


def lines() -> list[str]:
    return [line(argv) for argv in CORPUS]


if __name__ == "__main__":
    print("\n".join(lines()))
