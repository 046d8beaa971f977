import json
import subprocess
import sys

import pytest


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "heisenberg_cmc.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def test_sphere_writes_profile_csv(tmp_path):
    out = tmp_path / "profile.csv"
    res = run_cli("sphere", "--epsilon", "1", "--sigma", "1", "--R", "1",
                  "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,f,f_r,f_R"
    assert len(lines) == 201
    summary = json.loads(res.stdout)
    assert summary["H"] == 1.0


def test_sphere_near_euclidean_area():
    res = run_cli("sphere", "--epsilon", "1", "--sigma", "1e-8", "--R", "1")
    assert res.returncode == 0
    summary = json.loads(res.stdout)
    assert abs(summary["area"] - 4.0 * 3.141592653589793) <= 1e-4


def test_sphere_missing_R_exits_2():
    res = run_cli("sphere", "--epsilon", "1")
    assert res.returncode == 2


def test_sphere_bad_value_exits_2():
    res = run_cli("sphere", "--epsilon", "-1", "--R", "1")
    assert res.returncode == 2


def test_sphere_limits_csv(tmp_path):
    out = tmp_path / "limits.csv"
    res = run_cli("sphere", "--R", "1", "--n", "50", "--limits-out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,f,euclidean,pansu"
    assert len(lines) == 51


def test_verify_default_passes(tmp_path):
    report_path = tmp_path / "report.json"
    res = run_cli("verify", "--json", str(report_path))
    assert res.returncode == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"cmc_constancy", "traceless_correction", "principal_directions",
            "curvature_identity", "calibration_bounds", "jacobi_residual"} <= names


def test_verify_streams_json_to_stdout():
    res = run_cli("verify", "--json", "-")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["passed"] is True


def test_verify_negative_control_fails():
    res = run_cli("verify", "--perturb-h", "1e-3", "--json", "-")
    assert res.returncode == 1
    report = json.loads(res.stdout)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"traceless_correction"}


def test_meridian_figure1_preset(tmp_path):
    prefix = tmp_path / "fig1"
    res = run_cli("meridian", "--figure1", "--step-frac", "1e-3",
                  "--out-prefix", str(prefix))
    assert res.returncode == 0
    summary = json.loads(res.stdout)
    assert summary["epsilon"] == 0.5 and summary["sigma"] == 0.5 and summary["R"] == 2.0
    assert summary["final_r"] <= 1e-3 * 2.0
    assert summary["final_t"] < 0.0
    assert summary["max_leaf_drift"] <= 1e-8
    csv_lines = (tmp_path / "fig1.csv").read_text().splitlines()
    assert csv_lines[0] == "s,x,y,t,vX,vY,vT"
    obj_lines = (tmp_path / "fig1.obj").read_text().splitlines()
    assert obj_lines[0].startswith("v ") and obj_lines[-1].startswith("l ")


def test_meridian_reports_pansu_deviation():
    res = run_cli("meridian", "--epsilon", "0.25", "--sigma", "1", "--R", "1",
                  "--step-frac", "2e-3")
    assert res.returncode == 0
    summary = json.loads(res.stdout)
    assert 0.0 < summary["pansu_deviation"] < 0.5


@pytest.mark.parametrize("sigma", ["0", "-1"])
def test_meridian_without_limit_sphere_reports_null_deviation(sigma):
    res = run_cli("meridian", "--sigma", sigma, "--step-frac", "2e-3")
    assert res.returncode == 0
    summary = json.loads(res.stdout)
    assert summary["sigma"] == float(sigma)
    assert summary["pansu_deviation"] is None
    assert summary["max_leaf_drift"] <= 1e-8


def test_isoperim_report(tmp_path):
    prefix = tmp_path / "iso"
    res = run_cli("isoperim", "--delta", "0.3", "--n", "4", "--seed", "7",
                  "--out-prefix", str(prefix))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["min_slack"] >= 0.0
    assert abs(report["exponent_fit"] - 2.0) <= 0.1
    lines = (tmp_path / "iso.csv").read_text().splitlines()
    assert lines[0] == "index,symdiff,deficit,bound,slack"
    assert len(lines) == 5


def test_isoperim_deterministic_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    res_a = run_cli("isoperim", "--n", "3", "--seed", "42", "--out-prefix", str(a))
    res_b = run_cli("isoperim", "--n", "3", "--seed", "42", "--out-prefix", str(b))
    assert res_a.returncode == res_b.returncode == 0
    assert res_a.stdout == res_b.stdout
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = 2.0\nsigma 1e-8\nn = 10\n")
    out = tmp_path / "p.csv"
    res = run_cli("sphere", "--R", "1", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0
    summary = json.loads(res.stdout)
    assert summary["epsilon"] == 2.0 and summary["sigma"] == 1e-8
    assert len(out.read_text().splitlines()) == 11
    # a flag overrides the file
    res2 = run_cli("sphere", "--R", "1", "--epsilon", "1.0", "--config", str(cfg))
    assert json.loads(res2.stdout)["epsilon"] == 1.0


def test_cli_runs_without_scipy(tmp_path):
    """The library needs scipy only for the tests: with every scipy import
    blocked, the CLI still runs the subcommands that integrate and solve."""
    script = f"""
import sys
sys.modules["scipy"] = None
from heisenberg_cmc import cli
out = {str(tmp_path)!r}
codes = [
    cli.main(["sphere", "--R", "1", "--sweep-out", out + "/sweep.csv"]),
    cli.main(["verify", "--foliation-out", out + "/fol.csv", "--json", out + "/report.json"]),
    cli.main(["isoperim", "--n", "2"]),
]
sys.exit(max(codes))
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 10
    assert len((tmp_path / "fol.csv").read_text().splitlines()) > 1
