import json
import math
import subprocess
import sys

import numpy as np
import pytest

from heisenberg_cmc import (
    DomainError,
    ModelParams,
    Point,
    SphereSpec,
    cli,
    curvature_operator,
    outer_normal,
    profile_height,
    vertical_component,
)
from heisenberg_cmc.curvature import (assemble_corrected_shape, second_fundamental_form,
                                      tangent_frame)
from heisenberg_cmc.foliation import CylinderSpec, calibration_divergence, vertical_label_bound

from conftest import sphere_point


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
    assert "foliation_rows" not in report  # only --foliation-out adds it


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


# -------------------------------------------- batched checks against scalar loops

REFERENCE_SPECS = [(1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (2.0, 0.5, 0.5)]


def _scalar_k0(spec, rng, perturb, n=40):
    worst = 0.0
    for _ in range(n):
        q = sphere_point(spec, rng)
        h = second_fundamental_form(spec, q).h.copy()
        h[0, 0] += perturb
        data = assemble_corrected_shape(spec.H, spec.params.tau, h, tangent_frame(spec, q).c)
        worst = max(worst, data.k0_norm)
    return worst


def _scalar_principal(spec, rng, n=40):
    worst = 0.0
    for _ in range(n):
        shape = second_fundamental_form(spec, sphere_point(spec, rng))
        cb, sb = math.cos(shape.beta), math.sin(shape.beta)
        for kvec, kap in (((cb, sb), shape.kappa1), ((-sb, cb), shape.kappa2)):
            res = shape.h @ np.array(kvec) - kap * np.array(kvec)
            worst = max(worst, float(np.max(np.abs(res))))
    return worst


def _scalar_curvature_identity(spec, rng, n=40):
    tau = spec.params.tau
    worst = 0.0
    for _ in range(n):
        q = sphere_point(spec, rng)
        frame = tangent_frame(spec, q)
        nvec = outer_normal(spec, q)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        scale = math.sqrt(rng.uniform(0.5, 2.0))
        v1 = scale * (math.cos(psi) * frame.X1 + math.sin(psi) * frame.X2)
        v2 = scale * (-math.sin(psi) * frame.X1 + math.cos(psi) * frame.X2)
        energy = scale * scale
        lhs = curvature_operator(spec.params, v2, v1, nvec).dot(v2)
        rhs = 4.0 * tau * tau * energy * vertical_component(v1) * vertical_component(nvec)
        den = max(abs(rhs), 0.01 * (1.0 + tau * tau) * energy)
        worst = max(worst, abs(lhs - rhs) / den)
    return worst


@pytest.mark.parametrize("eps, sigma, R", REFERENCE_SPECS)
@pytest.mark.parametrize("seed", [1, 2024, 987654321])
@pytest.mark.parametrize("batched, scalar", [
    (lambda sp, rng: cli._check_k0(sp, rng, 0.0), lambda sp, rng: _scalar_k0(sp, rng, 0.0)),
    (lambda sp, rng: cli._check_k0(sp, rng, 1e-3), lambda sp, rng: _scalar_k0(sp, rng, 1e-3)),
    (cli._check_principal, _scalar_principal),
    (cli._check_curvature_identity, _scalar_curvature_identity),
], ids=["k0", "k0_perturbed", "principal", "curvature_identity"])
def test_batched_check_matches_scalar_loop(eps, sigma, R, seed, batched, scalar):
    spec = SphereSpec(ModelParams(eps, sigma), R)
    rng_b, rng_s = np.random.default_rng(seed), np.random.default_rng(seed)
    assert batched(spec, rng_b) == pytest.approx(scalar(spec, rng_s), abs=1e-13)
    assert rng_b.uniform() == rng_s.uniform()


@pytest.mark.parametrize("seed", [1, 2024, 987654321])
def test_sampled_points_follow_the_scalar_stream(seed):
    spec = SphereSpec(ModelParams(0.5, 2.0), 1.0)
    rng_b, rng_s = np.random.default_rng(seed), np.random.default_rng(seed)
    x, y, r, t, (psi, scale2) = cli._sample_sphere_points(
        spec, rng_b, 40, ((0.0, 2.0 * math.pi), (0.5, 2.0)))
    for i in range(40):
        q = sphere_point(spec, rng_s)
        assert (x[i], y[i], t[i]) == pytest.approx((q.x, q.y, q.t), rel=0.0, abs=1e-15)
        assert r[i] == pytest.approx(q.r, rel=1e-15)
        assert (psi[i], scale2[i]) == (rng_s.uniform(0.0, 2.0 * math.pi), rng_s.uniform(0.5, 2.0))
    assert rng_b.uniform() == rng_s.uniform()


def _scalar_foliation_rows(spec, delta):
    """The --foliation-out grid point by point through the public scalar API."""
    rows = []
    for d in (0.0, delta):
        cyl = CylinderSpec(spec, d)
        for r in np.linspace(0.05, 0.9, 10) * cyl.r_cut:
            f_here = float(profile_height(spec, r))
            for frac in np.linspace(0.15, 0.85, 8):
                depth = frac * (f_here - cyl.t_cut)
                q = Point(r, 0.0, f_here - depth)
                try:
                    div, _ = calibration_divergence(cyl, q)
                    vb = vertical_label_bound(cyl, r, depth)
                except DomainError:
                    continue
                rows.append((d, r, q.t, vb.label, 0.5 * div, vb.deficit - vb.floor))
    return np.array(rows)


# the last column is the number of the 160 grid points whose stencil keeps clear
# of the sphere and inside the cylinder
@pytest.mark.parametrize("eps, sigma, R, delta, kept", [
    (1.0, 1.0, 1.0, 0.3, 160),
    (0.27, 0.08, 1.5, 1.39, 91),
    (1.0, -0.85, 0.7, 0.68, 156),
])
def test_foliation_rows_match_scalar_loop(tmp_path, eps, sigma, R, delta, kept):
    out = tmp_path / "fol.csv"
    cli.main(["verify", "--epsilon", repr(eps), "--sigma", repr(sigma), "--R", repr(R),
              "--delta", repr(delta), "--foliation-out", str(out),
              "--json", str(tmp_path / "r.json")])
    got = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    ref = _scalar_foliation_rows(SphereSpec(ModelParams(eps, sigma), R), delta)
    assert got.shape == ref.shape == (kept, 6)
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["foliation_rows"] == {"kept": kept, "grid": 160}
    assert len(report["checks"]) == 6
    for col in (0, 1, 2, 3, 5):  # delta, r, t, u, bound_slack
        assert np.array_equal(got[:, col], ref[:, col])
    assert np.max(np.abs(got[:, 4] - ref[:, 4]) / np.abs(ref[:, 4])) <= 1e-9


@pytest.mark.parametrize("argv, outputs", [
    (["verify", "--grid", "--json", "{d}/report.json"], ["report.json"]),
    (["verify", "--foliation-out", "{d}/fol.csv", "--json", "{d}/report.json"],
     ["fol.csv", "report.json"]),
    (["sphere", "--epsilon", "0.7", "--sigma", "1.3", "--R", "1.1",
      "--curvature-out", "{d}/curv.csv"], ["curv.csv"]),
], ids=["verify-grid", "verify-foliation", "sphere-curvature"])
def test_outputs_are_byte_stable_from_run_to_run(tmp_path, argv, outputs):
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        res = run_cli(*(arg.format(d=tmp_path / name) for arg in argv))
        assert res.returncode == 0, res.stderr
        runs.append([res.stdout] + [(tmp_path / name / f).read_bytes() for f in outputs])
    assert runs[0] == runs[1]
