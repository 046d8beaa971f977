import contextlib
import io
import itertools
import json
import math
import subprocess
import sys
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest

from heisenberg_cmc import (
    DomainError,
    ModelParams,
    NumericsError,
    Point,
    SphereSpec,
    cli,
    curvature,
    curvature_operator,
    outer_normal,
    profile_height,
    vertical_component,
)
from heisenberg_cmc.curvature import (_check_cmc, _check_curvature, assemble_corrected_shape,
                                      second_fundamental_form, tangent_frame)
from heisenberg_cmc.foliation import CylinderSpec, calibration_divergence, vertical_label_bound

from conftest import GRID, sphere_point


def run_cli(*args):
    """cli.main(args) in this process, its stdout, stderr and exit code
    captured as subprocess.run captures them; argparse's usage errors exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_cli_process(*args):
    """`python -m heisenberg_cmc.cli args` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "heisenberg_cmc.cli", *args],
                          capture_output=True, text=True)


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
    """The module entry point hands main's exit code to the interpreter."""
    res = run_cli_process("sphere", "--epsilon", "-1", "--R", "1")
    assert res.returncode == 2


def test_sphere_limits_csv(tmp_path):
    out = tmp_path / "limits.csv"
    res = run_cli("sphere", "--R", "1", "--n", "50", "--limits-out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,f,euclidean,pansu"
    assert len(lines) == 51


def test_sphere_limits_csv_is_even_in_sigma(tmp_path):
    """f is even in sigma, and so is the Pansu column it is compared with: the CSV at
    sigma = -1 is the one at sigma = 1, where the Pansu column was negated."""
    tables = []
    for sigma in ("-1", "1"):
        out = tmp_path / f"limits{sigma}.csv"
        res = run_cli("sphere", "--sigma", sigma, "--R", "1", "--n", "4", "--limits-out", str(out))
        assert res.returncode == 0
        tables.append(out.read_text())
    assert tables[0] == tables[1]
    assert float(tables[0].splitlines()[1].split(",")[3]) == pytest.approx(math.pi / 4, rel=1e-15)


def test_sphere_whose_tau_is_not_finite_writes_no_file(tmp_path):
    """eps = 1e-90 builds parameters, but the summary's tau is not a finite float: exit 2
    before any file is written."""
    outs = [tmp_path / name for name in ("p.csv", "l.csv", "c.csv", "s.csv")]
    res = run_cli("sphere", "--epsilon", "1e-90", "--R", "1", "--out", str(outs[0]),
                  "--limits-out", str(outs[1]), "--curvature-out", str(outs[2]),
                  "--sweep-out", str(outs[3]))
    assert res.returncode == 2
    assert "tau = sigma/eps^4 is not a finite float with eps = 1e-90" in res.stderr
    assert not any(out.exists() for out in outs)


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


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_perturbation_that_is_not_finite_is_bad_input(tmp_path, value):
    """A NaN or infinite --perturb-h, from the flag or the config file, is bad input: exit 2
    before any check, where the traceless check's measure was not finite (exit 3)."""
    config = tmp_path / "verify.cfg"
    config.write_text(f"perturb_h = {value}\n")
    for argv in (["--perturb-h", value], ["--config", str(config)]):
        res = run_cli("verify", *argv, "--json", "-")
        assert (res.returncode, res.stdout) == (cli.EXIT_BAD_INPUT, "")
        assert res.stderr == f"error: perturb_h must be a finite number, got {value}\n"


@pytest.mark.parametrize("via_config", [False, True])
def test_verify_grid_does_not_apply_the_one_sphere_options(tmp_path, via_config):
    """`--epsilon`, `--sigma` and `--R` do not apply under `--grid`: its Jacobi check ran on the
    sphere they gave, (0.01, 1, 1), which the grid does not list, and failed at 12.0 with exit 1.
    It runs on the stack's middle member, (1, 1, 1), so the report is the plain grid's."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = 0.01\n")
    given = ["--config", str(cfg)] if via_config else ["--epsilon", "0.01"]
    res = run_cli("verify", "--grid", *given, "--seed", "7", "--json", "-")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == run_cli("verify", "--grid", "--seed", "7", "--json", "-").stdout


@pytest.mark.parametrize("grid", [[], ["--grid"]], ids=["one sphere", "grid"])
def test_verify_perturbation_whose_square_overflows_fails_the_check(grid):
    """A finite --perturb-h past about 1.3e154 squares past the floats in the trace-free norm:
    the check measures |k0| = 1e200/sqrt(2) all the same and fails (exit 1) with no warning,
    where it exited 3 after a RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("verify", *grid, "--perturb-h", "1e200", "--json", "-")
    assert (res.returncode, res.stderr) == (1, "")
    checks = {c["name"]: c for c in json.loads(res.stdout)["checks"]}
    assert checks["traceless_correction"]["measured"] == 7.071067811865475e199
    assert [name for name, c in checks.items() if not c["passed"]] == ["traceless_correction"]


@pytest.mark.parametrize("eps", ["1e-45", "1e-60"])
def test_verify_where_the_second_fundamental_form_overflows_exits_3(eps):
    """tau rho^2 overflows in the closed-form h at these eps: a typed numeric
    failure, with no warning before it and no traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("verify", "--epsilon", eps, "--json", "-")
    assert res.returncode == cli.EXIT_NUMERIC
    assert res.stdout == ""
    assert res.stderr.startswith("numeric failure: the second fundamental form is not finite "
                                 f"with eps = {eps}, sigma = 1.0, R = 1.0")


@pytest.mark.parametrize("argv", [
    ["--epsilon", "0.7"], ["--epsilon", "0.3"], ["--sigma", "4"], ["--R", "0.5"],
])
def test_verify_passes_where_the_jacobi_mesh_failed(argv):
    """The Jacobi mesh's O(h^2 tau^2) error failed these specs (2.0e-3, 0.68, 2.2e-3 and 3.2e-3
    against 1e-3); the closed form leaves rounding, and every check passes."""
    res = run_cli("verify", *argv, "--json", "-")
    assert res.returncode == 0, res.stdout
    jacobi = next(c for c in json.loads(res.stdout)["checks"] if c["name"] == "jacobi_residual")
    assert jacobi["tolerance"] == 1e-3 and jacobi["measured"] <= 1e-10


def test_verify_whose_calibration_heights_are_subnormal_exits_3():
    """At eps = 1e-40 and R = 1e-200, f(r; R) is about 1e-320, so a height of the calibration
    grid rounds onto t_cut: a typed numeric failure, with no warning before it, where the
    corrected shape warned of an invalid value and the grid exited 2 as bad input."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("verify", "--epsilon", "1e-40", "--R", "1e-200", "--json", "-")
    assert res.returncode == cli.EXIT_NUMERIC
    assert res.stdout == ""
    assert res.stderr.startswith("numeric failure: the calibration grid's heights are not normal "
                                 "floats with eps = 1e-40, sigma = 1.0, R = 1e-200")


@pytest.mark.parametrize("eps, R", [(1.0, 1e-200), (1.0, 1e-300), (1e-40, 1.0)])
def test_curvature_identity_at_tiny_R_or_eps_is_rounding(eps, R, monkeypatch):
    """The check measured NaN, which verify recorded as a failed check: at tiny R, r R
    underflowed to 0 in the frame coefficient b, so X2 was infinite; at eps = 1e-40, tau^2 =
    1e320 overflowed in the curvature.  The identity reads no h, and at eps = 1e-40 the shape
    pass that the other two checks share raises (verify exits 3 there), so a stand-in of zeros
    takes its place."""
    from heisenberg_cmc import curvature

    spec = SphereSpec(ModelParams(eps, 1.0), R)
    if eps == 1e-40:
        with pytest.raises(NumericsError, match="^the second fundamental form is not finite"):
            _check_curvature(spec, np.random.default_rng(12345), 0.0)
        monkeypatch.setattr(curvature, "_shape", lambda spec, r: (
            np.zeros(np.shape(r) + (2, 2)), np.zeros(np.shape(r)), np.zeros(np.shape(r))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        measured = _check_curvature(spec, np.random.default_rng(12345), 0.0)[2]
    assert measured <= 1e-13


@pytest.mark.parametrize("grid", [[], ["--grid"]], ids=["single", "grid"])
def test_verify_whose_measure_is_not_finite_exits_3(monkeypatch, grid):
    """A check that measures NaN is a numeric failure naming the check, not a failed check."""
    monkeypatch.setattr(curvature, "_check_curvature",
                        lambda spheres, rng, perturb: (0.0, math.nan, 0.0))
    res = run_cli("verify", *grid, "--json", "-")
    assert res.returncode == cli.EXIT_NUMERIC
    assert res.stdout == ""
    assert res.stderr.startswith("numeric failure: the principal_directions check's measure is "
                                 "not finite with eps = ")
    if not grid:
        assert res.stderr.endswith("with eps = 1.0, sigma = 1.0, R = 1.0\n")


@pytest.mark.parametrize("command", ["meridian", "isoperim"])
def test_profile_overflow_exits_3(command):
    """From eps about 4.5e102 to 5.6e102 eps^3 is finite but the profile is not: meridian
    ended in a ValueError from the NaN start and isoperim in an overflow warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli(command, "--epsilon", "5e102")
    assert res.returncode == cli.EXIT_NUMERIC
    assert res.stdout == ""
    assert res.stderr == ("numeric failure: the profile height is not finite with eps = 5e+102, "
                          "sigma = 1.0, R = 1.0\n")


@pytest.mark.parametrize("spec, message", [
    # delta = 0: the quadratic bound's sd^3
    (("--epsilon", "1e-160", "--sigma=1e100", "--R", "1e3", "--delta", "0"),
     "a deficit bound is not finite with eps = 1e-160, sigma = 1e+100, R = 1000.0"),
    # delta > 0: sd^2
    (("--epsilon", "1", "--sigma=1", "--R", "1e40", "--delta", "3e39"),
     "a deficit bound is not finite with eps = 1.0, sigma = 1.0, R = 1e+40"),
    # R = 1e100: _quad's pass test formed the tolerance times the panel's width, which overflowed
    # ("overflow encountered in multiply"); it takes the panel's share of its interval first
    (("--epsilon", "1", "--sigma=0", "--R", "1e100", "--delta", "0"),
     "a deficit constant is not finite with eps = 1.0, sigma = 0.0, R = 1e+100"),
], ids=["cube", "square", "quad"])
def test_isoperim_past_the_floats_exits_3_with_no_warning(spec, message):
    """A deficit bound whose symmetric difference's cube or square overflows was a Python float
    power, which ended in an untyped OverflowError traceback; each is typed now."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("isoperim", *spec, "--n", "3", "--seed", "5")
    assert (res.returncode, res.stdout) == (cli.EXIT_NUMERIC, "")
    assert res.stderr == f"numeric failure: {message}\n"


def test_sphere_whose_curvature_overflows_writes_no_file(tmp_path):
    """The curvature table raises after the profile tables are built: exit 3 and no file."""
    outs = [tmp_path / name for name in ("p.csv", "l.csv", "c.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("sphere", "--epsilon", "1e-40", "--R", "1", "--out", str(outs[0]),
                      "--limits-out", str(outs[1]), "--curvature-out", str(outs[2]))
    assert res.returncode == cli.EXIT_NUMERIC
    assert "second fundamental form is not finite" in res.stderr
    assert not any(out.exists() for out in outs)


@pytest.mark.parametrize("argv, message", [
    (["isoperim", "--n", "0"], "competitor count must be at least 1"),
    (["isoperim", "--n", "-1"], "competitor count must be at least 1"),
    (["isoperim", "--n", "2", "--seed", "-1"], "seed must be a non-negative integer"),
    (["verify", "--seed", "-1"], "seed must be a non-negative integer"),
    (["sphere", "--R", "1", "--n", "0"], "profile row count must be at least 1"),
    (["sphere", "--R", "1", "--n", "-1"], "profile row count must be at least 1"),
    (["sphere", "--R", "1", "--sweep-n", "0"], "sweep count must be at least 1"),
    (["sphere", "--R", "1", "--sweep-n", "-2"], "sweep count must be at least 1"),
    # past `_numerics._MAX_SAMPLES`, before an array is asked for: numpy's untyped
    # _ArrayMemoryError ended these runs, with exit 1, a failed check's code, for isoperim
    (["sphere", "--R", "1", "--n", "10000000000000"],
     "profile row count must be at least 1 and at most 2097152, got 10000000000000"),
    (["sphere", "--R", "1", "--sweep-n", "10000000000000"],
     "sweep count must be at least 1 and at most 2097152, got 10000000000000"),
    (["isoperim", "--n", "10000000000000"],
     "competitor count must be at least 1 and at most 2097152, got 10000000000000"),
])
def test_bad_counts_and_seeds_exit_2(capsys, argv, message):
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    assert message in capsys.readouterr().err


def test_verify_where_eps_R_underflows_exits_3():
    """At eps = 1e-40 and R = 1e-300, eps R underflows to 0: H = 1/(eps R) is a typed numeric
    failure with no warning, where a ZeroDivisionError traceback exited 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("verify", "--epsilon", "1e-40", "--R", "1e-300", "--json", "-")
    assert res.returncode == cli.EXIT_NUMERIC
    assert res.stdout == ""
    assert res.stderr == ("numeric failure: the mean curvature 1/(eps R) is not finite with "
                          "eps = 1e-40, sigma = 1.0, R = 1e-300\n")


def test_verify_at_sigma_0_and_R_1e160_passes_with_no_warning():
    """At sigma = 0 and R = 1e160, g^2 overflowed in the Jacobi modes, and `verify` exited 3 after
    two RuntimeWarnings; every check is now finite and passes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("verify", "--sigma", "0", "--R", "1e160", "--json", "-")
    assert res.returncode == cli.EXIT_OK and res.stderr == ""
    report = json.loads(res.stdout)
    assert report["passed"] and len(report["checks"]) == 6


def test_verify_at_R_1e_200_stops_at_the_jacobi_potential():
    """Every check before it is finite at R = 1e-200; |h|^2, of order 1/R^2, is past the floats,
    so the one Jacobi pass raises the potential's NumericsError."""
    res = run_cli("verify", "--R", "1e-200", "--json", "-")
    assert res.returncode == cli.EXIT_NUMERIC
    assert res.stdout == ""
    assert res.stderr == ("numeric failure: the Jacobi potential is not finite with eps = 1.0, "
                          "sigma = 1.0, R = 1e-200\n")


@pytest.mark.parametrize("count", [["--n", "0"], ["--sweep-n", "-2"]])
def test_sphere_bad_count_writes_no_csv(tmp_path, count):
    out, sweep = tmp_path / "profile.csv", tmp_path / "sweep.csv"
    argv = ["sphere", "--R", "1", "--out", str(out), "--sweep-out", str(sweep)] + count
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    assert not out.exists() and not sweep.exists()


@pytest.mark.parametrize("option, value", [("--sweep-min", "inf"), ("--sweep-max", "inf"),
                                           ("--sweep-max", "nan")])
def test_sphere_sweep_bound_that_is_not_finite_is_bad_input(tmp_path, option, value):
    """An infinite bound warned inside np.linspace, then blamed its NaN radius as a bad R."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("sphere", "--R", "1", option, value, "--sweep-out", str(tmp_path / "s.csv"))
    assert res.returncode == cli.EXIT_BAD_INPUT
    assert res.stdout == ""
    assert res.stderr == f"error: {option} must be a finite number, got {float(value)!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_parser_is_shared_without_leaking_options(tmp_path):
    grid, plain = tmp_path / "grid.json", tmp_path / "plain.json"
    assert cli.main(["verify", "--grid", "--json", str(grid)]) == cli.EXIT_OK
    assert cli.main(["verify", "--json", str(plain)]) == cli.EXIT_OK
    assert json.loads(grid.read_text())["n_specs"] == 27
    assert json.loads(plain.read_text())["n_specs"] == 1


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
    table = np.loadtxt(tmp_path / "fig1.csv", delimiter=",", skiprows=1)
    sidecar = json.loads((tmp_path / "fig1.json").read_text())
    assert np.array_equal(np.column_stack((sidecar["s"], sidecar["points"],
                                           sidecar["velocities"])), table)


@pytest.mark.parametrize("step_frac", ["0", "-0.01", "nan"])
def test_meridian_rejects_bad_step(capsys, step_frac):
    assert cli.main(["meridian", "--step-frac", step_frac]) == cli.EXIT_BAD_INPUT
    assert "step must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["1e-6", "1e-3"])
def test_meridian_runs_in_the_subriemannian_limit(tmp_path, eps):
    """The default step, 5e-4 R, is long against the whole curve (pi eps R):
    at eps = 1e-6 the output is the start and the pole.  The checks run on
    their own curve."""
    prefix = tmp_path / "m"
    res = run_cli("meridian", "--epsilon", eps, "--out-prefix", str(prefix))
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout)
    assert summary["max_leaf_drift"] <= 1e-12
    assert summary["final_r"] == 0.0 and summary["final_t"] < 0.0
    # geodesic_residual is eps R times a curvature-sized quantity, so it is scale-free
    assert 0.0 <= summary["geodesic_residual"] <= 1e-10
    assert 0.0 <= summary["pansu_deviation"] <= 1e-8
    table = np.loadtxt(tmp_path / "m.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(table) == summary["samples"] and np.all(np.isfinite(table))


@pytest.mark.parametrize("eps", ["1e-60", "1e-200", "1e-300"])
def test_meridian_at_tiny_eps_runs_under_warnings_as_errors(eps):
    """The geodesic residual is formed in (eps^3, sigma), so nothing in it overflows where
    tau = sigma/eps^4 and w(r)^2 would: exit 0 with finite JSON and a rounding-sized residual."""
    def not_finite(name):
        raise AssertionError(f"the summary holds {name}")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("meridian", "--epsilon", eps)
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout, parse_constant=not_finite)
    assert 0.0 <= summary["geodesic_residual"] <= 1e-10


@pytest.mark.parametrize("argv, step, count", [
    (["--epsilon", "1e100"], "0.0005", "6.24e+103"),
    (["--epsilon", "1e20", "--step-frac", "1"], "1.0", "3.12e+20"),
    (["--epsilon", "1e6"], "0.0005", "6.24e+09"),  # 50 GB, which numpy's allocator was asked for
    (["--step-frac", "1e-320"], "1e-320", "inf"),
])
def test_meridian_step_that_asks_for_more_samples_than_an_array_holds_exits_2(argv, step, count):
    """Past `meridians._MAX_SAMPLES` (2**21), before anything is allocated: np.arange raised an
    untyped ValueError at the first two counts, the third asked numpy for 50 GB, and int() of the
    fourth, infinite count raised an untyped OverflowError."""
    res = run_cli("meridian", *argv)
    assert res.returncode == cli.EXIT_BAD_INPUT
    assert res.stdout == ""
    assert res.stderr == (f"error: step = {step} asks for {count} samples, "
                          "more than an array holds\n")


@pytest.mark.parametrize("argv, message", [
    (["isoperim", "--epsilon", "1e60"], "eps^6 is not finite with eps = 1e+60, sigma = 1.0"),
    (["verify", "--epsilon", "1e60"], "eps^6 is not finite with eps = 1e+60, sigma = 1.0"),
    (["isoperim", "--R", "1e62"],
     "a deficit constant is not finite with eps = 1.0, sigma = 1.0, R = 1e+62"),
])
def test_float_power_past_the_largest_float_exits_3(argv, message):
    """eps**6 and R**5 raised an untyped OverflowError, a traceback and exit 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli(*argv)
    assert res.returncode == cli.EXIT_NUMERIC
    assert res.stdout == ""
    assert res.stderr == f"numeric failure: {message}\n"


def test_meridian_where_eps_R_underflows_exits_3():
    """eps R = 1e-325 underflows to 0: the typed error of `meridian_curve`, with no warning, and
    not a bad-input exit naming the check step pi eps R/512 = 0.0, which the user never gave."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("meridian", "--epsilon", "1e-300", "--R", "1e-25")
    assert res.returncode == cli.EXIT_NUMERIC
    assert res.stdout == ""
    assert res.stderr == ("numeric failure: 1/(eps R) is not finite with eps = 1e-300, "
                          "sigma = 1.0, R = 1e-25\n")


@pytest.mark.parametrize("eps", ["1e-320", "5e-324"])
def test_meridian_where_eps_R_is_subnormal_exits_3(eps):
    """step/(eps R) = inf: at 1e-320 the grid phi0 + inf * 0 was NaN and empty, an untyped
    IndexError; at 5e-324 the check step pi eps R/512 = 0.0, which the user never gave, was
    blamed as bad input.  Now the output step's typed 1/(eps R) error, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("meridian", "--epsilon", eps)
    assert res.returncode == cli.EXIT_NUMERIC
    assert res.stdout == ""
    assert res.stderr == (f"numeric failure: 1/(eps R) is not finite with eps = {float(eps)!r}, "
                          "sigma = 1.0, R = 1.0\n")


@pytest.mark.parametrize("sigma, message", [
    # the limit leaf's g/(r R) is inf/inf at subnormal sigma: it warned of an invalid divide
    ("1e-320", "the Pansu deviation"), ("5e-324", "the Pansu deviation"),
    # f past the floats near the poles: the curve's profile pass warned of an overflow in add
    ("1e308", "the profile height"),
])
def test_meridian_raises_its_typed_error_with_no_warning_first(sigma, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("meridian", "--sigma", sigma)
    assert res.returncode == cli.EXIT_NUMERIC
    assert res.stdout == ""
    assert res.stderr == (f"numeric failure: {message} is not finite with eps = 1.0, "
                          f"sigma = {float(sigma)!r}, R = 1.0\n")


def test_isoperim_over_eps_and_R_from_1e_300_to_1e300_exits_cleanly():
    """isoperim at sigma = 1, delta = 0.3 R and n = 2 over eps and R each in 11 decades from
    1e-300 to 1e300: every run exits 0, 1, 2 or 3 with no warning, which would raise here, and no
    removing amplitude is inf, as amp_add c1 w1 / (c2 w2) would be at R >= 1e100 (and 0/0 at
    R <= 1e-200) but for the bump masses in units of a power of four next to r_cut.  The 13 specs
    where f(0; R) is 0 or subnormal (R <= 1e-160 at eps <= 1e-100, and eps = 1e-20 at R = 1e-300)
    exit 3 with the competitors' typed error, where they read a head room of 0 or a subnormal
    and exited 2 as bad input."""
    values = ["1e-300", "1e-200", "1e-160", "1e-100", "1e-20", "1", "1e20", "1e100", "1e150",
              "1e200", "1e300"]
    underflowed = {(eps, R) for eps in values[:4] for R in values[:3]} | {("1e-20", "1e-300")}
    codes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps, R in itertools.product(values, values):
            res = run_cli("isoperim", "--epsilon", eps, "--sigma", "1", "--R", R,
                          "--delta", repr(0.3 * float(R)), "--n", "2")
            assert res.returncode in (0, 1, 2, 3), (eps, R)
            assert "amplitude inf" not in res.stderr, (eps, R)
            if (eps, R) in underflowed:
                assert res.returncode == cli.EXIT_NUMERIC, (eps, R)
                assert res.stderr == (f"numeric failure: the competitors' heights are not normal "
                                      f"floats with eps = {float(eps)!r}, sigma = 1.0, "
                                      f"R = {float(R)!r}\n")
            codes.append(res.returncode)
    assert len(codes) == 121 and codes.count(0) == 6


def test_meridian_where_eps3_is_subnormal_at_sigma_0_exits_3():
    """m(r) = eps^3 is below the normal floats: `meridian_curve`'s typed error, with no warning
    before it and no report (a report with a NaN residual is not JSON)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("meridian", "--epsilon", "2e-108", "--sigma", "0")
    assert res.returncode == cli.EXIT_NUMERIC
    assert res.stdout == ""
    assert res.stderr == ("numeric failure: the meridian field is not finite with eps = 2e-108, "
                          "sigma = 0.0, R = 1.0\n")


@pytest.mark.parametrize("frac", ["0.02", "0.999999"])
def test_meridian_from_an_underflowed_start_exits_3(frac):
    """m(r0) underflows to 0, so the start's fos is 0: the meridian field's typed error, where the
    chart's t / fos was an untyped ZeroDivisionError (exit 1), with no warning before it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("meridian", "--epsilon", "1e-120", "--sigma", "1e-300", "--R", "1e-200",
                      "--start-radius-frac", frac)
    assert res.returncode == cli.EXIT_NUMERIC
    assert res.stdout == ""
    assert res.stderr == ("numeric failure: the meridian field is not finite with eps = 1e-120, "
                          "sigma = 1e-300, R = 1e-200\n")


@pytest.mark.parametrize("sigma, R", [("-1", "1e-153"), ("-1", "1e-156"), ("-1", "1e-200"),
                                      ("1", "1e-200"), ("0", "1e-200")])
def test_meridian_where_r_R_is_below_the_normal_floats_exits_0(tmp_path, sigma, R):
    """The field and the residual take r R and r^2 in units of R, so where r R leaves the normal
    floats they keep their digits: exit 0 with no warning, the residual at rounding and finite
    curve files (a rule on r R refused these with exit 3)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("meridian", "--sigma", sigma, "--R", R, "--out-prefix", str(tmp_path / "m"))
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout)
    assert 0.0 <= summary["geodesic_residual"] <= 1e-14
    assert summary["max_leaf_drift"] <= 1e-12 * float(R)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "m.json", "m.obj"]
    assert np.all(np.isfinite(np.loadtxt(tmp_path / "m.csv", delimiter=",", skiprows=1)))


@pytest.mark.parametrize("R", ["1e-100", "1e-140"])
def test_meridian_on_a_tiny_sphere_whose_r_R_is_normal_runs_under_warnings_as_errors(R):
    """Where r R stays in the normal floats the rule does not fire: exit 0, and eps R times the
    residual is scale-free, so it stays at rounding."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("meridian", "--sigma", "-1", "--R", R)
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout)
    assert summary["max_leaf_drift"] <= 1e-12 * float(R)
    assert 0.0 <= summary["geodesic_residual"] <= 1e-12


@pytest.mark.parametrize("sigma", ["0", "1e-300"])
@pytest.mark.parametrize("R", ["1.4e154", "1e200", "1e300"])
def test_meridian_where_r_R_passes_the_largest_float_runs_under_warnings_as_errors(
        tmp_path, sigma, R):
    """Where r R overflows, the field's lam = g/(r R) rounded to 0 and the residual's R/r^2 to -0:
    `geodesic_residual` read 9.65 at R = 1e155 and 0.99999 from R = 1e160, after three overflow
    warnings.  Both take r R and r^2 in units of R, so the residual stays at rounding."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("meridian", f"--sigma={sigma}", "--R", R, "--out-prefix", str(tmp_path / "m"))
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout)
    assert all(math.isfinite(v) for v in summary.values() if isinstance(v, float))
    assert 0.0 <= summary["geodesic_residual"] <= 1e-12
    curve = json.loads((tmp_path / "m.json").read_text())
    assert np.isfinite(curve["points"]).all() and np.isfinite(curve["velocities"]).all()


@pytest.mark.parametrize("argv", [[], ["--figure1"], ["--epsilon", "0.02"],
                                  ["--epsilon", "0.7", "--sigma", "-1.3", "--R", "1.1"]])
def test_meridian_checks_do_not_depend_on_step_frac(argv):
    """geodesic_residual and pansu_deviation come from the check curve of the same pass, whose
    step is pi eps R / 512 whatever --step-frac asks of the output curve."""
    reports = [json.loads(run_cli("meridian", *argv, "--step-frac", frac).stdout)
               for frac in ("5e-4", "1e-2", "0.37", "100")]
    assert reports[0]["samples"] > reports[1]["samples"] > reports[-1]["samples"] == 2
    for key in ("geodesic_residual", "pansu_deviation"):
        assert len({repr(rep[key]) for rep in reports}) == 1, key


@pytest.mark.parametrize("eps, R", [("1e-160", "1e-160"), ("1e-80", "1e160")])
def test_verify_whose_cmc_stencil_leaves_the_floats_exits_3(eps, R):
    """The CMC stencil warned of overflows before the typed error, and so died under -W error:
    at eps = R = 1e-160, where H = 1/(eps R) is not a float, verify then exited 2 on tau, and
    at eps = 1e-80, R = 1e160, where f overflows, 3 on the profile."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("verify", "--epsilon", eps, "--R", R)
    assert res.returncode == cli.EXIT_NUMERIC
    assert res.stdout == ""
    assert res.stderr == ("numeric failure: the finite-difference mean curvature is not finite "
                          f"with eps = {eps}, sigma = 1.0\n")


def test_curve_files_have_the_bytes_of_csv_and_json_writers(tmp_path):
    """One repr per float makes the row strings of s, points and velocities, and the three files
    are joins of them; the CSV and the JSON sidecar are what csv.writer and json.dumps write for
    the same floats, for a 2-sample curve (the start and the pole) too."""
    import csv
    from heisenberg_cmc.meridians import MeridianCurve

    values = np.array([-0.0, 5e-324, 1e300, 2.0, -1.5e-7, 0.1, 1 / 3, -2.2250738585072014e-308,
                       1.7976931348623157e308, 123456789.0, 1e16, 1e-5, 3.0, -7.25])
    for rows in (6, 2):
        table = np.resize(values, (rows, 7))
        curve = MeridianCurve(R=2.0, s=table[:, 0], points=table[:, 1:4], velocities=table[:, 4:])
        cli._write_curve(str(tmp_path / "m"), curve)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s", "x", "y", "t", "vX", "vY", "vT"])
            writer.writerows(table.tolist())
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        sidecar = json.dumps({"R": 2.0, "s": curve.s.tolist(), "points": curve.points.tolist(),
                              "velocities": curve.velocities.tolist()}) + "\n"
        assert (tmp_path / "m.json").read_text() == sidecar
        obj = "".join(f"v {x!r} {y!r} {t!r}\n" for x, y, t in curve.points.tolist())
        obj += "l " + " ".join(map(str, range(1, rows + 1))) + "\n"
        assert (tmp_path / "m.obj").read_text() == obj
    # the exponent forms of repr carry no ',' or ' ' for the joins to split on
    assert cli._rows(np.array([[1e16, 5e-324, -1.5e-7]])) == ["1e+16,5e-324,-1.5e-07"]


@pytest.mark.parametrize("rows", [0, 1, 5])
def test_csv_files_have_the_bytes_of_csv_writer(tmp_path, rows):
    """The one CSV writer of the CLI writes what csv.writer writes: CRLF lines, floats by repr,
    non-finite floats, exponent forms and empty tables included, whether a table's row strings
    come from one `_rows` pass or from several put side by side."""
    import csv

    values = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1,
              1e16, -1.5e-7, 1e-5, 123456789.0]
    table = np.resize(np.array(values), (rows, 4))
    header = ["a", "b", "c", "d"]
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table.tolist())
    cli._write_csv(str(tmp_path / "t.csv"), header, cli._rows(table))
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    cli._write_csv(str(tmp_path / "t.csv"), header, cli._rows(table[:, 0]),
                   cli._rows(table[:, 1], table[:, 2]), cli._rows(table[:, 3:]))
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("tables", [("out", "limits-out", "curvature-out", "sweep-out"),
                                    ("curvature-out",), ("limits-out", "sweep-out")])
def test_sphere_tables_have_the_bytes_of_one_cells_pass_a_table(tmp_path, tables):
    """`sphere` makes the row strings of r and f once for all its tables; each CSV has the bytes
    csv.writer writes for its own table, whichever tables are asked for."""
    import csv

    from heisenberg_cmc import (euclidean_profile, pansu_profile, profile_height_R,
                                profile_height_r, sphere_area, sphere_volume)
    from heisenberg_cmc.curvature import _frame_coefficients, _shape

    spec, n = SphereSpec(ModelParams(0.7, -0.5), 0.8), 37
    rs = spec.R * np.arange(n) / n
    f = profile_height(spec, rs)
    h, kappa1, kappa2 = _shape(spec, rs)
    k0 = assemble_corrected_shape(spec.H, spec.params.tau, h, _frame_coefficients(spec, rs, f)[2])
    sweep = [SphereSpec(spec.params, float(R)) for R in np.linspace(0.4, 1.6, 9)]
    want = {
        "out": (["r", "f", "f_r", "f_R"], np.column_stack(
            (rs, f, profile_height_r(spec, rs), profile_height_R(spec, rs)))),
        "limits-out": (["r", "f", "euclidean", "pansu"], np.column_stack(
            (rs, f, euclidean_profile(spec.R, rs), pansu_profile(0.5, spec.R, rs)))),
        "curvature-out": (["r", "kappa1", "kappa2", "k0_norm"],
                          np.column_stack((rs, kappa1, kappa2, k0.k0_norm))),
        "sweep-out": (["R", "area", "volume"],
                      np.array([(s.R, sphere_area(s), sphere_volume(s)) for s in sweep])),
    }
    argv = ["sphere", "--epsilon", "0.7", "--sigma", "-0.5", "--R", "0.8", "--n", str(n)]
    res = run_cli(*argv, *(a for name in tables for a in (f"--{name}", str(tmp_path / name))))
    assert res.returncode == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(tables)
    for name in tables:
        header, rows = want[name]
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows.tolist())
        assert (tmp_path / name).read_bytes() == (tmp_path / "ref.csv").read_bytes(), name
        (tmp_path / "ref.csv").unlink()


@pytest.mark.parametrize("argv, path", [
    (["meridian", "--out-prefix", "{d}/m"], "{d}/m.csv"),
    (["sphere", "--R", "1", "--out", "{d}/s.csv"], "{d}/s.csv"),
    (["verify", "--json", "{d}/r.json"], "{d}/r.json"),
    (["verify", "--foliation-out", "{d}/f.csv"], "{d}/f.csv"),
    (["isoperim", "--n", "2", "--out-prefix", "{d}/i"], "{d}/i.csv"),
], ids=["meridian-out-prefix", "sphere-out", "verify-json", "verify-foliation-out",
        "isoperim-out-prefix"])
def test_output_path_that_cannot_be_opened_exits_2(tmp_path, argv, path):
    """An output path in a directory that does not exist raised FileNotFoundError, a traceback
    and exit 1 ("check failed"); it is bad input, named with its reason, and no file is made."""
    d = tmp_path / "missing"
    res = run_cli(*(a.format(d=d) for a in argv))
    assert res.returncode == cli.EXIT_BAD_INPUT
    assert res.stdout == ""
    assert res.stderr == f"error: cannot write {path.format(d=d)!r}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_meridian_whose_pansu_deviation_overflows_exits_3():
    """eps^3 v_T squares past the largest float in the deviation's norm: the report said
    "pansu_deviation": Infinity, which is not JSON, and died under -W error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("meridian", "--epsilon", "1e100", "--step-frac", "1e103")
    assert res.returncode == cli.EXIT_NUMERIC
    assert "Infinity" not in res.stdout and res.stdout == ""
    assert res.stderr == ("numeric failure: the Pansu deviation is not finite with eps = 1e+100, "
                          "sigma = 1.0, R = 1.0\n")


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


@pytest.mark.parametrize("eps, sigma, R, delta", [
    ("1", "1", "1", "0"), ("0.7", "1.5", "1.5", "0.45"), ("1.5", "0.5", "0.8", "0"),
    ("1.2", "2.5", "0.6", "0.18")])
def test_isoperim_exponent_fit_is_the_least_squares_slope_to_50_digits(eps, sigma, R, delta):
    """exponent_fit, the closed-form slope through the centred log scales, is within 4e-15 of the
    least-squares slope of the log deficits the fit took, computed at 50 digits."""
    from heisenberg_cmc import isoperimetry

    reports, deficit_reports = [], isoperimetry.deficit_reports

    def keep(comps):  # the reports the CLI gets, kept
        reports[:] = deficit_reports(comps)
        return reports

    for seed in ("1", "7", "12345"):
        with mock.patch.object(isoperimetry, "deficit_reports", keep):
            res = run_cli("isoperim", "--epsilon", eps, "--sigma", sigma, "--R", R,
                          "--delta", delta, "--n", "2", "--seed", seed)
        fit = json.loads(res.stdout)["exponent_fit"]
        with mpmath.workdps(50):
            x = [mpmath.log(s) for s in np.geomspace(2e-4, 2e-3, 6).tolist()]
            y = [mpmath.log(rep.deficit) for rep in reports[2:]]
            xm, ym = sum(x) / 6, sum(y) / 6
            slope = (sum((a - xm) * (b - ym) for a, b in zip(x, y))
                     / sum((a - xm) ** 2 for a in x))
            assert abs(fit - slope) <= 4e-15 * abs(slope), (seed, float(fit - slope))


@pytest.mark.parametrize("eps", ["1e5", "1e6"])
def test_isoperim_whose_fit_deficits_are_lost_to_rounding_exits_3(tmp_path, eps):
    """From about eps = 1e5 the area excess of the scaled fit competitors is lost to rounding,
    where the report held a NaN exponent, which is not JSON, and exited 1: a typed numeric
    failure naming eps, with no warning, no report and no CSV."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_cli("isoperim", "--epsilon", eps, "--out-prefix", str(tmp_path / "iso"))
    assert res.returncode == cli.EXIT_NUMERIC
    assert res.stdout == ""
    assert res.stderr == ("numeric failure: a fit deficit is not positive and finite at "
                          f"eps = {float(eps)!r}\n")
    assert not (tmp_path / "iso.csv").exists()


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


@pytest.mark.parametrize("command, line, message", [
    (("isoperim", "--n", "1"), "seed = 2.5", "config value seed = '2.5' is not an integer"),
    (("sphere", "--R", "1"), "epsilon = abc", "config value epsilon = 'abc' is not a number"),
    (("sphere", "--R", "1"), "# a comment\n\nfoo", "malformed config line: 'foo'"),
])
def test_malformed_config_value_exits_2(tmp_path, command, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    res = run_cli(*command, "--config", str(cfg))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and message in res.stderr
    assert "Traceback" not in res.stderr


def test_missing_config_file_exits_2(tmp_path):
    path = str(tmp_path / "nonexist.cfg")
    res = run_cli("sphere", "--R", "1", "--config", path)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and repr(path) in res.stderr
    assert "Traceback" not in res.stderr


def test_config_file_that_is_not_utf8_exits_2(tmp_path):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"\xff\xfe")
    res = run_cli("sphere", "--R", "1", "--config", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and repr(str(path)) in res.stderr
    assert "Traceback" not in res.stderr


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


def test_cli_import_leaves_dataclasses_and_the_subcommand_modules_unloaded():
    """A cold CLI call loads numpy, argparse, json and the profile layer; the modules of
    `sphere --curvature-out`, `verify`, `meridian` and `isoperim` load where those run."""
    later = {"dataclasses", "heisenberg_cmc.curvature", "heisenberg_cmc.foliation",
             "heisenberg_cmc.isoperimetry", "heisenberg_cmc.meridians"}
    script = f"import sys, heisenberg_cmc.cli; print(sorted({later!r} & set(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (0, "[]\n"), res.stderr


@pytest.mark.parametrize("argv", [
    ["sphere", "--R", "1", "--n", "20", "--curvature-out", "{d}/curvature.csv"],
    ["verify", "--grid", "--json", "{d}/grid.json"],
    ["verify", "--foliation-out", "{d}/fol.csv", "--json", "{d}/report.json"],
    ["meridian", "--figure1", "--out-prefix", "{d}/m"],
    ["isoperim", "--n", "3"],
], ids=lambda argv: " ".join(a for a in argv if "{d}" not in a))
def test_each_subcommand_runs_from_a_fresh_interpreter(tmp_path, argv):
    """Each subcommand imports its own modules where it runs: a missed one would fail only in a
    fresh interpreter, where no earlier call has loaded it."""
    res = run_cli_process(*(a.replace("{d}", str(tmp_path)) for a in argv))
    assert res.returncode == 0, res.stderr


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
@pytest.mark.parametrize("perturb, which", [(0.0, 0), (1e-3, 0), (0.0, 1), (0.0, 2)],
                         ids=["k0", "k0_perturbed", "principal", "curvature_identity"])
def test_batched_check_matches_scalar_loop(eps, sigma, R, seed, perturb, which):
    """`_check_curvature`'s three measures are the three scalar loops run in turn on one
    generator, and the two generators end in the same state."""
    spec = SphereSpec(ModelParams(eps, sigma), R)
    rng_b, rng_s = np.random.default_rng(seed), np.random.default_rng(seed)
    batched = _check_curvature(spec, rng_b, perturb)
    scalar = (_scalar_k0(spec, rng_s, perturb), _scalar_principal(spec, rng_s),
              _scalar_curvature_identity(spec, rng_s))
    assert batched[which] == pytest.approx(scalar[which], abs=1e-13)
    assert rng_b.bit_generator.state == rng_s.bit_generator.state
    assert rng_b.uniform() == rng_s.uniform()


class _Recording:
    """A generator's uniform draws, kept in the order they were made."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def uniform(self, *args, **kwargs):
        self.draws.append(self.rng.uniform(*args, **kwargs))
        return self.draws[-1]


class _Replay:
    """Serves the given arrays, in turn, as the uniform draws of one sphere."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def uniform(self, low, high, size):
        out = next(self.draws)
        assert out.shape == size
        return out


@pytest.mark.parametrize("seed", [1, 2024, 987654321])
def test_stacked_checks_are_the_max_of_one_sphere_checks(seed):
    """`verify --grid` runs each curvature check once over the stack of its 27 spheres: each
    value is the max of the one-sphere calls on the same points bit for bit, and the stack draws
    (27, 40, 3), (27, 40, 3) and (27, 40, 5) uniforms, each check's in turn."""
    stack = cli._Stack(members=GRID)
    rng_k, rng_1 = np.random.default_rng(seed), np.random.default_rng(seed)
    cmc = max(_check_cmc(spec, rng_1) for spec in GRID)
    assert _check_cmc(stack, rng_k).hex() == cmc.hex()
    assert rng_k.bit_generator.state == rng_1.bit_generator.state
    for perturb in (0.0, 1e-3):
        rec = _Recording(rng_k)
        stacked = _check_curvature(stack, rec, perturb)
        assert [d.shape for d in rec.draws] == [(27, 40, 3), (27, 40, 3), (27, 40, 5)]
        ones = [_check_curvature(spec, _Replay(d[j] for d in rec.draws), perturb)
                for j, spec in enumerate(GRID)]
        for i, value in enumerate(stacked):
            assert value.hex() == max(one[i] for one in ones).hex()


@pytest.mark.parametrize("seed", [1, 2024, 987654321])
def test_sampled_points_follow_the_scalar_stream(seed, monkeypatch):
    """The k0 and identity points that `_check_curvature` passes to its one height pass, and the
    identity's (x, y, t) and psi, scale^2, are those of one point at a time: 40 k0 points, 40
    principal points and 40 identity points, each with its psi and scale^2."""
    spec = SphereSpec(ModelParams(0.5, 2.0), 1.0)
    seen = {}

    def keep(name, fun):
        def wrapped(*args):
            seen[name] = args
            return fun(*args)
        monkeypatch.setattr(curvature, name, wrapped)

    keep("_height", curvature._height)
    keep("_normal_components", curvature._normal_components)
    rec, rng_s = _Recording(np.random.default_rng(seed)), np.random.default_rng(seed)
    _check_curvature(spec, rec, 0.0)
    radii = seen["_height"][1]
    x, y, t = seen["_normal_components"][1:4]
    k0 = [sphere_point(spec, rng_s) for _ in range(40)]
    principal = [sphere_point(spec, rng_s) for _ in range(40)]
    assert [q.r for q in principal] == pytest.approx(rec.draws[1][:, 0] * spec.R, rel=1e-15)
    for i in range(40):
        assert radii[i] == pytest.approx(k0[i].r, rel=1e-15)
        q = sphere_point(spec, rng_s)
        assert (x[i], y[i], t[i]) == pytest.approx((q.x, q.y, q.t), rel=0.0, abs=1e-15)
        assert radii[40 + i] == pytest.approx(q.r, rel=1e-15)
        assert (rec.draws[2][i, 3], rec.draws[2][i, 4]) == (rng_s.uniform(0.0, 2.0 * math.pi),
                                                            rng_s.uniform(0.5, 2.0))
    assert rec.rng.uniform() == rng_s.uniform()


def test_verify_makes_each_per_point_pass_once(monkeypatch):
    """One `verify` job, one spec or the grid: the three sampled curvature checks share one
    `_height`, one `_shape` and one `_frame_coefficients` pass, and the Jacobi check takes <N, T>
    from its one `_pieces` pass, with no `profile_height` call; the calibration check makes the
    other `_height` call and the Jacobi potential the other `_shape` call.  Every module's
    binding of each name is counted, so a call through any of them shows."""
    from heisenberg_cmc import curvature, foliation, isoperimetry, meridians, sphere

    names = ("_height", "_shape", "_frame_coefficients", "_pieces", "profile_height")
    calls = []
    for module in (sphere, curvature, foliation, isoperimetry, meridians, cli):
        for name in names:
            if hasattr(module, name):
                fun = getattr(module, name)
                monkeypatch.setattr(module, name,
                                    lambda *a, _f=fun, _n=name: (calls.append(_n), _f(*a))[1])
    for grid in ([], ["--grid"]):
        calls.clear()
        res = run_cli("verify", *grid, "--json", "-")
        assert res.returncode == 0, res.stderr
        assert {name: calls.count(name) for name in names} == {
            "_height": 2, "_shape": 2, "_frame_coefficients": 1, "_pieces": 6, "profile_height": 0}


def test_verify_takes_one_principal_angle_a_sphere(monkeypatch):
    """The principal directions check takes its angle from the corrected shape's alpha."""
    from heisenberg_cmc import curvature

    calls, angle = [], curvature.principal_angle
    monkeypatch.setattr(curvature, "principal_angle",
                        lambda H, tau: calls.append(H) or angle(H, tau))
    for grid, spheres in (([], 1), (["--grid"], 27)):
        calls.clear()
        assert run_cli("verify", *grid, "--json", "-").returncode == 0
        assert len(calls) == spheres


# verify's default spec, five beside it and six at small eps or extreme R, which stress its checks
FORMER_FAILURES = ["", "--epsilon 0.7", "--epsilon 0.3", "--sigma 4", "--R 0.5", "--sigma 0.25",
                   "--epsilon 0.01", "--epsilon 1e-5", "--R 1e-200", "--epsilon 1e-40 --R 1e-200",
                   "--epsilon 1e-160 --R 1e-160", "--epsilon 1e-80 --R 1e160"]


def test_verify_at_former_failures_keeps_the_exit_contract():
    """With warnings as errors, each spec exits 0 or 1 with a JSON report whose every measure is
    finite, or 3 with one `numeric failure` line and no report.  Six pass every check, the two
    at eps = 0.01 and 1e-5 fail the traceless, principal and Jacobi checks, and four exit 3."""
    def not_finite(name):
        raise AssertionError(f"the report holds {name}")

    codes = []
    for spec in FORMER_FAILURES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_cli("verify", *spec.split(), "--json", "-")
        if res.returncode == cli.EXIT_NUMERIC:
            assert res.stdout == ""
            assert res.stderr.startswith("numeric failure: ") and res.stderr.count("\n") == 1
        else:
            assert res.returncode in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED), (spec, res.stderr)
            assert res.stderr == ""
            checks = json.loads(res.stdout, parse_constant=not_finite)["checks"]
            assert all(math.isfinite(c["measured"]) for c in checks)
            assert (res.returncode == cli.EXIT_OK) == all(c["passed"] for c in checks)
        codes.append(res.returncode)
    assert codes == [0] * 6 + [1] * 2 + [3] * 4


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


def test_foliation_rows_solve_each_cylinders_labels_once(tmp_path, monkeypatch):
    """`--foliation-out` labels each cylinder's 80 grid points and their 480 stencil points in one
    leaf-label solve: the divergence's field solve takes each point as its 7th stencil row, so
    the label needs no second solve."""
    from heisenberg_cmc import foliation

    label_below, solved = foliation._label_below, []

    def counting(cyl, r, t):
        solved.append(r.size)
        return label_below(cyl, r, t)

    monkeypatch.setattr(foliation, "_label_below", counting)
    res = run_cli("verify", "--seed", "7", "--delta", "0.3", "--foliation-out",
                  str(tmp_path / "fol.csv"), "--json", str(tmp_path / "r.json"))
    assert res.returncode == 0, res.stderr
    assert solved == [560, 560]


@pytest.mark.parametrize("argv, outputs", [
    (["verify", "--grid", "--json", "{d}/report.json"], ["report.json"]),
    (["verify", "--foliation-out", "{d}/fol.csv", "--json", "{d}/report.json"],
     ["fol.csv", "report.json"]),
    (["sphere", "--epsilon", "0.7", "--sigma", "1.3", "--R", "1.1",
      "--curvature-out", "{d}/curv.csv"], ["curv.csv"]),
    (["meridian", "--epsilon", "0.7", "--sigma", "1.3", "--R", "1.1", "--step-frac", "1e-2",
      "--out-prefix", "{d}/m"], ["m.csv", "m.obj", "m.json"]),
    (["meridian", "--epsilon", "1e-6", "--step-frac", "1e-8", "--out-prefix", "{d}/m"],
     ["m.csv", "m.obj", "m.json"]),
    (["isoperim", "--n", "3", "--out-prefix", "{d}/iso"], ["iso.csv"]),
], ids=["verify-grid", "verify-foliation", "sphere-curvature", "meridian", "meridian-eps-1e-6",
        "isoperim"])
def test_outputs_are_byte_stable_from_run_to_run(tmp_path, argv, outputs):
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        res = run_cli_process(*(arg.format(d=tmp_path / name) for arg in argv))
        assert res.returncode == 0, res.stderr
        runs.append([res.stdout] + [(tmp_path / name / f).read_bytes() for f in outputs])
    assert runs[0] == runs[1]
