"""Tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# one F1 job in the quick meridian list, one F3 rung in the quick sublimit list
QUICK_FAILED = {"meridian": 1, "isoperim": 0, "verify": 0, "sublimit": 1}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(SPEC["command"] + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_reports_every_end_to_end_metric(workload):
    result = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--quick"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert result["failed"] == QUICK_FAILED[workload]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0.0


def test_traced_run_reports_per_layer_metrics_and_repeats_counts():
    args = ("--workload", "sublimit", "--seed", "4", "--seconds", "1", "--trace", "1", "--quick")
    first, second = last_json(bench(*args)), last_json(bench(*args))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert first["metrics"]["sphere.radius_field.calls"]["value"] > 0
    assert first["metrics"]["trace.accounted_pct"]["value"] > 50.0
    counts = [k for k in first["metrics"] if k.endswith((".calls", ".points", ".samples"))]
    assert all(first["metrics"][k]["value"] == second["metrics"][k]["value"] for k in counts)


def test_known_faults_are_counted_and_the_run_goes_on(tmp_path):
    f3 = workloads.build("sublimit", 5, quick=True)[-1]
    f1 = [j for j in workloads.build("meridian", 5, quick=True) if j.fault == "F1"][0]
    healthy = workloads.build("sublimit", 5, quick=True)[0]
    records = run.run_jobs([f3, healthy, f1, healthy], 1, tmp_path)
    assert [r["fault"] for r in records] == ["F3", None, "F1", None]
    assert "NumericsError" in records[0]["problems"][0]
    assert "off the sphere" in records[2]["problems"][0]
    assert records[1]["problems"] == [] and records[3]["problems"] == []


def test_known_faults_explain_only_their_own_problems():
    assert workloads.fault_explains("F3", ["NumericsError: radius solve did not converge"])
    assert workloads.fault_explains("F1", ["sample off the sphere by 8e-04"])
    assert not workloads.fault_explains("F1", ["curve does not end at the south pole"])
    assert not workloads.fault_explains("F3", ["sample off the sphere by 8e-04"])
    assert not workloads.fault_explains(None, ["exit code 1: error"])


def test_only_the_listed_pool_points_fail_and_only_as_f1(tmp_path):
    """The seed draws from the pool points outside F1_POOL_POINTS; each must pass."""
    for k, (_, eps, sigma, R) in enumerate(workloads.meridian_pool()):
        job = workloads.meridian_job(eps, sigma, R, workloads.DRAW_STEP_FRAC)
        out = tmp_path / str(k)
        problems = job.check(run_job(job, out), out)
        if k in workloads.F1_POOL_POINTS:
            assert problems == [] or workloads.fault_explains("F1", problems), (k, problems)
        else:
            assert problems == [], (k, problems)


def test_job_list_is_made_from_the_seed():
    for workload in workloads.WORKLOADS:
        labels = [j.label for j in workloads.build(workload, 7)]
        assert labels == [j.label for j in workloads.build(workload, 7)]
        if workload != "sublimit":  # sublimit draws its points, not its labels
            assert labels != [j.label for j in workloads.build(workload, 8)]


def test_reference_speed_divides_out_the_kernel_time():
    ref = calibrate.KERNEL_REF_S
    assert calibrate.at_reference_speed(2.0, [ref, ref]) == pytest.approx(2.0)
    assert calibrate.at_reference_speed(2.0, [2 * ref] * 3) == pytest.approx(1.0)
    # time-weighted: half the span at full speed, half at half speed
    assert calibrate.at_reference_speed(2.0, [ref, 2 * ref]) == pytest.approx(1.5)


def test_sampled_span_runs_the_kernel_inside_and_leaves_it_out():
    def busy(seconds):
        t0 = run.perf_counter()
        while run.perf_counter() - t0 < seconds:
            pass
        return "done"

    t0 = run.perf_counter()
    result, error, seconds, samples = calibrate.run_sampled(busy, 0.3)
    wall = run.perf_counter() - t0
    assert result == "done" and error is None
    assert len(samples) >= 2 + 3  # before, after, and several inside
    assert 0.25 < seconds <= wall - sum(samples)
    _, error, _, samples = calibrate.run_sampled(lambda: 1 / 0)
    assert isinstance(error, ZeroDivisionError) and len(samples) == 2


def test_tail_leaves_ten_jobs_beyond_it():
    assert run.tail(list(range(39))) == (19, 50.0)
    value, pct = run.tail([float(k) for k in range(100)])
    assert value == 89.0 and pct == 90.0


def test_without_the_package_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "meridian", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ------------------------------------------------------- negative controls


def run_job(job, out: Path):
    out.mkdir(exist_ok=True)
    return job.run(out)


def perturb_csv(path: Path, row: int, column: str, delta: float) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = repr(float(rows[row + 1][col]) + delta)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_perturbed_shape_operator_is_flagged(tmp_path):
    job = workloads.cli_job(["verify", "--perturb-h", "1e-3", "--json", "{out}/report.json"],
                            workloads.check_report(1))
    result = run_job(job, tmp_path)
    assert job.check(result, tmp_path)
    problems = workloads.check_report(1)(result, tmp_path)
    assert any("traceless_correction" in p for p in problems)


def test_meridian_point_moved_off_the_sphere_is_flagged(tmp_path):
    job = workloads.meridian_job(1.0, 1.0, 1.0, 1e-2)
    result = run_job(job, tmp_path)
    assert job.check(result, tmp_path) == []
    perturb_csv(tmp_path / "m.csv", 50, "t", 1e-8)
    assert any("off the sphere" in p for p in job.check(result, tmp_path))


@pytest.mark.parametrize("column, delta, message", [
    ("bound", 1e-9, "bound differs"),
    ("slack", -1.0, "negative slack"),
])
def test_wrong_isoperimetric_row_is_flagged(tmp_path, column, delta, message):
    eps, sigma, R, d = 1.0, 1.0, 1.0, 0.3
    argv = ["isoperim", "--delta", "0.3", "--n", "2", "--seed", "1", "--out-prefix", "{out}/iso"]
    job = workloads.cli_job(argv, workloads.check_isoperim(eps, sigma, R, d, 2))
    result = run_job(job, tmp_path)
    assert job.check(result, tmp_path) == []
    perturb_csv(tmp_path / "iso.csv", 1, column, delta)
    assert any(message in p for p in job.check(result, tmp_path))


@pytest.mark.parametrize("name, column, delta, message", [
    ("profile.csv", "f", 1e-9, "profile f"),
    ("curvature.csv", "kappa1", 1e-9, "principal curvatures"),
    ("limits.csv", "pansu", 1e-9, "Pansu"),
    ("sweep.csv", "volume", -1e3, "increase"),
])
def test_wrong_sphere_table_is_flagged(tmp_path, name, column, delta, message):
    argv = ["sphere", "--epsilon", "0.8", "--sigma", "1.3", "--R", "1.7", "--n", "20",
            "--out", "{out}/profile.csv", "--limits-out", "{out}/limits.csv",
            "--curvature-out", "{out}/curvature.csv", "--sweep-out", "{out}/sweep.csv"]
    job = workloads.cli_job(argv, workloads.check_sphere(0.8, 1.3, 1.7, 20))
    result = run_job(job, tmp_path)
    assert job.check(result, tmp_path) == []
    perturb_csv(tmp_path / name, 5, column, delta)
    assert any(message in p for p in job.check(result, tmp_path))


def test_wrong_calibration_divergence_is_flagged(tmp_path):
    argv = ["verify", "--delta", "0.3", "--foliation-out", "{out}/fol.csv",
            "--json", "{out}/report.json"]
    job = workloads.cli_job(argv, workloads.check_foliation(0.3))
    result = run_job(job, tmp_path)
    assert job.check(result, tmp_path) == []
    perturb_csv(tmp_path / "fol.csv", 3, "half_div_V", 1e-3)
    assert any("divergence" in p for p in job.check(result, tmp_path))


@pytest.mark.parametrize("key, scale, message", [
    ("radii", 1.0 + 1e-8, "round trip"),
    ("normals", 1.0 + 1e-9, "unit vector"),
    ("area", 1.0 + 1e-6, "eps * area"),
])
def test_wrong_ladder_rung_is_flagged(key, scale, message):
    u, theta, side = np.array([0.3, 0.7]), np.array([0.1, 2.0]), np.array([1.0, -1.0])
    res = workloads.rung(1e-2, 1.5, 2.0, u, theta, side)
    check = workloads.check_rung(1e-2, 1.5, 2.0, u, side)
    assert check(res, None) == []
    res[key] = res[key] * scale
    assert any(message in p for p in check(res, None))
