"""The benchmark's four workloads: seeded job lists and output checks.

A job is one in-process call of the CLI (`meridian`, `isoperim`,
`verify`) or one rung of the sub-Riemannian ladder run through the
library API (`sublimit`).  `build` returns one round of jobs; a run
repeats that round, so every run of a workload attempts whole rounds of
the same jobs.  Each check compares a job's output with `oracle`, or
with a property the method must have, never with stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle
from heisenberg_cmc import cli, isoperimetry, sphere
from heisenberg_cmc.ambient import ModelParams, Point

WORKLOADS = ("meridian", "isoperim", "verify", "sublimit")

# Wall time of one round on the reference machine (README).  A run of
# `seconds` repeats the round round(seconds / NOMINAL_ROUND_S) times, at
# least MIN_ROUNDS, so the job list depends only on the seed and the run
# length, and every job is timed often enough for its fastest repetition
# to be a steady figure.
NOMINAL_ROUND_S = {"meridian": 4.5, "isoperim": 1.4, "verify": 3.0, "sublimit": 1.3}
MIN_ROUNDS = 5


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable[[Path], Any]
    check: Callable[[Any, Path], list[str]]
    fault: str | None = None  # the known program fault this job shows


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))


def _g(x: float) -> str:
    """Four significant digits, so argv stays readable and exact."""
    return f"{x:.4g}"


def _csv(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def _rel(a, b, scale) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def cli_job(argv: list[str], check, fault: str | None = None) -> Job:
    """A CLI call; "{out}" in argv becomes the job's output directory."""

    def run(out: Path):
        args = [a.replace("{out}", str(out)) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        return code, stdout.getvalue(), stderr.getvalue()

    def checked(result, out: Path) -> list[str]:
        code, _, stderr = result
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[:200]}"]
        return check(result, out)

    return Job(" ".join(argv), run, checked, fault)


# ----------------------------------------------------------------- meridian

# Seeded draws pick meridians from a fixed pool: CANDIDATES points around
# each design point of a 3 x 3 grid over eps in [0.1, 2] and sigma in
# [0.25, 4] (R in [0.5, 4]), each parameter scaled by a factor in
# [0.9, 1.1].  DRAWS draws per design point keep the work of a round nearly
# the same for every seed, while the inputs still change with it.
POOL_SEED = 1611_09215
DESIGN_EPS = (0.15, 0.45, 1.3)
DESIGN_SIGMA = (0.4, 1.0, 2.5)
DESIGN_R = (0.7, 1.4, 2.8)
CANDIDATES = 6
DRAWS = 2
DRAW_STEP_FRAC = 1e-2
# Indices of the pool points whose meridian at DRAW_STEP_FRAC hits F1 (an
# RK4 step lands outside the rim near the equator and is kept
# unprojected).  They run in every round as jobs of their own, counted
# as failed, and the seed draws from the other pool points: a failing
# draw would make the failed share depend on the seed.  The benchmark's
# tests check this set against the program.
F1_POOL_POINTS = frozenset({15, 19, 27, 45, 50})

# Problems a job tagged with a known fault may show; any other problem
# makes the run incorrect.  F1 leaves points off the sphere, and with them
# the frame velocities off unit norm.  F3 raises NumericsError.
FAULT_PROBLEMS = {
    "F1": ("sample off the sphere", "frame velocity off unit norm"),
    "F3": ("NumericsError",),
}


def fault_explains(fault: str | None, problems: list[str]) -> bool:
    """True when the job's known fault accounts for every problem it shows."""
    allowed = FAULT_PROBLEMS.get(fault)
    return allowed is not None and all(p.startswith(allowed) for p in problems)


def _jitter(rng: np.random.Generator, x: float) -> float:
    return float(_g(x * math.exp(rng.uniform(math.log(0.9), math.log(1.1)))))


def meridian_pool() -> list[tuple[int, float, float, float]]:
    """(design point, eps, sigma, R) for every pool point, in a fixed order."""
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for i, eps in enumerate(DESIGN_EPS):
        for j, sigma in enumerate(DESIGN_SIGMA):
            R = DESIGN_R[(i + j) % 3]
            for _ in range(CANDIDATES):
                pool.append((3 * i + j, _jitter(rng, eps), _jitter(rng, sigma), _jitter(rng, R)))
    return pool


def check_meridian(eps: float, sigma: float, R: float, step_frac: float,
                   start_frac: float = 0.02):
    def check(result, out: Path) -> list[str]:
        s, x, y, t, vx, vy, vt = _csv(out / "m.csv").T
        problems = []
        r = np.hypot(x, y)
        drift = _rel(np.abs(t), oracle.profile(eps, sigma, R, np.minimum(r, R)), max(1.0, R))
        if drift > 1e-10:
            problems.append(f"sample off the sphere by {drift:.2e} (relative to max(1, R))")
        f0 = float(oracle.profile(eps, sigma, R, 0.0))
        if _rel([x[-1], y[-1], t[-1]], [0.0, 0.0, -f0], max(1.0, f0)) > 1e-12:
            problems.append("curve does not end at the south pole (0, 0, -f(0; R))")
        r0 = start_frac * R
        if _rel([x[0], y[0], t[0]], [r0, 0.0, oracle.profile(eps, sigma, R, r0)],
                max(1.0, f0)) > 1e-12:
            problems.append("curve does not start at the requested point")
        speed_err = float(np.max(np.abs(np.sqrt(vx * vx + vy * vy + vt * vt) - 1.0)))
        if speed_err > 1e-10:
            problems.append(f"frame velocity off unit norm by {speed_err:.2e}")
        if _rel(np.diff(s), step_frac * R, step_frac * R) > 1e-9:
            problems.append("arclength samples are not spaced by the step")
        summary = json.loads(result[1])
        vertices = sum(line.startswith("v ") for line in (out / "m.obj").read_text().splitlines())
        if not summary["samples"] == vertices == len(s):
            problems.append("sample counts of the summary, CSV and OBJ differ")
        return problems

    return check


def meridian_job(eps, sigma, R, step_frac=None, figure1=False, fault=None) -> Job:
    argv = ["meridian"]
    argv += ["--figure1"] if figure1 else ["--epsilon", _g(eps), "--sigma", _g(sigma), "--R", _g(R)]
    sf = 5e-4
    if step_frac is not None:
        argv += ["--step-frac", _g(step_frac)]
        sf = step_frac
    argv += ["--out-prefix", "{out}/m"]
    return cli_job(argv, check_meridian(eps, sigma, R, sf), fault)


def meridian_round(rng: np.random.Generator, quick: bool) -> list[Job]:
    pool = meridian_pool()
    fixed = [
        meridian_job(0.5, 0.5, 2.0, 4e-3, figure1=True),
        # F1, at the default step: drift 8e-4 and geodesic residual 1.06
        meridian_job(0.02, 1.0, 1.0, fault="F1"),
    ]
    fixed += [meridian_job(*pool[k][1:], DRAW_STEP_FRAC, fault="F1")
              for k in sorted(F1_POOL_POINTS)]
    drawable = [p for k, p in enumerate(pool) if k not in F1_POOL_POINTS]
    draws = []
    for design in range(len(DESIGN_EPS) * len(DESIGN_SIGMA)):
        members = [p for p in drawable if p[0] == design]
        for k in rng.choice(len(members), DRAWS, replace=False):
            _, eps, sigma, R = members[k]
            draws.append(meridian_job(eps, sigma, R, DRAW_STEP_FRAC))
    if quick:
        return fixed[1:2] + draws[:1]
    return fixed + draws


# ----------------------------------------------------------------- isoperim

# (eps, sigma, R, delta / R): two suites with delta = 0, two with delta > 0
ISOPERIM_SPECS = ((1.0, 1.0, 1.0, 0.0), (0.7, 1.5, 1.5, 0.3),
                  (1.5, 0.5, 0.8, 0.0), (1.2, 2.5, 0.6, 0.3))
ISOPERIM_N = 2


def check_isoperim(eps, sigma, R, delta, n):
    c, d = oracle.deficit_constants(eps, sigma, R)

    def check(result, out: Path) -> list[str]:
        idx, symdiff, deficit, bound, slack = _csv(out / "iso.csv").T
        summary = json.loads(result[1])
        problems = []
        if len(idx) != n:
            problems.append(f"{len(idx)} competitors written, {n} asked for")
        if np.any(symdiff <= 0.0) or np.any(deficit <= 0.0):
            problems.append("a competitor has no symmetric difference or no area excess")
        expected = d * symdiff**3 if delta == 0.0 else math.sqrt(delta) * c * symdiff**2
        if _rel(bound, expected, float(np.max(expected))) > 1e-9:
            problems.append("bound differs from the one built from C, D and f(0; R)")
        if _rel(slack, deficit - bound, float(np.max(np.abs(deficit)))) > 1e-12:
            problems.append("slack is not deficit - bound")
        if np.any(slack < 0.0):
            problems.append(f"negative slack {float(slack.min()):.3e}")
        if not abs(summary["exponent_fit"] - 2.0) <= 0.1:
            problems.append(f"deficit exponent {summary['exponent_fit']:.3f}, not about 2")
        return problems

    return check


def isoperim_round(rng: np.random.Generator, quick: bool) -> list[Job]:
    jobs = []
    for eps, sigma, R, frac in ISOPERIM_SPECS:
        delta = float(_g(frac * R))
        seed = int(rng.integers(0, 2**31))
        n = 1 if quick else ISOPERIM_N
        argv = ["isoperim", "--epsilon", _g(eps), "--sigma", _g(sigma), "--R", _g(R),
                "--delta", _g(delta), "--n", str(n), "--seed", str(seed),
                "--out-prefix", "{out}/iso"]
        jobs.append(cli_job(argv, check_isoperim(eps, sigma, R, delta, n)))
    return jobs[:2] if quick else jobs


# ------------------------------------------------------------------- verify

VERIFY_SPECS = ((1.0, 1.0, 1.0), (1.5, 1.0, 1.0), (1.0, 1.0, 2.0))  # single-spec runs that pass
# `sphere` runs draw each parameter within [0.9, 1.1] times a design point
SPHERE_DESIGN = ((0.7, 0.5, 0.8), (1.0, 2.0, 2.0), (1.6, 1.0, 3.0))


def check_report(n_specs: int):
    def check(result, out: Path) -> list[str]:
        report = json.loads((out / "report.json").read_text())
        problems = [f"{c['name']} measured {c['measured']:.3e} > {c['tolerance']:.0e}"
                    for c in report["checks"] if not c["measured"] <= c["tolerance"]]
        if not report["passed"]:
            problems.append("report does not pass")
        if report["n_specs"] != n_specs or len(report["checks"]) != 6:
            problems.append("report covers the wrong specs or checks")
        return problems

    return check


def check_foliation(delta: float):
    """The foliation run uses the default sphere, eps = sigma = R = 1."""
    report_check = check_report(1)

    def check(result, out: Path) -> list[str]:
        problems = report_check(result, out)
        deltas, r, t, u, half_div, slack = _csv(out / "fol.csv").T
        if set(deltas.tolist()) != {0.0, delta}:
            problems.append("foliation rows do not cover delta = 0 and the requested delta")
        if np.any(t >= oracle.profile(1.0, 1.0, 1.0, r)) or np.any(u <= 1.0):
            problems.append("a point below the sphere has a leaf label u <= R")
        # div V = 2 H of the leaf through the point, H = 1 / (eps u)
        if _rel(half_div * u, 1.0, 1.0) > 1e-5:
            problems.append("half the calibration divergence is not 1 / (eps u)")
        if np.any(slack < -1e-12):
            problems.append(f"vertical bound violated by {-float(slack.min()):.3e}")
        return problems

    return check


def check_sphere(eps, sigma, R, n):
    def check(result, out: Path) -> list[str]:
        problems = []
        f0 = max(1.0, float(oracle.profile(eps, sigma, R, 0.0)))
        r, f, _, _ = _csv(out / "profile.csv").T
        if len(r) != n or _rel(r, R * np.arange(n) / n, R) > 1e-15:
            problems.append("profile rows are not the grid r = R i / n")
        if _rel(f, oracle.profile(eps, sigma, R, r), f0) > 1e-11:
            problems.append("profile f differs from the paper's f(r; R)")
        r, _, euclid, pansu = _csv(out / "limits.csv").T
        if _rel(euclid, np.sqrt(R * R - r * r), max(1.0, R)) > 1e-12:
            problems.append("Euclidean limit column is not sqrt(R^2 - r^2)")
        if _rel(pansu, oracle.pansu_profile(sigma, R, r), max(1.0, sigma * R * R)) > 1e-12:
            problems.append("sub-Riemannian limit column differs from Pansu's profile")
        r, k1, k2, k0 = _csv(out / "curvature.csv").T
        ref1, ref2 = oracle.principal_curvatures(eps, sigma, R, r)
        scale = math.hypot(1.0 / (eps * R), oracle.tau(eps, sigma))
        if max(_rel(k1, ref1, scale), _rel(k2, ref2, scale)) > 1e-12:
            problems.append("principal curvatures are not H +/- rho^2/(1+rho^2) sqrt(H^2+tau^2)")
        if float(np.max(k0)) > 1e-10 * scale:
            problems.append(f"corrected operator not trace-free: {float(np.max(k0)):.2e}")
        radii, area, volume = _csv(out / "sweep.csv").T
        if not (np.all(np.diff(radii) > 0) and np.all(np.diff(area) > 0)
                and np.all(np.diff(volume) > 0)):
            problems.append("area and volume do not increase with R")
        return problems

    return check


def verify_round(rng: np.random.Generator, quick: bool) -> list[Job]:
    report = ["--json", "{out}/report.json"]
    jobs = [cli_job(["verify", "--grid", "--seed", str(int(rng.integers(0, 2**31)))] + report,
                    check_report(27))]
    delta = float(_g(rng.uniform(0.1, 0.5)))
    argv = ["verify", "--seed", str(int(rng.integers(0, 2**31))), "--delta", _g(delta),
            "--foliation-out", "{out}/fol.csv"] + report
    jobs.append(cli_job(argv, check_foliation(delta)))
    for eps, sigma, R in VERIFY_SPECS:
        argv = ["verify", "--epsilon", _g(eps), "--sigma", _g(sigma), "--R", _g(R),
                "--seed", str(int(rng.integers(0, 2**31)))] + report
        jobs.append(cli_job(argv, check_report(1)))
    for design in SPHERE_DESIGN:
        eps, sigma, R = (_jitter(rng, x) for x in design)
        n = 20 if quick else 100
        argv = ["sphere", "--epsilon", _g(eps), "--sigma", _g(sigma), "--R", _g(R),
                "--n", str(n), "--out", "{out}/profile.csv", "--limits-out", "{out}/limits.csv",
                "--curvature-out", "{out}/curvature.csv", "--sweep-out", "{out}/sweep.csv"]
        jobs.append(cli_job(argv, check_sphere(eps, sigma, R, n)))
    return [jobs[1], jobs[2], jobs[-1]] if quick else jobs


# ----------------------------------------------------------------- sublimit

LADDER = tuple(10.0**-k for k in range(6))  # eps = 1, 1e-1, ..., 1e-5
# (sigma, R) design pairs over sigma in [0.25, 4] and R in [0.5, 4]; each
# run draws both within [0.9, 1.1] times them.  Seven pairs give a round
# of 43 distinct jobs, enough for job_tail_ms to leave ten beyond it.
LADDER_DESIGN = ((0.3, 0.6), (0.5, 1.8), (0.8, 3.0), (1.2, 0.7), (1.8, 1.2), (2.6, 2.2),
                 (3.4, 3.4))
RUNG_POINTS = 5


def rung(eps: float, sigma: float, R: float, u: np.ndarray, theta: np.ndarray,
         side: np.ndarray) -> dict:
    """One rung of the limit ladder, through the public library API."""
    params = ModelParams(eps, sigma)
    spec = sphere.SphereSpec(params, R)
    r = R * u
    f = sphere.profile_height(spec, r)
    t = side * f
    radii, normals, pansu_radii = [], [], []
    for ri, ti, th in zip(r.tolist(), t.tolist(), theta.tolist()):
        radii.append(sphere.radius_field(params, ri, ti).value)
        point = Point(ri * math.cos(th), ri * math.sin(th), ti)
        normals.append(sphere.foliation_normal(params, point).as_array())
        pansu_radii.append(sphere.pansu_radius(sigma, ri, ti))
    return {
        "f": f,
        "pansu_f": sphere.pansu_profile(sigma, R, r),
        "radii": np.array(radii),
        "normals": np.array(normals),
        "pansu_radii": np.array(pansu_radii),
        "area": sphere.sphere_area(spec),
        "half_area_limit": isoperimetry.subriemannian_hemisphere_area(sigma, R),
    }


def check_rung(eps, sigma, R, u, side):
    def check(res: dict, out: Path) -> list[str]:
        problems = []
        r = R * u
        limit_f = oracle.pansu_profile(sigma, R, r)
        scale = float(np.max(limit_f))
        if _rel(res["f"], oracle.profile(eps, sigma, R, r), scale) > 1e-12:
            problems.append("profile_height differs from the paper's f(r; R)")
        if _rel(res["radii"], R, R) > 1e-10:
            problems.append(f"round trip R(r, f(r; R)) misses R by {_rel(res['radii'], R, R):.2e} R")
        norms = np.linalg.norm(res["normals"], axis=1)
        if float(np.max(np.abs(norms - 1.0))) > 1e-12:
            problems.append("foliation normal is not a unit vector")
        if np.any(np.sign(res["normals"][:, 2]) != side):
            problems.append("foliation normal does not point out of the sphere")
        allowed = oracle.limit_gap(eps, sigma, R)
        if _rel(res["radii"], res["pansu_radii"], R) > allowed:
            problems.append("radius_field is not within the eps^6 band of pansu_radius")
        if _rel(res["f"], limit_f, scale) > allowed:
            problems.append("profile_height is not within the eps^6 band of Pansu's profile")
        if _rel(res["pansu_f"], limit_f, scale) > 1e-12:
            problems.append("pansu_profile differs from the closed form")
        half = oracle.subriemannian_half_area(sigma, R)
        if abs(eps * res["area"] / 2.0 - half) / half > allowed:
            problems.append("eps * area / 2 is not within the eps^6 band of pi^2 sigma R^3 / 2")
        if abs(res["half_area_limit"] - half) / half > 1e-10:
            problems.append("subriemannian_hemisphere_area is not pi^2 sigma R^3 / 2")
        return problems

    return check


def rung_job(eps, sigma, R, u, theta, side, fault=None) -> Job:
    return Job(f"rung eps={eps:.0e} sigma={_g(sigma)} R={_g(R)}",
               lambda out: rung(eps, sigma, R, u, theta, side),
               check_rung(eps, sigma, R, u, side), fault)


def sublimit_round(rng: np.random.Generator, quick: bool) -> list[Job]:
    n = 2 if quick else RUNG_POINTS
    jobs = []
    for design in LADDER_DESIGN[:1] if quick else LADDER_DESIGN:
        sigma, R = (_jitter(rng, x) for x in design)
        u = rng.uniform(0.02, 0.98, n)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        side = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        jobs += [rung_job(eps, sigma, R, u, theta, side) for eps in LADDER]
    # F3: the radius solve raises NumericsError at eps = 1e-6, whatever the point
    u = np.linspace(0.1, 0.9, n)
    jobs.append(rung_job(1e-6, 1.0, 1.0, u, np.zeros(n), np.ones(n), fault="F3"))
    return jobs


ROUNDS = {"meridian": meridian_round, "isoperim": isoperim_round,
          "verify": verify_round, "sublimit": sublimit_round}


def build(workload: str, seed: int, quick: bool = False) -> list[Job]:
    """One round of the workload's jobs, made from the seed alone."""
    stream = WORKLOADS.index(workload)
    return ROUNDS[workload](np.random.default_rng((seed, stream)), quick)
