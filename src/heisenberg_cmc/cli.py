"""Command-line front end.

Subcommands expose the library with reproducible CSV/JSON/OBJ outputs:

    sphere    profile table, area/volume, limit-profile comparison
    verify    invariant suite with a machine-readable pass/fail report
    meridian  sample a pole-to-pole geodesic in closed form, export polyline
    isoperim  random volume-preserving competitor suite

Floats are written with repr (shortest round-trip decimal), so outputs
are bit-stable for a fixed seed and configuration.  Options may also be
given in a flat key-value config file (`--config`); command-line flags
win over the file, the file wins over defaults.  Exit codes: 0 ok,
1 check failed, 2 bad input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from .ambient import ModelParams, Point, _curvature_operator
from .curvature import (_frame_coefficients, _frame_vectors, _shape, assemble_corrected_shape,
                        principal_angle)
from .errors import ContractError, DomainError, NumericsError
from .foliation import CylinderSpec, _divergence, label_floor, leaf_label_grid
from .isoperimetry import deficit_reports, jacobi_residual, make_competitors
from .meridians import MeridianCurve, _pansu_field, meridian_curve, meridian_geodesic_residual
from .sphere import (
    SphereSpec,
    _f,
    _normal_components,
    _radius_of,
    euclidean_profile,
    graph_mean_curvature_fd,
    pansu_profile,
    profile_height,
    profile_height_R,
    profile_height_r,
    sphere_area,
    sphere_volume,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERIC = 3


def _write_csv(path: str, header: list[str], table: np.ndarray) -> None:
    """One row per row of the 2-D float table; csv writes each float by repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table.tolist())


def _json_rows(cells: np.ndarray) -> str:
    """A 2-D array of float strings as json.dumps writes the list of its rows."""
    n, k = cells.shape
    row = "[" + ", ".join(["%s"] * k) + "]"
    return "[" + (", ".join([row] * n) % tuple(cells.ravel())) + "]"


def _write_curve(prefix: str, curve: MeridianCurve) -> None:
    """<prefix>.csv, .obj and .json from one repr per float; for finite floats
    the bytes are those csv.writer and json.dumps would write."""
    table = np.column_stack((curve.s, curve.points, curve.velocities))
    n = len(table)
    cells = np.array(list(map(repr, table.ravel().tolist())), dtype=object).reshape(table.shape)
    with open(prefix + ".csv", "w", newline="") as fh:
        fh.write("s,x,y,t,vX,vY,vT\r\n")
        fh.write("%s,%s,%s,%s,%s,%s,%s\r\n" * n % tuple(cells.ravel()))
    with open(prefix + ".obj", "w") as fh:
        fh.write("v %s %s %s\n" * n % tuple(cells[:, 1:4].ravel()))
        fh.write("l " + " ".join(map(str, range(1, n + 1))) + "\n")
    with open(prefix + ".json", "w") as fh:
        fh.write('{"R": %s, "s": [%s], "points": %s, "velocities": %s}\n' % (
            json.dumps(curve.R), ", ".join(cells[:, 0]), _json_rows(cells[:, 1:4]),
            _json_rows(cells[:, 4:])))


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"cannot read the config file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise DomainError(f"the config file {path!r} is not UTF-8 text") from None
    out: dict[str, str] = {}
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, val = line.split("=", 1)
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise DomainError(f"malformed config line: {line!r}")
            key, val = parts
        out[key.strip()] = val.strip()
    return out


def _resolve(args: argparse.Namespace, defaults: dict[str, float]) -> None:
    """Fill unset options from the config file, then from defaults."""
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    for key, default in defaults.items():
        if getattr(args, key, None) is None:
            if key in cfg:
                try:
                    setattr(args, key, type(default)(cfg[key]))
                except ValueError:
                    kind = "an integer" if isinstance(default, int) else "a number"
                    raise DomainError(f"config value {key} = {cfg[key]!r} is not {kind}") from None
            else:
                setattr(args, key, default)


def _spec_from(args: argparse.Namespace) -> SphereSpec:
    return SphereSpec(ModelParams(args.epsilon, args.sigma), args.R)


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def _count(n, what: str) -> int:
    n = int(n)
    if n < 1:
        raise DomainError(f"the {what} must be at least 1, got {n}")
    return n


# ------------------------------------------------------------------- sphere


def cmd_sphere(args: argparse.Namespace) -> int:
    _resolve(args, {"epsilon": 1.0, "sigma": 1.0, "n": 200})
    spec = _spec_from(args)
    n = _count(args.n, "profile row count")
    sweep_n = _count(args.sweep_n, "sweep count")
    # open grid: the radial derivative diverges at the rim r = R
    rs = spec.R * np.arange(n) / n
    f = profile_height(spec, rs)
    if args.out:
        _write_csv(args.out, ["r", "f", "f_r", "f_R"],
                   np.column_stack((rs, f, profile_height_r(spec, rs), profile_height_R(spec, rs))))
    if args.limits_out:
        _write_csv(args.limits_out, ["r", "f", "euclidean", "pansu"], np.column_stack(
            (rs, f, euclidean_profile(spec.R, rs), pansu_profile(args.sigma, spec.R, rs))))
    if args.curvature_out:
        h, kappa1, kappa2 = _shape(spec, rs)
        c = _frame_coefficients(spec, rs, f)[2]
        k0 = assemble_corrected_shape(spec.H, spec.params.tau, h, c)
        _write_csv(args.curvature_out, ["r", "kappa1", "kappa2", "k0_norm"],
                   np.column_stack((rs, kappa1, kappa2, k0.k0_norm)))
    if args.sweep_out:
        r_lo = args.sweep_min if args.sweep_min is not None else 0.5 * spec.R
        r_hi = args.sweep_max if args.sweep_max is not None else 2.0 * spec.R
        radii = np.linspace(r_lo, r_hi, sweep_n)
        sweep = [SphereSpec(spec.params, float(R)) for R in radii]
        _write_csv(args.sweep_out, ["R", "area", "volume"],
                   np.array([(s.R, sphere_area(s), sphere_volume(s)) for s in sweep]))
    summary = {
        "epsilon": args.epsilon,
        "sigma": args.sigma,
        "tau": spec.params.tau,
        "R": spec.R,
        "H": spec.H,
        "area": sphere_area(spec),
        "volume": sphere_volume(spec),
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


# ------------------------------------------------------------------- verify


def _sample_sphere_points(spec: SphereSpec, rng: np.random.Generator, n: int, extra=(),
                          lo: float = 0.02, hi: float = 0.98):
    """x, y, r, t of n sphere points, then one column per (low, high) in `extra`;
    each row draws the radius fraction, the angle, the hemisphere and then the
    extras, one uniform each, as one draw at a time would."""
    lows, highs = zip((lo, hi), (0.0, 2.0 * math.pi), (0.0, 1.0), *extra)
    u = rng.uniform(lows, highs, size=(n, len(lows)))
    r = u[:, 0] * spec.R
    t = np.where(u[:, 2] < 0.5, 1.0, -1.0) * profile_height(spec, r)
    return r * np.cos(u[:, 1]), r * np.sin(u[:, 1]), r, t, u[:, 3:].T


def _check_cmc(spec: SphereSpec, rng: np.random.Generator, n: int = 30) -> float:
    rs = rng.uniform(0.05, 0.9, size=n) * spec.R
    h_fd = graph_mean_curvature_fd(  # the stencil stays inside (0, R): no domain check
        spec.params, lambda x: _f(spec.params, x, spec.R), rs, 1e-3 * spec.R)
    return float(np.max(np.abs(h_fd - spec.H) / spec.H))


def _check_k0(spec: SphereSpec, rng: np.random.Generator, perturb: float, n: int = 40) -> float:
    _, _, r, t, _ = _sample_sphere_points(spec, rng, n)
    h = _shape(spec, r)[0]
    h[:, 0, 0] += perturb
    c = _frame_coefficients(spec, r, t)[2]
    return float(np.max(assemble_corrected_shape(spec.H, spec.params.tau, h, c).k0_norm))


def _check_principal(spec: SphereSpec, rng: np.random.Generator, n: int = 40) -> float:
    _, _, r, _, _ = _sample_sphere_points(spec, rng, n)
    h, kappa1, kappa2 = _shape(spec, r)
    beta = principal_angle(spec.H, spec.params.tau)
    k = np.array([[math.cos(beta), -math.sin(beta)], [math.sin(beta), math.cos(beta)]])
    # column j of k is the j-th principal direction
    res = h @ k - k * np.stack((kappa1, kappa2), axis=-1)[:, None, :]
    return float(np.max(np.abs(res)))


def _check_curvature_identity(spec: SphereSpec, rng: np.random.Generator, n: int = 40) -> float:
    params, tau = spec.params, spec.params.tau
    x, y, r, t, (psi, scale2) = _sample_sphere_points(
        spec, rng, n, ((0.0, 2.0 * math.pi), (0.5, 2.0)))
    x1, x2 = _frame_vectors(x, y, *_frame_coefficients(spec, r, t))
    nvec = _normal_components(params, x, y, r, t, spec.R)
    scale, cs, sn = np.sqrt(scale2)[:, None], np.cos(psi)[:, None], np.sin(psi)[:, None]
    v1 = scale * (cs * x1 + sn * x2)
    v2 = scale * (-sn * x1 + cs * x2)
    energy = scale[:, 0] * scale[:, 0]
    lhs = np.sum(_curvature_operator(params, v2, v1, nvec) * v2, axis=-1)
    rhs = 4.0 * tau * tau * energy * v1[:, 2] * nvec[:, 2]
    den = np.maximum(np.abs(rhs), 0.01 * (1.0 + tau * tau) * energy)
    return float(np.max(np.abs(lhs - rhs) / den))


def _check_calibration(spec: SphereSpec, deltas=(0.0, 0.3), n: int = 40) -> float:
    worst_violation = -np.inf
    for delta in deltas:
        if not delta < spec.R:
            continue
        cyl = CylinderSpec(spec, delta)
        rs = np.linspace(0.0, cyl.r_cut * 0.995, n)
        f_rs = profile_height(spec, rs)
        depths = np.linspace(0.0, 0.999, n)[None, :] * (f_rs[:, None] - cyl.t_cut)
        ts = f_rs[:, None] - depths
        labels = leaf_label_grid(cyl, np.broadcast_to(rs[:, None], ts.shape), ts)
        margin = (1.0 - spec.R / labels) - label_floor(cyl, depths)
        worst_violation = max(worst_violation, float(-margin.min()))
    return worst_violation


def cmd_verify(args: argparse.Namespace) -> int:
    _resolve(args, {"epsilon": 1.0, "sigma": 1.0, "R": 1.0, "seed": 12345,
                    "perturb_h": 0.0, "delta": 0.3})
    rng = _rng(int(args.seed))
    if args.grid:
        specs = [
            SphereSpec(ModelParams(e, s), R)
            for e in (0.5, 1.0, 2.0)
            for s in (0.5, 1.0, 2.0)
            for R in (0.5, 1.0, 2.0)
        ]
    else:
        specs = [_spec_from(args)]

    checks = []

    def run(name: str, fun, tol: float, over=specs) -> None:
        measured = max(fun(spec) for spec in over)
        checks.append(
            {"name": name, "measured": measured, "tolerance": tol, "passed": bool(measured <= tol)}
        )

    run("cmc_constancy", lambda sp: _check_cmc(sp, rng), 1e-6)
    run("traceless_correction", lambda sp: _check_k0(sp, rng, float(args.perturb_h)), 1e-10)
    run("principal_directions", lambda sp: _check_principal(sp, rng), 1e-12)
    run("curvature_identity", lambda sp: _check_curvature_identity(sp, rng), 1e-10)
    run("calibration_bounds", lambda sp: _check_calibration(sp), 1e-12)
    # mesh-convergence check: its absolute tolerance is calibrated at the
    # base parameters (the truncation error scales with tau^2), so it does
    # not sweep the grid; 'y' is left out: with n divisible by 4 a quarter
    # turn maps the mesh angles onto themselves, so it repeats 'x' up to the
    # rounding of the angle table
    run("jacobi_residual", lambda sp: max(jacobi_residual(sp, w, n=400) for w in "xt"), 1e-3,
        over=[_spec_from(args)])

    report = {
        "grid": bool(args.grid),
        "n_specs": len(specs),
        "seed": int(args.seed),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    if args.foliation_out:
        spec0 = specs[0]
        fol_rows = []
        for delta in (0.0, float(args.delta)):
            cyl = CylinderSpec(spec0, delta)
            r = np.repeat(np.linspace(0.05, 0.9, 10) * cyl.r_cut, 8)
            f_here = profile_height(spec0, r)
            depth = np.tile(np.linspace(0.15, 0.85, 8), 10) * (f_here - cyl.t_cut)
            t = f_here - depth
            div, u, ok = _divergence(cyl, r, np.zeros_like(r), t, 1e-5 * cyl.R)
            rows = np.column_stack((np.full(r.shape, delta), r, t, u, 0.5 * div,
                                    (1.0 - cyl.R / u) - label_floor(cyl, depth)))
            fol_rows.append(rows[ok])
        _write_csv(args.foliation_out,
                   ["delta", "r", "t", "u", "half_div_V", "bound_slack"], np.concatenate(fol_rows))
        # grid points whose stencil meets the sphere or leaves the cylinder have no row
        report["foliation_rows"] = {"kept": sum(map(len, fol_rows)), "grid": 2 * r.size}

    text = json.dumps(report, indent=2)
    if args.json == "-" or args.json is None:
        print(text)
    else:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
        for c in checks:
            status = "pass" if c["passed"] else "FAIL"
            print(f"{status}  {c['name']}: {c['measured']:.3e} (tol {c['tolerance']:.0e})")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


# ------------------------------------------------------------------ meridian

# samples of the curve behind geodesic_residual and pansu_deviation, over pi eps R
_CHECK_SAMPLES = 512


def cmd_meridian(args: argparse.Namespace) -> int:
    if args.figure1:
        args.epsilon, args.sigma, args.R = 0.5, 0.5, 2.0
    _resolve(args, {"epsilon": 1.0, "sigma": 1.0, "R": 1.0,
                    "start_radius_frac": 0.02, "step_frac": 5e-4})
    spec = _spec_from(args)
    R = spec.R
    r0 = float(args.start_radius_frac) * R
    start = Point(r0, 0.0, float(profile_height(spec, r0)))
    curve = meridian_curve(spec, start, float(args.step_frac) * R)

    x, y, t = curve.points.T
    drift = float(np.max(np.abs(np.abs(t) - profile_height(spec, np.minimum(_radius_of(x, y), R)))))

    # the checks run on their own curve, so they do not depend on --step-frac
    check = meridian_curve(spec, start, math.pi * spec.params.epsilon * R / _CHECK_SAMPLES)
    resid = meridian_geodesic_residual(spec, check)
    # the sub-Riemannian limit sphere exists for sigma > 0 only
    dev = None
    if spec.params.sigma > 0.0:
        rs = _radius_of(check.points[:, 0], check.points[:, 1])
        keep = (0.1 * R < rs) & (rs < 0.95 * R)
        bar = _pansu_field(spec.params.sigma, *check.points[keep].T)
        scaled = check.velocities[keep] * np.array([1.0, 1.0, spec.params.epsilon**3])
        dev = float(np.max(np.linalg.norm(scaled - bar, axis=1), initial=0.0))

    if args.out_prefix:
        _write_curve(args.out_prefix, curve)

    summary = {
        "epsilon": args.epsilon,
        "sigma": args.sigma,
        "R": args.R,
        "samples": len(curve),
        "length": float(curve.s[-1]),
        "max_leaf_drift": drift,
        "geodesic_residual": resid,
        "final_r": math.hypot(curve.points[-1, 0], curve.points[-1, 1]),
        "final_t": float(curve.points[-1, 2]),
        "pansu_deviation": dev,
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


# ------------------------------------------------------------------ isoperim


def cmd_isoperim(args: argparse.Namespace) -> int:
    _resolve(args, {"epsilon": 1.0, "sigma": 1.0, "R": 1.0, "delta": 0.3,
                    "n": 20, "seed": 7})
    spec = _spec_from(args)
    n = _count(args.n, "competitor count")
    cyl = CylinderSpec(spec, float(args.delta))
    comps = make_competitors(spec, cyl, _rng(int(args.seed)), n)
    base = comps[0]
    scales = np.geomspace(2e-4, 2e-3, 6)
    reports = deficit_reports(comps + [base.scaled(s / base.amp_add) for s in scales])
    rows = [(i, rep.symdiff, rep.deficit, rep.bound, rep.slack) for i, rep in enumerate(reports[:n])]
    min_slack = min(rep.slack for rep in reports[:n])
    defs = [rep.deficit for rep in reports[n:]]
    exponent = float(np.polyfit(np.log(scales), np.log(defs), 1)[0])

    if args.out_prefix:
        _write_csv(args.out_prefix + ".csv",
                   ["index", "symdiff", "deficit", "bound", "slack"], np.array(rows, dtype=float))
    report = {
        "params": {"epsilon": args.epsilon, "sigma": args.sigma, "R": args.R},
        "delta": float(args.delta),
        "n_competitors": n,
        "seed": int(args.seed),
        "min_slack": min_slack,
        "exponent_fit": exponent,
        "passed": bool(min_slack >= 0.0 and abs(exponent - 2.0) <= 0.1),
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


# --------------------------------------------------------------------- main


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenberg-cmc",
        description="CMC spheres in the Riemannian Heisenberg group: "
        "evaluation and verification tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, need_R: bool = False) -> None:
        p.add_argument("--epsilon", type=float, default=None, help="frame scale (> 0)")
        p.add_argument("--sigma", type=float, default=None, help="vertical twist")
        if need_R:
            p.add_argument("--R", type=float, required=True, help="sphere parameter (> 0)")
        else:
            p.add_argument("--R", type=float, default=None, help="sphere parameter (> 0)")
        p.add_argument("--config", default=None,
                       help="flat key-value config file; flags override it")

    p_sphere = sub.add_parser("sphere", help="profile table, area and volume")
    common(p_sphere, need_R=True)
    p_sphere.add_argument("--n", type=int, default=None, help="rows in the profile table")
    p_sphere.add_argument("--out", default=None,
                          help="CSV path for columns r (radius), f (profile height), "
                               "f_r (radial derivative), f_R (derivative in R)")
    p_sphere.add_argument("--limits-out", dest="limits_out", default=None,
                          help="CSV path comparing f with the Euclidean and "
                               "sub-Riemannian limit profiles")
    p_sphere.add_argument("--curvature-out", dest="curvature_out", default=None,
                          help="CSV path for r, principal curvatures kappa1/kappa2, "
                               "and the norm of the traceless corrected operator")
    p_sphere.add_argument("--sweep-out", dest="sweep_out", default=None,
                          help="CSV path for an (R, area, volume) sweep")
    p_sphere.add_argument("--sweep-min", dest="sweep_min", type=float, default=None)
    p_sphere.add_argument("--sweep-max", dest="sweep_max", type=float, default=None)
    p_sphere.add_argument("--sweep-n", dest="sweep_n", type=int, default=9)
    p_sphere.set_defaults(func=cmd_sphere)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    common(p_verify)
    p_verify.add_argument("--grid", action="store_true",
                          help="verify over the (epsilon, sigma, R) grid {0.5,1,2}^3")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--perturb-h", dest="perturb_h", type=float, default=None,
                          help="inject an artificial perturbation into the shape "
                               "operator (negative control; makes the traceless "
                               "check fail)")
    p_verify.add_argument("--json", default=None,
                          help="write the JSON report here ('-' for stdout)")
    p_verify.add_argument("--delta", type=float, default=None,
                          help="cylinder cut used by --foliation-out (besides 0)")
    p_verify.add_argument("--foliation-out", dest="foliation_out", default=None,
                          help="CSV path for a (r, t, leaf label, div V / 2, "
                               "bound slack) grid below the sphere")
    p_verify.set_defaults(func=cmd_verify)

    p_meridian = sub.add_parser("meridian", help="sample a pole-to-pole geodesic")
    common(p_meridian)
    p_meridian.add_argument("--figure1", action="store_true",
                            help="use the preset R=2, epsilon=0.5, sigma=0.5")
    p_meridian.add_argument("--start-radius-frac", dest="start_radius_frac",
                            type=float, default=None,
                            help="starting radius as a fraction of R")
    p_meridian.add_argument("--step-frac", dest="step_frac", type=float, default=None,
                            help="arclength step as a fraction of R")
    p_meridian.add_argument("--out-prefix", dest="out_prefix", default=None,
                            help="write <prefix>.csv (samples), <prefix>.obj (polyline) "
                                 "and <prefix>.json (R, s, points, velocities)")
    p_meridian.set_defaults(func=cmd_meridian)

    p_iso = sub.add_parser("isoperim", help="random competitor suite")
    common(p_iso)
    p_iso.add_argument("--delta", type=float, default=None, help="cylinder cut parameter")
    p_iso.add_argument("--n", type=int, default=None, help="number of competitors")
    p_iso.add_argument("--seed", type=int, default=None)
    p_iso.add_argument("--out-prefix", dest="out_prefix", default=None,
                       help="write <prefix>.csv with per-competitor results")
    p_iso.set_defaults(func=cmd_isoperim)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
