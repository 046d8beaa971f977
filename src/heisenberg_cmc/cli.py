"""Command-line front end.

Subcommands expose the library with reproducible CSV/JSON/OBJ outputs:

    sphere    profile table, area/volume, limit-profile comparison
    verify    invariant suite with a machine-readable pass/fail report: one table of checks
              (`_CHECKS`, a name and a bound each) fed in turn by `curvature._check_cmc`,
              `_check_curvature` (three sampled checks on one draw sequence) and
              `foliation._check_calibration` over a `sphere._Stack` of the spheres (27 with
              --grid), then `isoperimetry._jacobi_maxima` on the stack's middle sphere
    meridian  sample a pole-to-pole geodesic and its check curve in one closed-form pass,
              export polyline
    isoperim  random volume-preserving competitor suite

A cold call loads numpy, argparse, json and the profile layer (ambient, sphere); each subcommand
imports the rest where it runs: `curvature` for `sphere --curvature-out`, `meridians` for
`meridian`, and `isoperimetry` (with `curvature`, `foliation` and `meridians`) for `verify` and
`isoperim`.

Each float is written once by repr (shortest round-trip decimal), into row strings (`_rows`)
that all files of a table share, so outputs are bit-stable for a fixed seed and configuration.
Options may also be given in a flat key-value config file (`--config`); command-line flags win
over the file, the file wins over defaults.  Exit codes: 0 ok, 1 check failed, 2 bad input (an
unwritable output path too), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from ._numerics import _MAX_SAMPLES, _require_finite
from .ambient import ModelParams, Point
from .errors import ContractError, DomainError, NumericsError
from .sphere import (SphereSpec, _radius_of, _Stack, euclidean_profile, pansu_profile,
                     profile_height, profile_height_R, profile_height_r, sphere_area, sphere_volume)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERIC = 3


def _rows(*columns) -> list[str]:
    """The rows of 1-D or 2-D float columns as "a,b,c" strings, one repr a float (no ',' or ' ')."""
    table = np.column_stack(columns)
    cells, k = map(repr, table.ravel().tolist()), table.shape[1]
    return list(cells if k == 1 else map(",".join, zip(*[cells] * k)))


def _write(path: str, text: str) -> None:
    """The text's bytes at path; DomainError naming the path where it cannot be written."""
    try:
        with open(path, "wb") as fh:
            fh.write(text.encode())
    except OSError as exc:
        raise DomainError(f"cannot write {path!r}: {exc.strerror}") from None


def _write_csv(path: str, header: list[str], *parts: list[str]) -> None:
    """The header and the `_rows` lists side by side, as the csv module writes them."""
    _write(path, "\r\n".join([",".join(header), *map(",".join, zip(*parts)), ""]))


def _write_curve(prefix: str, curve) -> None:
    """<prefix>.csv, .obj and .json of a `MeridianCurve` (2 samples or more), one repr a float; for
    finite floats the bytes are those the csv module and json.dumps would write."""
    s, p, v = _rows(curve.s), _rows(curve.points), _rows(curve.velocities)
    _write_csv(prefix + ".csv", ["s", "x", "y", "t", "vX", "vY", "vT"], s, p, v)
    _write(prefix + ".obj", ("v " + "\nv ".join(p) + "\nl ").replace(",", " ")
           + " ".join(map(str, range(1, len(p) + 1))) + "\n")
    _write(prefix + ".json", '{"R": %s, "s": [%s], "points": %s, "velocities": %s}\n' % (
        repr(curve.R), ", ".join(s),
        *(("[[" + "],[".join(rows) + "]]").replace(",", ", ") for rows in (p, v))))


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
    if not 1 <= n <= _MAX_SAMPLES:  # before an array of n is made
        raise DomainError(f"the {what} must be at least 1 and at most {_MAX_SAMPLES}, got {n}")
    return n


# ------------------------------------------------------------------- sphere


def cmd_sphere(args: argparse.Namespace) -> int:
    _resolve(args, {"epsilon": 1.0, "sigma": 1.0, "n": 200})
    spec = _spec_from(args)
    summary = {  # first: its tau, area and volume raise before any file is written
        "epsilon": args.epsilon,
        "sigma": args.sigma,
        "tau": spec.params.tau,
        "R": spec.R,
        "H": spec.H,
        "area": sphere_area(spec),
        "volume": sphere_volume(spec),
    }
    n = _count(args.n, "profile row count")
    sweep_n = _count(args.sweep_n, "sweep count")
    # open grid: the radial derivative diverges at the rim r = R
    rs = spec.R * np.arange(n) / n
    f = profile_height(spec, rs)
    lead = functools.cache(lambda: (_rows(rs), _rows(f)))  # r and f, repr'd once
    tables = []  # every table is built before any is written, so a failure writes no file
    if args.out:
        tables.append((args.out, ["r", "f", "f_r", "f_R"], *lead(), _rows(
            profile_height_r(spec, rs), profile_height_R(spec, rs))))
    if args.limits_out:
        tables.append((args.limits_out, ["r", "f", "euclidean", "pansu"], *lead(), _rows(
            euclidean_profile(spec.R, rs), pansu_profile(abs(args.sigma), spec.R, rs))))
    if args.curvature_out:
        from .curvature import _frame_coefficients, _shape, assemble_corrected_shape

        h, kappa1, kappa2 = _shape(spec, rs)
        c = _frame_coefficients(spec, rs, f)[2]
        k0 = assemble_corrected_shape(spec.H, summary["tau"], h, c)
        tables.append((args.curvature_out, ["r", "kappa1", "kappa2", "k0_norm"], lead()[0],
                       _rows(kappa1, kappa2, k0.k0_norm)))
    if args.sweep_out:
        for name, bound in (("--sweep-min", args.sweep_min), ("--sweep-max", args.sweep_max)):
            if bound is not None and not math.isfinite(bound):  # before linspace makes NaN radii
                raise DomainError(f"{name} must be a finite number, got {bound!r}")
        r_lo = args.sweep_min if args.sweep_min is not None else 0.5 * spec.R
        r_hi = args.sweep_max if args.sweep_max is not None else 2.0 * spec.R
        radii = np.linspace(r_lo, r_hi, sweep_n)
        sweep = [SphereSpec(spec.params, float(R)) for R in radii]
        tables.append((args.sweep_out, ["R", "area", "volume"],
                       _rows(np.array([(s.R, sphere_area(s), sphere_volume(s)) for s in sweep]))))
    for table in tables:
        _write_csv(*table)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


# ------------------------------------------------------------------- verify


# verify's checks in report order, a name and a bound each: the measures of `curvature._check_cmc`,
# the three of `curvature._check_curvature`, then `foliation._check_calibration` and the larger
# Jacobi maximum of `isoperimetry._jacobi_maxima`
_CHECKS = (("cmc_constancy", 1e-6), ("traceless_correction", 1e-10),
           ("principal_directions", 1e-12), ("curvature_identity", 1e-10),
           ("calibration_bounds", 1e-12), ("jacobi_residual", 1e-3))


def cmd_verify(args: argparse.Namespace) -> int:
    from .curvature import _check_cmc, _check_curvature
    from .foliation import CylinderSpec, _check_calibration, _divergence, label_floor
    from .isoperimetry import _jacobi_maxima

    _resolve(args, {"epsilon": 1.0, "sigma": 1.0, "R": 1.0, "seed": 12345,
                    "perturb_h": 0.0, "delta": 0.3})
    if not math.isfinite(args.perturb_h):  # from the flag or the config file
        raise DomainError(f"perturb_h must be a finite number, got {args.perturb_h!r}")
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

    # the curvature checks run once over the stack of spheres, k draws in one (one sphere's stack
    # is its floats)
    spheres = _Stack(members=specs)

    def measures():  # a kernel at a time, so that each measure is checked before the next runs
        yield _check_cmc(spheres, rng)
        yield from _check_curvature(spheres, rng, float(args.perturb_h))
        yield _check_calibration(spheres)
        # L g in closed form on the meridian chart, so the residual is rounding, on the stack's
        # middle member only ((1, 1, 1) on the grid), as one spec runs every formula of it; 'y' is
        # -i times the 'x' mode, with the same maximum, and both come from one potential, 'x' first
        t_max, x_max = _jacobi_maxima(specs[len(specs) // 2], n=400)
        yield max(x_max, t_max)

    checks = [{"name": name, "measured": _require_finite(
        measured, spheres.params, "the {} check's measure", name, R=spheres.R),
        "tolerance": tol, "passed": bool(measured <= tol)}
        for (name, tol), measured in zip(_CHECKS, measures())]

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
        _write_csv(args.foliation_out, ["delta", "r", "t", "u", "half_div_V", "bound_slack"],
                   _rows(np.concatenate(fol_rows)))
        # grid points whose stencil meets the sphere or leaves the cylinder have no row
        report["foliation_rows"] = {"kept": sum(map(len, fol_rows)), "grid": 2 * r.size}

    text = json.dumps(report, indent=2)
    if args.json == "-" or args.json is None:
        print(text)
    else:
        _write(args.json, text + "\n")
        for c in checks:
            status = "pass" if c["passed"] else "FAIL"
            print(f"{status}  {c['name']}: {c['measured']:.3e} (tol {c['tolerance']:.0e})")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


# ------------------------------------------------------------------ meridian

# samples of the curve behind geodesic_residual and pansu_deviation, over pi eps R
_CHECK_SAMPLES = 512


def cmd_meridian(args: argparse.Namespace) -> int:
    from .meridians import _curves, _geodesic_residual, _pansu_field

    if args.figure1:
        args.epsilon, args.sigma, args.R = 0.5, 0.5, 2.0
    _resolve(args, {"epsilon": 1.0, "sigma": 1.0, "R": 1.0,
                    "start_radius_frac": 0.02, "step_frac": 5e-4})
    spec = _spec_from(args)
    params, R = spec.params, spec.R
    r0 = float(args.start_radius_frac) * R
    start = Point(r0, 0.0, profile_height(spec, r0))
    # the checks' own curve, from the same pass: they do not depend on --step-frac
    curve, check = _curves(spec, start, [float(args.step_frac) * R,
                                         math.pi * params.epsilon * R / _CHECK_SAMPLES])

    x, y, t = curve.points.T
    drift = float(np.max(np.abs(np.abs(t) - profile_height(spec, np.minimum(_radius_of(x, y), R)))))
    _require_finite(drift, params, "the leaf drift", R=R)

    # the polar frame coefficients degenerate at the poles, so both checks skip r < 0.1 R
    rs = _radius_of(check.points[:, 0], check.points[:, 1])
    off = rs >= 0.1 * R
    resid = _geodesic_residual(spec, check.points[off], check.velocities[off], rs[off])
    resid = float(np.max(np.linalg.norm(resid, axis=1), initial=0.0))
    _require_finite(resid, params, "the geodesic residual", R=R)
    # the sub-Riemannian limit sphere exists for sigma > 0 only
    dev = None
    if params.sigma > 0.0:
        keep = (0.1 * R < rs) & (rs < 0.95 * R)
        with np.errstate(invalid="ignore"):  # g/(r R) is inf/inf at subnormal sigma
            bar = _pansu_field(params.sigma, *check.points[keep].T, rs[keep])
        scaled = check.velocities[keep] * np.array([1.0, 1.0, params.epsilon**3])
        with np.errstate(over="ignore"):  # eps^3 v_T squares past the largest float at huge eps
            dev = float(np.max(np.linalg.norm(scaled - bar, axis=1), initial=0.0))
        _require_finite(dev, params, "the Pansu deviation", R=R)

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
        "final_r": abs(complex(curve.points[-1, 0], curve.points[-1, 1])),
        "final_t": float(curve.points[-1, 2]),
        "pansu_deviation": dev,
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


# ------------------------------------------------------------------ isoperim


def cmd_isoperim(args: argparse.Namespace) -> int:
    from .foliation import CylinderSpec
    from .isoperimetry import deficit_reports, make_competitors

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
    if not all(0.0 < d < math.inf for d in defs):  # the excess is lost to rounding at large eps
        raise NumericsError(f"a fit deficit is not positive and finite at eps = {args.epsilon!r}")
    x = np.log(scales) - np.mean(np.log(scales))  # the least-squares slope through the centred x
    exponent = float(np.sum(x * np.log(defs)) / np.sum(x * x))

    if args.out_prefix:
        _write_csv(args.out_prefix + ".csv", ["index", "symdiff", "deficit", "bound", "slack"],
                   _rows(np.array(rows, dtype=float)))
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
        p.add_argument("--R", type=float, required=need_R, help="sphere parameter (> 0)")
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
