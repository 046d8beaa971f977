"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import math

import numpy as np
import pytest

from heisenberg_cmc import (
    ModelParams,
    Point,
    SphereSpec,
    TangentVector,
    curvature_operator,
    euclidean_profile,
    graph_mean_curvature_fd,
    outer_normal,
    pansu_profile,
    profile_height,
    sphere_area,
    vertical_component,
)
from heisenberg_cmc.curvature import (
    corrected_shape,
    second_fundamental_form,
    shape_operator_fd,
    tangent_frame,
)
from heisenberg_cmc.foliation import (
    CylinderSpec,
    calibration_divergence,
    calibration_field,
    foliation_constants,
    leaf_label,
    leaf_label_grid,
)
from heisenberg_cmc.isoperimetry import (
    deficit_report,
    jacobi_residual,
    make_competitor,
    subriemannian_hemisphere_area,
)
from heisenberg_cmc.meridians import (
    integrate_meridian,
    meridian_geodesic_residual,
    pansu_geodesic_residual,
)
from heisenberg_cmc.sphere import _f

from conftest import GRID, _jacobi_residual_mesh, leaf_equation, sphere_point

BASIS = (TangentVector(1, 0, 0), TangentVector(0, 1, 0), TangentVector(0, 0, 1))


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d} ({name}): {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_cmc_constancy():
    rng = np.random.default_rng(101)
    worst = 0.0
    for spec in GRID:
        rs = rng.uniform(0.03, 0.9, size=100) * spec.R
        h_fd = graph_mean_curvature_fd(
            spec.params, lambda x: _f(spec.params, x, spec.R), rs, 1e-3 * spec.R
        )
        worst = max(worst, float(np.max(np.abs(h_fd - spec.H) / spec.H)))
    report(1, "CMC constancy", worst <= 1e-6,
           f"max relative error of the FD mean curvature over the grid: {worst:.3e} (tol 1e-6)")


def test_criterion_02_shape_operator_oracle():
    rng = np.random.default_rng(102)
    specs = [SphereSpec(ModelParams(1.0, 1.0), 1.0),
             SphereSpec(ModelParams(0.5, 2.0), 2.0),
             SphereSpec(ModelParams(2.0, 0.5), 0.5)]
    worst_dev, worst_eig, worst_tr = 0.0, 0.0, 0.0
    for spec in specs:
        for _ in range(34):
            q = sphere_point(spec, rng, lo=0.05, hi=0.92)
            fr = tangent_frame(spec, q)
            sd = second_fundamental_form(spec, q)
            h_fd = np.empty((2, 2))
            for i, v in enumerate((fr.X1, fr.X2)):
                hv = shape_operator_fd(spec, q, v)
                h_fd[i] = (hv.dot(fr.X1), hv.dot(fr.X2))
            worst_dev = max(worst_dev, float(np.max(np.abs(h_fd - sd.h)) / np.max(np.abs(sd.h))))
            for kvec, kap in ((sd.K1, sd.kappa1), (sd.K2, sd.kappa2)):
                worst_eig = max(worst_eig, (shape_operator_fd(spec, q, kvec) - kap * kvec).norm())
            worst_tr = max(worst_tr, abs(sd.h[0, 0] + sd.h[1, 1] - 2.0 * spec.H))
    ok = worst_dev <= 1e-5 and worst_eig <= 1e-6 and worst_tr <= 1e-12
    report(2, "shape-operator oracle", ok,
           f"analytic-vs-FD {worst_dev:.3e} (tol 1e-5), eigen residual {worst_eig:.3e} "
           f"(tol 1e-6), trace defect {worst_tr:.3e} (tol 1e-12)")


def test_criterion_03_traceless_correction_vanishes():
    rng = np.random.default_rng(103)
    worst = 0.0
    for spec in GRID:
        for _ in range(200):
            q = sphere_point(spec, rng)
            worst = max(worst, corrected_shape(spec, q).k0_norm)
    report(3, "vanishing traceless correction", worst <= 1e-10,
           f"max Frobenius norm over {len(GRID)} specs x 200 points: {worst:.3e} (tol 1e-10)")


def test_criterion_04_curvature_identity_and_symmetries():
    rng = np.random.default_rng(104)
    specs = [SphereSpec(ModelParams(1.0, 1.0), 1.0),
             SphereSpec(ModelParams(0.5, 2.0), 2.0),
             SphereSpec(ModelParams(2.0, 0.5), 0.5),
             SphereSpec(ModelParams(0.5, 0.5), 1.0)]
    worst_id = 0.0
    for spec in specs:
        tau = spec.params.tau
        for _ in range(25):
            q = sphere_point(spec, rng)
            fr = tangent_frame(spec, q)
            n = outer_normal(spec, q)
            psi = rng.uniform(0.0, 2.0 * math.pi)
            scale = math.sqrt(rng.uniform(0.5, 2.0))
            v1 = scale * (math.cos(psi) * fr.X1 + math.sin(psi) * fr.X2)
            v2 = scale * (-math.sin(psi) * fr.X1 + math.cos(psi) * fr.X2)
            energy = scale * scale
            lhs = curvature_operator(spec.params, v2, v1, n).dot(v2)
            rhs = 4.0 * tau**2 * energy * vertical_component(v1) * vertical_component(n)
            den = max(abs(rhs), 0.01 * (1.0 + tau**2) * energy)
            worst_id = max(worst_id, abs(lhs - rhs) / den)

    worst_sym = 0.0
    worst_sec = 0.0
    for eps in (0.5, 1.0, 2.0):
        for sig in (0.5, 1.0, 2.0):
            p = ModelParams(eps, sig)
            tau = p.tau

            def entry(u, v, w, z):
                return curvature_operator(p, u, v, w).dot(z)

            for u in BASIS:
                for v in BASIS:
                    for w in BASIS:
                        for z in BASIS:
                            worst_sym = max(
                                worst_sym,
                                abs(entry(u, v, w, z) + entry(v, u, w, z)),
                                abs(entry(u, v, w, z) + entry(u, v, z, w)),
                                abs(entry(u, v, w, z) - entry(w, z, u, v)),
                            )
            X, Y, T = BASIS
            scale = max(1.0, tau * tau)
            worst_sec = max(
                worst_sec,
                abs(entry(X, Y, Y, X) + 3.0 * tau**2) / scale,
                abs(entry(X, T, T, X) - tau**2) / scale,
            )
    ok = worst_id <= 1e-10 and worst_sym <= 1e-12 and worst_sec <= 1e-12
    report(4, "curvature identity", ok,
           f"orthogonal-pair identity {worst_id:.3e} (tol 1e-10), symmetry suite "
           f"{worst_sym:.3e} (tol 1e-12), sectional values {worst_sec:.3e} (tol 1e-12)")


def test_criterion_05_geodesic_meridians():
    spec = SphereSpec(ModelParams(0.5, 0.5), 2.0)
    r0 = 0.02 * spec.R
    start = Point(r0, 0.0, float(profile_height(spec, r0)))
    curve = integrate_meridian(spec, start)
    drift = 0.0
    for px, py, pt in curve.points:
        r = min(math.hypot(px, py), spec.R)
        drift = max(drift, abs(abs(pt) - float(profile_height(spec, r))))
    resid = meridian_geodesic_residual(spec, curve)
    final_r = math.hypot(curve.points[-1, 0], curve.points[-1, 1])
    pole_to_pole = final_r <= 1e-3 * spec.R and curve.points[-1, 2] < 0.0
    ok = drift <= 1e-8 and resid <= 1e-6 and pole_to_pole
    report(5, "geodesic meridians", ok,
           f"leaf drift {drift:.3e} (tol 1e-8), geodesic residual {resid:.3e} "
           f"(tol 1e-6), pole-to-pole: {pole_to_pole}")


def test_criterion_06_limit_regimes():
    rs = np.linspace(0.0, 1.0, 301)
    target_e = euclidean_profile(1.0, rs)
    sups_e = []
    for tau in (1e-3, 5e-4, 2.5e-4):
        spec = SphereSpec(ModelParams.from_tau(1.0, tau), 1.0)
        sups_e.append(float(np.max(np.abs(profile_height(spec, rs) - target_e))))
    euclid_ok = sups_e[0] <= 1e-2 and sups_e[0] > sups_e[1] > sups_e[2]

    sigma = 1.0
    target_p = pansu_profile(sigma, 1.0, rs)
    sups_p = []
    for eps in (0.5, 0.25, 0.125):
        spec = SphereSpec(ModelParams(eps, sigma), 1.0)
        sups_p.append(float(np.max(np.abs(profile_height(spec, rs) - target_p))))
    pansu_ok = sups_p[0] > sups_p[1] > sups_p[2]

    rng = np.random.default_rng(106)
    worst_geo = 0.0
    for _ in range(30):
        sig = rng.uniform(0.3, 2.0)
        R = rng.uniform(0.5, 2.0)
        r = rng.uniform(0.1, 0.9) * R
        worst_geo = max(worst_geo, pansu_geodesic_residual(sig, R, r, rng.uniform(0, 2 * math.pi)))
    ok = euclid_ok and pansu_ok and worst_geo <= 1e-8
    report(6, "limit regimes", ok,
           f"euclid sup at tau=1e-3: {sups_e[0]:.3e} (tol 1e-2, monotone {euclid_ok}); "
           f"pansu sups {['%.3e' % s for s in sups_p]} monotone {pansu_ok}; "
           f"horizontal geodesic residual {worst_geo:.3e} (tol 1e-8)")


def test_criterion_07_calibration_foliation():
    spec = SphereSpec(ModelParams(1.0, 1.0), 1.0)
    rng = np.random.default_rng(107)
    cyl = CylinderSpec(spec, 0.3)

    worst_rt = 0.0
    for _ in range(40):
        lam = rng.uniform(1.0001, 5.0)
        r = rng.uniform(0.0, cyl.r_cut * 0.999)
        t = leaf_equation(cyl, r, 0.0, lam)  # the height of the leaf lam at r
        if t <= cyl.t_cut:
            continue
        worst_rt = max(worst_rt, abs(leaf_label(cyl, Point(r, 0.0, t)) - lam))

    worst_vn = 0.0
    for _ in range(30):
        r = rng.uniform(0.02, cyl.r_cut * 0.98)
        th = rng.uniform(0.0, 2 * math.pi)
        q = Point(r * math.cos(th), r * math.sin(th), float(profile_height(spec, r)))
        worst_vn = max(worst_vn, (calibration_field(cyl, q) - outer_normal(spec, q)).norm())

    worst_div = 0.0
    div_bounded = True
    for _ in range(25):
        r = rng.uniform(0.0, 0.95) * cyl.r_cut
        f_here = float(profile_height(spec, r))
        t = rng.uniform(cyl.t_cut + 0.01, f_here + 0.5)
        if abs(t - f_here) < 5e-5:
            continue
        div, h_lam = calibration_divergence(cyl, Point(r, 0.0, t))
        worst_div = max(worst_div, abs(0.5 * div - h_lam) / h_lam)
        div_bounded = div_bounded and 0.5 * div <= 1.0 / (spec.params.epsilon * spec.R) + 1e-9

    bounds_ok = True
    min_margin = math.inf
    for delta in (0.0, 0.3):
        c = CylinderSpec(spec, delta)
        consts = foliation_constants(spec)
        f0 = float(profile_height(spec, 0.0))
        rs = np.linspace(0.0, c.r_cut * 0.995, 100)
        f_rs = profile_height(spec, rs)
        depths = np.linspace(0.0, 0.999, 100)[None, :] * (f_rs[:, None] - c.t_cut)
        ts = f_rs[:, None] - depths
        labels = leaf_label_grid(c, np.broadcast_to(rs[:, None], ts.shape), ts)
        if delta == 0.0:
            floor = depths**2 / (4.0 * spec.R * consts.k**2 + f0 * f0)
        else:
            floor = math.sqrt(delta) * depths / (spec.R * consts.k + f0)
        margin = (1.0 - spec.R / labels) - floor
        min_margin = min(min_margin, float(margin.min()))
        bounds_ok = bounds_ok and margin.min() >= -1e-12

    ok = worst_rt <= 1e-10 and worst_vn <= 1e-8 and worst_div <= 1e-5 and div_bounded and bounds_ok
    report(7, "calibration foliation", ok,
           f"label roundtrip {worst_rt:.3e} (tol 1e-10), field-vs-normal {worst_vn:.3e} "
           f"(tol 1e-8), divergence rel {worst_div:.3e} (tol 1e-5, bounded {div_bounded}), "
           f"growth bounds min margin {min_margin:.3e} on 100x100 grids")


def test_criterion_08_quantitative_isoperimetric_inequality():
    spec = SphereSpec(ModelParams(1.0, 1.0), 1.0)
    cyl = CylinderSpec(spec, 0.3)
    rng = np.random.default_rng(7)
    slacks = []
    for _ in range(20):
        rep = deficit_report(make_competitor(spec, cyl, rng))
        slacks.append(rep.slack)
    min_slack = min(slacks)

    cyl0 = CylinderSpec(spec, 0.0)
    rng0 = np.random.default_rng(8)
    slacks0 = [deficit_report(make_competitor(spec, cyl0, rng0)).slack for _ in range(5)]
    min_slack0 = min(slacks0)

    base = make_competitor(spec, cyl, np.random.default_rng(11))
    scales = np.geomspace(2e-4, 2e-3, 6)
    defs = [deficit_report(base.scaled(s / base.amp_add)).deficit for s in scales]
    exponent = float(np.polyfit(np.log(scales), np.log(defs), 1)[0])

    ok = min_slack >= 0.0 and min_slack0 >= 0.0 and abs(exponent - 2.0) <= 0.1
    report(8, "quantitative isoperimetric inequality", ok,
           f"min slack over 20 competitors (delta=0.3): {min_slack:.3e}; "
           f"delta=0 cubic variant min slack: {min_slack0:.3e}; "
           f"small-amplitude exponent {exponent:.3f} (target 2.0 +/- 0.1)")


def test_criterion_09_jacobi_solutions():
    spec = SphereSpec(ModelParams(1.0, 1.0), 1.0)
    ok = True
    details = []
    for which in ("x", "y", "t"):
        r400 = _jacobi_residual_mesh(spec, which, n=400)
        r800 = _jacobi_residual_mesh(spec, which, n=800)
        exact = jacobi_residual(spec, which)
        ok = ok and r400 <= 1e-3 and r400 / r800 >= 2.0 and exact <= 1e-12
        details.append(f"{which}: {r400:.3e} -> {r800:.3e}, closed form {exact:.3e}")
    report(9, "Jacobi solutions", ok,
           "mesh residuals at R/400 -> R/800 (tol 1e-3, ratio >= 2), closed form (tol 1e-12): "
           + "; ".join(details))


def test_criterion_10_subriemannian_area_limit():
    sigma, R = 1.0, 1.0
    target = subriemannian_hemisphere_area(sigma, R)
    dists = []
    for eps in (0.5, 0.25, 0.125):
        area = sphere_area(SphereSpec(ModelParams(eps, sigma), R)) / 2.0
        dists.append(abs(eps * area - target))
    ok = dists[0] / dists[1] >= 2.0 and dists[1] / dists[2] >= 2.0
    report(10, "sub-Riemannian area limit", ok,
           f"distances to the sigma-only integral along eps=0.5,0.25,0.125: "
           f"{['%.3e' % d for d in dists]} (successive ratios >= 2)")
