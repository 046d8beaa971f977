import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from heisenberg_cmc import (
    DomainError,
    ModelParams,
    NumericsError,
    Point,
    SphereSpec,
    graph_mean_curvature_fd,
    outer_normal,
    profile_height,
)
from heisenberg_cmc.foliation import (
    CylinderSpec,
    calibration_divergence,
    calibration_field,
    foliation_constants,
    leaf_equation,
    leaf_label,
    leaf_label_grid,
    point_on_leaf,
    vertical_label_bound,
)
from heisenberg_cmc import cli, foliation
from heisenberg_cmc.foliation import _chord, _leaf_terms
from heisenberg_cmc.sphere import _f, _f_R, _omega

from conftest import GRID, counting_newton_passes, mp_profile


@pytest.fixture
def cyl(spec):
    return CylinderSpec(spec, 0.3)


def test_cylinder_geometry(spec):
    cyl = CylinderSpec(spec, 0.3)
    assert cyl.r_cut == pytest.approx(0.7)
    assert cyl.t_cut == pytest.approx(float(profile_height(spec, 0.7)))
    with pytest.raises(DomainError):
        CylinderSpec(spec, 1.0)
    with pytest.raises(DomainError):
        CylinderSpec(spec, -0.1)


def test_constants_closed_forms_and_positivity():
    for g in GRID:
        consts = foliation_constants(g)
        eps, tau, R = g.params.epsilon, g.params.tau, g.R
        k_expect = eps**3 * math.sqrt(1.0 + tau**2 * eps**2 * R**2) * math.sqrt(R)
        assert consts.k == pytest.approx(k_expect, rel=1e-14)
        f0 = float(profile_height(g, 0.0))
        assert consts.C == pytest.approx(
            1.0 / (4.0 * math.pi * eps * R**3 * (R * consts.k + f0)), rel=1e-14
        )
        assert consts.D == pytest.approx(
            1.0 / (12.0 * eps * math.pi**2 * R**5 * (4.0 * R * consts.k**2 + f0**2)), rel=1e-14
        )
        assert consts.k > 0 and consts.C > 0 and consts.D > 0


def test_scaled_constants_have_subriemannian_limits():
    sigma, R = 1.0, 1.0
    vals_c, vals_d = [], []
    for eps in (0.5, 0.25, 0.125, 0.0625):
        g = SphereSpec(ModelParams(eps, sigma), R)
        consts = foliation_constants(g)
        vals_c.append(eps * consts.C)
        vals_d.append(eps * consts.D)
    diffs_c = np.abs(np.diff(vals_c))
    diffs_d = np.abs(np.diff(vals_d))
    assert np.all(np.diff(diffs_c) < 0.0) and np.all(np.diff(diffs_d) < 0.0)
    assert vals_c[-1] > 0.0 and vals_d[-1] > 0.0


def test_leaf_equation_sign_limits(spec, cyl):
    r, t = 0.3, 1.1
    f_here = float(profile_height(spec, r))
    assert cyl.t_cut < t < f_here
    assert leaf_equation(cyl, r, t, spec.R + 1e-9) > 0.0
    assert leaf_equation(cyl, r, t, spec.R + 1e-9) == pytest.approx(f_here - t, rel=1e-6)
    assert leaf_equation(cyl, r, t, 1e6 * spec.R) < 0.0


def test_leaf_equation_decreasing_in_label(cyl, rng):
    h = 1e-6
    for _ in range(10):
        r = rng.uniform(0.0, cyl.r_cut * 0.95)
        f_here = float(profile_height(cyl.spec, r))
        t = rng.uniform(cyl.t_cut, f_here)
        lam = rng.uniform(1.05, 3.0) * cyl.R
        slope = (leaf_equation(cyl, r, t, lam + h) - leaf_equation(cyl, r, t, lam - h)) / (2 * h)
        assert slope < 0.0


def test_leaf_equation_domain(cyl):
    with pytest.raises(DomainError):
        leaf_equation(cyl, cyl.r_cut + 0.01, 1.1, 1.5)
    with pytest.raises(DomainError):
        leaf_equation(cyl, 0.3, 0.5, 1.5)  # t below the cut
    with pytest.raises(DomainError):
        leaf_equation(cyl, 0.3, 1.1, 0.9)  # label not above R


def test_label_on_and_above_graph(spec, cyl):
    r = 0.4
    f_here = float(profile_height(spec, r))
    assert leaf_label(cyl, Point(r, 0.0, f_here)) == pytest.approx(spec.R, abs=1e-14)
    q = Point(r, 0.0, f_here + 0.37)
    assert leaf_label(cyl, q) == pytest.approx(f_here - q.t + spec.R, abs=1e-14)
    assert leaf_label(cyl, q) < spec.R


def test_label_roundtrip_on_inside_leaves(cyl, rng):
    worst = 0.0
    for _ in range(40):
        lam = rng.uniform(1.0001, 5.0)
        r = rng.uniform(0.0, cyl.r_cut * 0.999)
        q = point_on_leaf(cyl, r, lam)
        if q.t <= cyl.t_cut:
            continue
        worst = max(worst, abs(leaf_label(cyl, q) - lam))
    assert worst <= 1e-10


def test_label_partition(spec, cyl, rng):
    # u > R exactly inside the enclosed region, u <= R on/above the graph
    for _ in range(200):
        r = rng.uniform(0.0, 0.999) * spec.R
        f_here = float(profile_height(spec, r))
        t = rng.uniform(cyl.t_cut + 1e-9, f_here + 1.0)
        if abs(t - f_here) < 1e-12:
            continue
        if t >= f_here:
            assert leaf_label(cyl, Point(r, 0.0, t)) <= spec.R
        else:
            assert leaf_label(cyl, Point(r, 0.0, t)) > spec.R


def test_label_just_below_the_graph_exceeds_R():
    # depth fraction 1.3e-8 at delta = 0: the root is within an ulp of R
    cyl = CylinderSpec(SphereSpec(ModelParams(0.016141342024463937, 0.0), 82.7941657495076), 0.0)
    u = leaf_label(cyl, Point(35.45024430093878, 0.0, 0.0003146598544533442))
    assert u == np.nextafter(cyl.R, np.inf)


def test_label_one_ulp_above_the_cut_is_finite():
    # t - t_cut is one ulp here: the smallest chord, where lam is largest
    cyl = CylinderSpec(SphereSpec(ModelParams(1.0, 1.0), 1.0), 1e-10)
    u = leaf_label(cyl, Point(0.3, 0.0, float(np.nextafter(cyl.t_cut, np.inf))))
    assert math.isfinite(u) and u > cyl.R


_ULP = np.finfo(float).eps


def _brentq_label(cyl, r, t):
    """Root of `leaf_equation` by scipy's brentq; the float after R when F
    has already changed sign there."""
    lo = float(np.nextafter(cyl.R, np.inf))
    if leaf_equation(cyl, r, t, lo) <= 0.0:
        return lo
    hi = 2.0 * cyl.R
    while leaf_equation(cyl, r, t, hi) >= 0.0:
        hi *= 2.0
    return brentq(lambda lam: leaf_equation(cyl, r, t, lam), lo, hi,
                  xtol=1e-300, rtol=4.0 * _ULP, maxiter=500)


def test_labels_match_brentq_oracle():
    """eps, |sigma|, R over [1e-3, 1e3] with sigma of either sign or 0,
    delta = 0 and delta > 0, depth fractions 1e-8 to 0.9999: each label is
    within max(16 ulp lam, 32 ulp scale / |F_lam|) of brentq's root."""
    rng = np.random.default_rng(20261018)
    checked = 0
    for k in range(36):
        eps, sigma, R = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=3))
        sigma *= (-1.0, 0.0, 1.0)[k % 3]
        delta = 0.0 if k % 2 == 0 else rng.uniform(0.01, 0.9) * R
        cyl = CylinderSpec(SphereSpec(ModelParams(eps, sigma), R), delta)
        r = rng.uniform(0.0, 0.999, size=12) * cyl.r_cut
        frac = np.concatenate(([1e-8, 0.9999], np.exp(rng.uniform(math.log(1e-8), 0.0, size=10))))
        frac = np.minimum(frac, 0.9999)
        f_r = _f(cyl.params, r, R)
        t = f_r - frac * (f_r - cyl.t_cut)
        keep = (cyl.t_cut < t) & (t < f_r)
        labels = leaf_label_grid(cyl, r[keep], t[keep])
        for ri, ti, lam in zip(r[keep], t[keep], labels):
            ref = _brentq_label(cyl, ri, ti)
            rr = np.array([ri, cyl.r_cut])
            f, f_lam = _f(cyl.params, rr, ref), _f_R(cyl.params, rr, ref)
            scale = abs(f[0]) + abs(f[1]) + abs(cyl.t_cut) + abs(ti)
            bound = max(16.0 * _ULP * ref, 32.0 * _ULP * scale / abs(f_lam[0] - f_lam[1]))
            assert lam > R and abs(lam - ref) <= bound, (eps, sigma, R, delta, ri, ti)
            checked += 1
    assert checked >= 400


def test_label_solves_take_at_most_6_passes():
    """Over the 54 solves of `verify --grid` (27 spheres, delta = 0 and 0.3)
    and over the domain of test_labels_match_brentq_oracle, which it reruns."""
    grid, oracle = [], []
    with counting_newton_passes(foliation, "leaf label solve", grid):
        for spec in GRID:
            cli._check_calibration(spec)
    with counting_newton_passes(foliation, "leaf label solve", oracle):
        test_labels_match_brentq_oracle()
    assert len(grid) == 54 and len(oracle) == 36
    assert max(grid) <= 6 and max(oracle) <= 6
    assert sum(grid) / len(grid) <= 4.5


def test_labels_whose_square_overflows_raise():
    """A point within 1e-300 of t_cut = 0 lies on a leaf whose lam^2 overflows: NumericsError
    naming the point and the sphere, with no RuntimeWarning.  At t = 1e-100 the label is
    finite, Delta D'(0)/(2 t) to first order in the chord, D'(0) the chord slope at y = 0."""
    cyl = CylinderSpec(SphereSpec(ModelParams(1e-3, 1.0), 1.0), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (5e-324, 1e-300):
            with pytest.raises(NumericsError, match=rf"\(0\.5, {t!r}\) with eps = 0\.001, "
                                                    r"sigma = 1\.0, R = 1\.0"):
                leaf_label(cyl, Point(0.5, 0.0, t))
        w_r, w_cut = (math.hypot(1.0, 1e9 * x) for x in (0.5, 1.0))  # tau eps = sigma / eps^3
        slope = 1e-9 * (2.0 / 3.0) * (w_r**2 + w_r * w_cut + w_cut**2) / (w_r + w_cut)
        assert leaf_label(cyl, Point(0.5, 0.0, 1e-100)) == pytest.approx(0.75 * slope / 2e-100, rel=1e-14)


def _mp_label(cyl, r, t, guess):
    """50-digit root of the leaf equation in lam, from a bracket of +-1e-6 around `guess`."""
    e, s = cyl.params.epsilon, cyl.params.sigma
    with mpmath.workdps(50):
        def F(lam):
            return mp_profile(e, s, r, lam) - mp_profile(e, s, cyl.r_cut, lam) + cyl.t_cut - t
        lo = max(mpmath.mpf(cyl.R), mpmath.mpf(guess) * (1 - mpmath.mpf(1e-6)))
        return mpmath.findroot(F, (lo, mpmath.mpf(guess) * (1 + mpmath.mpf(1e-6))), solver="anderson")


def test_labels_at_the_rim_match_50_digit_roots():
    """The rows r = 0.995 r_cut at delta = 0 of `verify --grid` (every 4th
    sphere), where the leaf equation grows like sqrt(lam - R) and the old
    solve took 14 passes: each label within test_labels_match_brentq_oracle's
    bound of its 50-digit root, which is 16 ulp of lam but where f - f cancels
    deep in the sphere."""
    for spec in GRID[::4]:
        cyl = CylinderSpec(spec, 0.0)
        r = 0.995 * cyl.r_cut
        f_r = float(_f(cyl.params, r, spec.R))
        t = f_r - np.linspace(0.0, 0.999, 40)[1:] * (f_r - cyl.t_cut)
        for ti, lam in zip(t, leaf_label_grid(cyl, r, t)):
            exact = float(_mp_label(cyl, r, ti, lam))
            rr = np.array([r, cyl.r_cut])
            f, f_lam = _f(cyl.params, rr, exact), _f_R(cyl.params, rr, exact)
            scale = abs(f[0]) + abs(f[1]) + abs(cyl.t_cut) + abs(ti)
            bound = max(16.0 * _ULP * exact, 32.0 * _ULP * scale / abs(f_lam[0] - f_lam[1]))
            assert abs(lam - exact) <= bound, (spec, ti)


@pytest.mark.parametrize("delta_frac", [0.0, 0.3])
def test_chord_bracket_holds_in_50_digits(delta_frac):
    """eps^3 w(r) y <= D(y) <= eps^3 w(r_cut) y for D(y) = f(r; lam) - f(r_cut; lam)
    at the chord y = s_r - s_cut (the bracket of the label solve), and D is
    convex in y, so that D(y) >= y D'(0) = y eps^3 (2/3)(w_r^2 + w_r w_cut +
    w_cut^2)/(w_r + w_cut) (the label solve's start is above the root), at
    random points with eps, |sigma| and R log-uniform in [1e-3, 1e3]."""
    rng = np.random.default_rng(31)
    with mpmath.workdps(50):
        for k in range(40):
            eps, sigma, R = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=3))
            sigma *= (-1.0, 0.0, 1.0)[k % 3]
            r_cut = R * (1.0 - delta_frac)
            r = rng.uniform(0.0, 0.999) * r_cut
            e, Rm, rc, rm = (mpmath.mpf(v) for v in (eps, R, r_cut, r))
            gap = (rc - rm) * (rc + rm)
            y_max = gap / (mpmath.sqrt(Rm * Rm - rm * rm) + mpmath.sqrt(Rm * Rm - rc * rc))

            def D(y):
                s_r = (gap / y + y) / 2
                lam = mpmath.sqrt(s_r * s_r + rm * rm)
                return mp_profile(eps, sigma, rm, lam) - mp_profile(eps, sigma, rc, lam)

            def w(rho):
                return mpmath.sqrt(1 + (mpmath.mpf(sigma) * rho / e**3) ** 2)

            ys = sorted(y_max * mpmath.mpf(v) for v in np.exp(rng.uniform(math.log(1e-6), 0.0, size=3)))
            ds = [D(y) for y in ys]
            slack = mpmath.mpf(10) ** -30  # D - D cancels up to 12 digits at y = 1e-6 y_max
            w_r, w_cut = w(rm), w(rc)
            w_mean = mpmath.mpf(2) / 3 * (w_r**2 + w_r * w_cut + w_cut**2) / (w_r + w_cut)
            for y, d in zip(ys, ds):
                assert e**3 * w_r * y * (1 - slack) <= d <= e**3 * w_cut * y * (1 + slack)
                assert e**3 * w_mean * y * (1 - slack) <= d
            slopes = [(ds[1] - ds[0]) / (ys[1] - ys[0]), (ds[2] - ds[1]) / (ys[2] - ys[1])]
            assert slopes[0] <= slopes[1] * (1 + slack)


@pytest.mark.parametrize("eps, sigma", [(1.0, 1.0), (0.3, -2.0), (1.0, 0.0), (50.0, 1e-9)])
def test_chord_residual_matches_leaf_equation(eps, sigma):
    """The label solve's residual, taken from the chord y = s_r - s_cut, is
    `leaf_equation` up to rounding, and its F_lam = -lam y dF/dy / (s_r s_cut)
    is f_R(r; lam) - f_R(r_cut; lam).  delta = 0 and r -> r_cut take s_cut and
    the chord toward 0; tau = 0 takes p into the series branch of atanc.  The
    rounding allowed includes that of leaf_equation's own lam^2 - rho^2, which
    moves f(rho; lam) by about f ulp lam^2 / s_rho^2."""
    params = ModelParams(eps, sigma)
    for R, delta in [(0.5, 0.0), (1.0, 0.3), (2.0, 0.0), (7.0, 3.5)]:
        cyl = CylinderSpec(SphereSpec(params, R), delta)
        r = np.array([0.0, 0.3, 0.9, 0.999]) * cyl.r_cut
        for lam in (R * (1.0 + 1e-9), 1.3 * R, 40.0 * R):
            s_r, s_cut = np.sqrt((lam - r) * (lam + r)), math.sqrt((lam - cyl.r_cut) * (lam + cyl.r_cut))
            w = _omega(params, np.stack((r, np.full_like(r, cyl.r_cut))))
            y = (cyl.r_cut - r) * (cyl.r_cut + r) / (s_r + s_cut)
            (sr, sc), f, dF = _leaf_terms(cyl, r, w, y)
            lam_chord = _chord(cyl, r, y)[1]
            assert np.allclose(lam_chord, lam, rtol=8 * _ULP, atol=0.0)
            for i, ri in enumerate(r):
                t = 0.5 * (float(_f(params, ri, R)) + cyl.t_cut)
                F = f[0, i] - f[1, i] + cyl.t_cut - t
                scale = (abs(f[0, i]) * (1.0 + (lam / sr[i]) ** 2) + abs(f[1, i]) * (1.0 + (lam / sc[i]) ** 2)
                         + abs(cyl.t_cut) + abs(t))
                assert abs(F - leaf_equation(cyl, ri, t, lam_chord[i])) <= 8 * _ULP * scale
                f_lam = -lam_chord[i] * y[i] * dF[i] / (sr[i] * sc[i])
                want = _f_R(params, ri, lam_chord[i]) - _f_R(params, cyl.r_cut, lam_chord[i])
                assert f_lam == pytest.approx(float(want), rel=1e-6)


def test_label_grid_matches_scalar(cyl):
    rs = np.linspace(0.0, cyl.r_cut * 0.98, 13)
    ts = np.linspace(cyl.t_cut + 0.01, 1.6, 11)
    grid = leaf_label_grid(cyl, rs[:, None], ts[None, :])
    for i in range(0, 13, 4):
        for j in range(0, 11, 3):
            assert grid[i, j] == pytest.approx(
                leaf_label(cyl, Point(rs[i], 0.0, ts[j])), abs=1e-9
            )


def test_inside_leaves_are_translated_graphs_with_cmc(cyl, rng):
    """Each inside leaf is a vertical translate of a bigger sphere's graph,
    so its finite-difference mean curvature is 1/(eps * label)."""
    params = cyl.params
    for lam in (1.2, 1.7, 2.6):
        rs = rng.uniform(0.05, 0.9, size=10) * cyl.r_cut
        h_fd = graph_mean_curvature_fd(
            params, lambda x: _f(params, x, lam), rs, 1e-3 * lam
        )
        target = 1.0 / (params.epsilon * lam)
        assert np.max(np.abs(h_fd - target) / target) <= 1e-6
        # and the leaf really is that graph shifted down
        r0 = 0.3 * cyl.r_cut
        q = point_on_leaf(cyl, r0, lam)
        shift = float(_f(params, cyl.r_cut, lam)) - cyl.t_cut
        assert q.t == pytest.approx(float(_f(params, r0, lam)) - shift, rel=1e-12)


def test_calibration_field_is_unit_and_matches_normal(cyl, rng, spec):
    for _ in range(25):
        r = rng.uniform(0.02, cyl.r_cut * 0.98)
        th = rng.uniform(0.0, 2.0 * math.pi)
        q = Point(r * math.cos(th), r * math.sin(th), float(profile_height(spec, r)))
        v = calibration_field(cyl, q)
        n = outer_normal(spec, q)
        assert abs(v.norm() - 1.0) <= 1e-12
        assert (v - n).norm() <= 1e-8


def test_calibration_field_continuous_across_sphere(cyl, spec):
    for r in (0.15, 0.45, 0.65):
        t = float(profile_height(spec, r))
        above = calibration_field(cyl, Point(r, 0.0, t + 1e-9))
        below = calibration_field(cyl, Point(r, 0.0, t - 1e-9))
        assert (above - below).norm() <= 1e-7


def test_calibration_field_unit_everywhere(cyl, rng, spec):
    for _ in range(50):
        r = rng.uniform(0.0, 0.98) * spec.R
        f_here = float(profile_height(spec, r))
        t = rng.uniform(cyl.t_cut + 1e-6, f_here + 0.8)
        q = Point(r, 0.0, t)
        assert abs(calibration_field(cyl, q).norm() - 1.0) <= 1e-12


def test_divergence_equals_twice_leaf_curvature(cyl, spec):
    eps = spec.params.epsilon
    # above the sphere: H = 1/(eps R)
    for (r, t) in [(0.5, 1.15), (0.2, 1.5), (0.62, 1.31)]:
        div, h_lam = calibration_divergence(cyl, Point(r, 0.05, t))
        assert h_lam == pytest.approx(1.0 / (eps * spec.R), rel=1e-12)
        assert 0.5 * div == pytest.approx(h_lam, rel=1e-5)
    # below: H = 1/(eps u)
    for (r, t) in [(0.3, 1.15), (0.3, 1.05), (0.1, 1.0)]:
        div, h_lam = calibration_divergence(cyl, Point(r, 0.05, t))
        lam = leaf_label(cyl, Point(r, 0.05, t))
        assert lam > spec.R
        assert h_lam == pytest.approx(1.0 / (eps * lam), rel=1e-12)
        assert 0.5 * div == pytest.approx(h_lam, rel=1e-5)
        assert 0.5 * div <= 1.0 / (eps * spec.R) + 1e-9


def test_divergence_monotone_along_vertical_lines(cyl, spec):
    for r in (0.1, 0.3, 0.5):
        f_here = float(profile_height(spec, r))
        ts = np.linspace(cyl.t_cut + 0.02, f_here - 0.02, 8)
        divs = [calibration_divergence(cyl, Point(r, 0.0, t))[0] for t in ts]
        assert all(b > a for a, b in zip(divs, divs[1:]))


def test_divergence_rejects_stencil_near_sphere(cyl, spec):
    r = 0.4
    t = float(profile_height(spec, r)) + 1e-7
    with pytest.raises(DomainError):
        calibration_divergence(cyl, Point(r, 0.0, t))


def test_divergence_rejects_stencil_crossing_the_sphere(spec):
    # near the rim |f_r| ~ 100, so the outward stencil point of a point 4 steps
    # below the sphere lies above it
    cyl = CylinderSpec(spec, 0.0)
    h = 1e-5 * spec.R
    r = 0.9999 * spec.R
    q = Point(r, 0.0, float(profile_height(spec, r)) - 4.0 * h)
    assert float(profile_height(spec, r + h)) < q.t
    with pytest.raises(DomainError):
        calibration_divergence(cyl, q)


def test_vertical_bound_base_cases(cyl, spec):
    vb = vertical_label_bound(cyl, 0.3, 0.0)
    assert vb.label == spec.R and vb.deficit == 0.0 and vb.floor == 0.0 and vb.satisfied


@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_vertical_bounds_hold_on_grid(spec, delta):
    cyl = CylinderSpec(spec, delta)
    consts = foliation_constants(spec)
    f0 = float(profile_height(spec, 0.0))
    rs = np.linspace(0.0, cyl.r_cut * 0.995, 40)
    f_rs = profile_height(spec, rs)
    depths = np.linspace(0.0, 0.999, 40)[None, :] * (f_rs[:, None] - cyl.t_cut)
    ts = f_rs[:, None] - depths
    labels = leaf_label_grid(cyl, np.broadcast_to(rs[:, None], ts.shape), ts)
    if delta == 0.0:
        floor = depths**2 / (4.0 * spec.R * consts.k**2 + f0**2)
    else:
        floor = math.sqrt(delta) * depths / (spec.R * consts.k + f0)
    margin = (1.0 - spec.R / labels) - floor
    assert margin.min() >= -1e-12


def test_vertical_growth_differential_inequality(cyl, spec):
    """g'(depth) >= sqrt(g - r_cut) / k along vertical lines (finite
    differences on the label)."""
    consts = foliation_constants(spec)
    h = 1e-5
    for r in (0.1, 0.35, 0.6):
        f_here = float(profile_height(spec, r))
        for depth in np.linspace(0.02, (f_here - cyl.t_cut) * 0.9, 6):
            g_minus = vertical_label_bound(cyl, r, depth - h).label
            g_plus = vertical_label_bound(cyl, r, depth + h).label
            g_mid = vertical_label_bound(cyl, r, depth).label
            slope = (g_plus - g_minus) / (2.0 * h)
            assert slope >= math.sqrt(max(g_mid - cyl.r_cut, 0.0)) / consts.k * (1.0 - 1e-9)


def test_vertical_bound_domain(cyl, spec):
    with pytest.raises(DomainError):
        vertical_label_bound(cyl, cyl.r_cut + 0.05, 0.1)
    with pytest.raises(DomainError):
        vertical_label_bound(cyl, 0.3, 10.0)


def test_divergence_raises_where_the_leaf_equation_is_lost_to_rounding():
    """At eps = 3042.9 and R = 0.0895 the profile is about 2.3e9 at r = 0.04,
    and the leaf through t = 0.5 has lam about 2e8: f_R(r; lam) and
    f_R(r_cut; lam) agree in every bit, so F_lam rounds to 0.  That point
    raises instead of giving NaN; far above it the divergence stays finite."""
    cyl = CylinderSpec(SphereSpec(ModelParams(3042.9, 0.0), 0.0895), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError) as info:
            calibration_divergence(cyl, Point(0.04, 0.0, 0.5))
        div, h_lam = calibration_divergence(cyl, Point(0.04, 0.0, 1e6))
    message = str(info.value)
    for part in ("Point(x=0.04, y=0.0, t=0.5)", "eps = 3042.9", "sigma = 0.0", "R = 0.0895"):
        assert part in message
    assert math.isfinite(div) and math.isfinite(h_lam)
