import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from heisenberg_cmc import (
    ContractError,
    DomainError,
    ModelParams,
    Point,
    SphereSpec,
    euclidean_profile,
    foliation_normal,
    graph_mean_curvature_fd,
    outer_normal,
    pansu_profile,
    pansu_radius,
    profile_height,
    profile_height_R,
    profile_height_r,
    profile_quantities,
    radius_field,
    sphere_area,
    sphere_through,
    sphere_volume,
)
from heisenberg_cmc.sphere import _f

from conftest import GRID


def integral_profile(spec, r):
    """Independent oracle: the profile as the integral of its slope."""
    e, tau, R = spec.params.epsilon, spec.params.tau, spec.R
    with warnings.catch_warnings():
        # integrable rim singularity; quad warns about roundoff there
        warnings.simplefilter("ignore")
        val, _ = quad(
            lambda s: e**3 * math.sqrt((1.0 + tau**2 * e**2 * s**2) / (R**2 - s**2)) * s,
            r, R, epsabs=1e-13, epsrel=1e-12, limit=300, points=[R],
        )
    return val


def test_profile_vanishes_at_rim(spec):
    assert profile_height(spec, spec.R) == 0.0
    for g in GRID:
        assert profile_height(g, g.R) == 0.0


def test_profile_near_euclidean_value():
    spec = SphereSpec(ModelParams(1.0, 1e-8), 1.0)
    assert abs(profile_height(spec, 0.6) - 0.8) <= 1e-6


def test_profile_matches_integral_oracle(rng):
    for g in [GRID[0], GRID[13], GRID[-1], SphereSpec(ModelParams(1.0, 1.0), 1.0)]:
        for _ in range(5):
            r = rng.uniform(0.0, 0.98) * g.R
            assert profile_height(g, r) == pytest.approx(integral_profile(g, r), rel=1e-9)


def test_profile_strictly_decreasing(spec):
    rs = np.linspace(0.0, spec.R, 100)
    fs = profile_height(spec, rs)
    assert np.all(np.diff(fs) < 0.0)


def test_profile_domain_errors(spec):
    with pytest.raises(DomainError):
        profile_height(spec, -0.1)
    with pytest.raises(DomainError):
        profile_height(spec, spec.R * 1.01)
    with pytest.raises(DomainError):
        profile_height_r(spec, spec.R)
    with pytest.raises(DomainError):
        profile_height_R(spec, spec.R)


def test_slope_at_center_and_sign(spec):
    assert profile_height_r(spec, 0.0) == 0.0
    rs = np.linspace(0.01, 0.99, 50) * spec.R
    assert np.all(profile_height_r(spec, rs) < 0.0)


def test_slope_matches_finite_difference(spec):
    r, h = spec.R / 2.0, 1e-6
    fd = (profile_height(spec, r + h) - profile_height(spec, r - h)) / (2.0 * h)
    assert profile_height_r(spec, r) == pytest.approx(fd, rel=1e-7)


def test_growth_two_closed_forms_agree(rng):
    # arctan form vs the reciprocal-of-ell form
    for _ in range(20):
        eps = rng.uniform(0.5, 2.0)
        sig = rng.uniform(0.3, 2.0)
        R = rng.uniform(0.5, 2.0)
        g = SphereSpec(ModelParams(eps, sig), R)
        r = rng.uniform(0.0, 0.95) * R
        tau = g.params.tau
        p = tau * eps * math.sqrt(R**2 - r**2) / math.sqrt(1.0 + tau**2 * eps**2 * r**2)
        arctan_form = tau * eps**4 * R * (math.atan(p) + 1.0 / p)
        ell = 1.0 / (1.0 + p * math.atan(p))
        sigma_form = g.params.sigma * R / (p * ell)
        got = profile_height_R(g, r)
        assert got == pytest.approx(arctan_form, rel=1e-12)
        assert got == pytest.approx(sigma_form, rel=1e-12)


def test_growth_matches_finite_difference(params):
    r, h = 0.4, 1e-6
    fd = (_f(params, r, 1.0 + h) - _f(params, r, 1.0 - h)) / (2.0 * h)
    spec = SphereSpec(params, 1.0)
    assert profile_height_R(spec, r) == pytest.approx(fd, rel=1e-7)
    rs = np.linspace(0.0, 0.99, 40)
    assert np.all(profile_height_R(spec, rs) > 0.0)


def test_profile_quantities_invariants(spec):
    q = profile_quantities(spec, spec.R)
    assert q.p == 0.0 and q.ell == 1.0
    q2 = profile_quantities(spec, 0.3, hemisphere=-1)
    assert q2.p < 0.0 and q2.omega_r >= 1.0 and 0.0 < q2.ell <= 1.0
    assert q2.rho == spec.params.tau * spec.params.epsilon * 0.3


def test_radius_on_equatorial_plane(params):
    rf = radius_field(params, 0.7, 0.0)
    assert rf.value == 0.7
    assert rf.R_r == pytest.approx(1.0)
    assert rf.R_t == 0.0


def test_radius_roundtrip(rng):
    for _ in range(30):
        eps = rng.uniform(0.5, 2.0)
        sig = rng.uniform(0.3, 2.0)
        params = ModelParams(eps, sig)
        R0 = rng.uniform(0.2, 3.0)
        r = rng.uniform(0.0, 1.0) * R0
        t = float(profile_height(SphereSpec(params, R0), r)) * (1 if rng.uniform() < 0.5 else -1)
        if r == 0.0 and t == 0.0:
            continue
        assert abs(radius_field(params, r, t).value - R0) <= 1e-10 * max(1.0, R0)


@pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8])
def test_radius_roundtrip_at_small_eps(eps):
    params = ModelParams(eps, 1.0)
    spec = SphereSpec(params, 1.0)
    for r in np.linspace(0.1, 0.9, 5):
        t = float(profile_height(spec, r))
        assert abs(radius_field(params, float(r), t).value - 1.0) <= 1e-10


def test_radius_partials_match_finite_differences(params, rng):
    h = 1e-6
    for _ in range(10):
        r = rng.uniform(0.1, 1.5)
        t = rng.uniform(0.1, 1.5)
        rf = radius_field(params, r, t)
        fd_r = (radius_field(params, r + h, t).value - radius_field(params, r - h, t).value) / (2 * h)
        fd_t = (radius_field(params, r, t + h).value - radius_field(params, r, t - h).value) / (2 * h)
        assert rf.R_r == pytest.approx(fd_r, rel=1e-6)
        assert rf.R_t == pytest.approx(fd_t, rel=1e-6)


def test_radius_monotone_in_t_and_covers(params):
    rs = 0.8
    ts = np.linspace(0.0, 50.0, 200)
    vals = [radius_field(params, rs, t).value for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] == rs
    assert vals[-1] > 5.0  # reaches far out: image covers (r, infinity)


def test_radius_domain_error(params):
    with pytest.raises(DomainError):
        radius_field(params, 0.0, 0.0)


def test_sphere_through(params):
    spec = SphereSpec(params, 1.3)
    q = Point(0.5, 0.2, float(profile_height(spec, math.hypot(0.5, 0.2))))
    assert sphere_through(params, q).R == pytest.approx(1.3, rel=1e-12)


def test_outer_normal_equator_and_poles(spec):
    n = outer_normal(spec, Point(spec.R, 0.0, 0.0))
    assert n.as_array() == pytest.approx([1.0, 0.0, 0.0])
    f0 = float(profile_height(spec, 0.0))
    assert outer_normal(spec, Point(0.0, 0.0, f0)).as_array() == pytest.approx([0, 0, 1.0])
    assert outer_normal(spec, Point(0.0, 0.0, -f0)).as_array() == pytest.approx([0, 0, -1.0])


def test_outer_normal_unit_everywhere(rng, spec):
    for _ in range(100):
        r = rng.uniform(0.0, 1.0) * spec.R
        th = rng.uniform(0.0, 2 * math.pi)
        sg = 1.0 if rng.uniform() < 0.5 else -1.0
        q = Point(r * math.cos(th), r * math.sin(th), sg * float(profile_height(spec, r)))
        assert abs(outer_normal(spec, q).norm() - 1.0) <= 1e-12


def test_outer_normal_rejects_off_sphere(spec):
    with pytest.raises(ContractError):
        outer_normal(spec, Point(0.5, 0.0, 2.0))


def test_on_sphere_bound_is_relative_where_the_profile_is_tall():
    # f ~ 3.2e9 here, and `profile_height`'s own point misses f at the
    # rotated radius by 8.5e-5, far above 1e-8 * max(1, R)
    spec = SphereSpec(ModelParams(1525.5, 0.0), 9.94)
    t = float(profile_height(spec, 9.9))
    q = Point(9.9 * math.cos(1.1), 9.9 * math.sin(1.1), t)
    assert abs(outer_normal(spec, q).norm() - 1.0) <= 1e-12
    with pytest.raises(ContractError):
        outer_normal(spec, Point(q.x, q.y, 1.001 * t))


def test_foliation_normal_agrees_on_sphere(rng, spec):
    for _ in range(10):
        r = rng.uniform(0.05, 0.95)
        q = Point(r, 0.0, float(profile_height(spec, r)))
        a = outer_normal(spec, q)
        b = foliation_normal(spec.params, q)
        assert (a - b).norm() <= 1e-9


def test_area_volume_euclidean_limit():
    spec = SphereSpec(ModelParams(1.0, 1e-8), 1.0)
    assert abs(sphere_area(spec) - 4.0 * math.pi) <= 1e-4
    assert abs(sphere_volume(spec) - 4.0 * math.pi / 3.0) <= 1e-4


def test_volume_strictly_increasing_in_R(params):
    Rs = np.linspace(0.4, 2.4, 9)
    vols = [sphere_volume(SphereSpec(params, R)) for R in Rs]
    assert all(b > a for a, b in zip(vols, vols[1:]))


def test_area_volume_grow_when_R_doubles(params):
    a1, v1 = sphere_area(SphereSpec(params, 1.0)), sphere_volume(SphereSpec(params, 1.0))
    a2, v2 = sphere_area(SphereSpec(params, 2.0)), sphere_volume(SphereSpec(params, 2.0))
    assert a2 > a1 and v2 > v1


def test_pansu_profile_values():
    assert pansu_profile(2.0, 1.0, 0.0) == pytest.approx(2.0 * math.pi / 4.0)
    assert pansu_profile(1.0, 1.5, 1.5) == 0.0
    with pytest.raises(DomainError):
        pansu_profile(1.0, 1.0, 1.2)


@pytest.mark.parametrize("sigma", [2.5, -0.7, 0.0])
def test_pansu_profile_matches_mpmath_oracle(sigma):
    """(sigma/2)[R^2 arccos(r/R) + r sqrt(R^2 - r^2)] in 50 digits to 1e-14, at r = 0, inside
    and at r -> R.  The radii are dyadic, so that R^2 - r^2 is exact in floats and only the
    profile's own rounding shows, not that of R^2 - r^2 at the rim."""
    for R in (1.0, 0.75, 1536.0, 3.0 * 2.0**-20):
        top = math.frexp(R)[1]  # R < 2^top
        for r in (0.0, 0.5 * R, 0.25 * R, R - math.ldexp(1.0, top - 10), R - math.ldexp(1.0, top - 24), R):
            assert Fraction(R) ** 2 - Fraction(r) ** 2 == Fraction(R * R - r * r)
            with mpmath.workdps(50):
                s, Rm, rm = mpmath.mpf(sigma), mpmath.mpf(R), mpmath.mpf(r)
                exact = s / 2 * (Rm**2 * mpmath.acos(rm / Rm) + rm * mpmath.sqrt(Rm**2 - rm**2))
            assert abs(pansu_profile(sigma, R, r) - exact) <= 1e-14 * abs(exact)


def pansu_sample(rng, n=300):
    """(sigma, R, r, t) on limit spheres: sigma and R log-uniform in
    [1e-3, 1e3], r = 0 and r -> R included, both hemispheres."""
    sigma = 10.0 ** rng.uniform(-3.0, 3.0, n)
    R = 10.0 ** rng.uniform(-3.0, 3.0, n)
    u = rng.uniform(0.0, 1.0, n)
    u[:15] = 0.0
    u[15:30] = 1.0 - 10.0 ** rng.uniform(-12.0, -2.0, 15)
    r = u * R
    side = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    t = side * np.array([pansu_profile(*a) for a in zip(sigma, R, r)])
    return sigma, R, r, t


def test_pansu_radius_array_matches_scalar_bitwise(rng):
    _, R, r, t = pansu_sample(rng)
    # pansu_radius takes one sigma per call: put the points on that sigma's spheres
    for sigma in (1e-3, 0.7, 40.0):
        ts = np.array([pansu_profile(sigma, *a) for a in zip(R, r)]) * np.sign(t)
        radii = pansu_radius(sigma, r, ts)
        scalar = [pansu_radius(sigma, float(a), float(b)) for a, b in zip(r, ts)]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(radii, np.array(scalar))
    assert pansu_radius(1.0, r.reshape(30, 10), t.reshape(30, 10)).shape == (30, 10)


def test_pansu_radius_roundtrip(rng):
    for sigma, R, r, t in zip(*pansu_sample(rng)):
        R_back = pansu_radius(sigma, r, t)
        assert abs(R_back - R) <= 1e-13 * R
        assert abs(pansu_profile(sigma, R_back, r) - abs(t)) <= 1e-13 * abs(t)


def test_pansu_radius_matches_mpmath_oracle():
    points = [(1.0, 0.0, 0.8), (1e-3, 0.5, 0.3), (1e3, 2.0, 1e-4), (0.3, 7.0, 1.5e3),
              (2.0, 1.0 - 1e-9, 1e-8), (5.0, 0.02, 30.0),
              (1e-8, 1e-310, 1e3)]  # |t| / (sigma r) overflows: the start takes the other bound
    with mpmath.workdps(50):
        for sigma, r, t in points:
            s, rm, tm = mpmath.mpf(sigma), mpmath.mpf(r), mpmath.mpf(t)

            def F(R):
                return s / 2 * (R**2 * mpmath.acos(rm / R) + rm * mpmath.sqrt(R**2 - rm**2)) - tm

            lo = rm + mpmath.mpf(10) ** -40
            hi = rm + mpmath.sqrt(4 * tm / (mpmath.pi * s)) + 1
            exact = mpmath.findroot(F, (lo, hi), solver="anderson")
            assert abs(pansu_radius(sigma, r, t) - exact) <= 1e-15 * exact


def test_pansu_radius_domain():
    assert pansu_radius(1.0, 0.7, 0.0) == 0.7
    for sigma in (0.0, -1.0):
        with pytest.raises(DomainError):
            pansu_radius(sigma, 0.5, 0.2)
    with pytest.raises(DomainError):
        pansu_radius(1.0, -0.1, 0.2)
    with pytest.raises(DomainError):
        pansu_radius(1.0, np.array([0.5, -0.1]), 0.2)
    with pytest.raises(DomainError):
        pansu_radius(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        pansu_radius(1.0, np.array([0.3, 0.0]), np.array([0.1, 0.0]))
    with pytest.raises(DomainError):
        pansu_radius(1.0, 0.5, math.nan)


def test_profile_converges_to_pansu_as_eps_shrinks():
    sigma, R = 1.0, 1.0
    rs = np.linspace(0.0, R, 201)
    target = pansu_profile(sigma, R, rs)
    sups = []
    for eps in (0.5, 0.25, 0.125):
        spec = SphereSpec(ModelParams(eps, sigma), R)
        sups.append(float(np.max(np.abs(profile_height(spec, rs) - target))))
    assert sups[0] > sups[1] > sups[2]


def test_profile_converges_to_euclidean_as_tau_shrinks():
    R = 1.0
    rs = np.linspace(0.0, R, 201)
    target = euclidean_profile(R, rs)
    sups = []
    for tau in (1e-3, 5e-4, 2.5e-4):
        spec = SphereSpec(ModelParams.from_tau(1.0, tau), R)
        sups.append(float(np.max(np.abs(profile_height(spec, rs) - target))))
    assert sups[0] <= 1e-2
    assert sups[0] > sups[1] > sups[2]


def test_hemispheres_join_smoothly_at_equator(spec):
    """On the sphere, the radius as a function of height is even in t with
    slope tending to zero at the equator, so the two hemisphere graphs
    match to first order there (the surface has a vertical tangent)."""
    from scipy.optimize import brentq

    def radius_at_height(t):
        return brentq(
            lambda r: float(profile_height(spec, r)) - abs(t),
            0.0, spec.R, xtol=1e-15, rtol=8.9e-16,
        )

    slopes = []
    for t in (1e-2, 1e-3, 1e-4):
        h = 0.1 * t
        slope = (radius_at_height(t + h) - radius_at_height(t - h)) / (2.0 * h)
        assert radius_at_height(t) == pytest.approx(radius_at_height(-t), abs=1e-14)
        slopes.append(abs(slope))
    assert slopes[0] > slopes[1] > slopes[2]
    assert slopes[2] <= 1e-1


def test_graph_mean_curvature_is_constant(rng):
    # spot-check here; the full grid runs in the acceptance suite
    for g in [SphereSpec(ModelParams(1.0, 1.0), 1.0), SphereSpec(ModelParams(0.5, 2.0), 2.0)]:
        rs = rng.uniform(0.05, 0.9, size=25) * g.R
        h_fd = graph_mean_curvature_fd(g.params, lambda x: _f(g.params, x, g.R), rs, 1e-3 * g.R)
        assert np.max(np.abs(h_fd - g.H) / g.H) <= 1e-6


def test_mean_curvature_inverse_scaling(params):
    assert SphereSpec(params, 2.0).H == 0.5
    assert SphereSpec(ModelParams(0.5, 0.5), 2.0).H == 1.0
