"""The radius solve R(r, t) over the whole documented domain: a hypothesis
property test of the round trip f <-> R, its Newton passes, its start against
the 50-digit root of phi(q) = y and its warnings, and the same for Pansu's
radius; the two passes of the eps ladder; a 50-digit mpmath oracle for the
root, for the start's rationals and for its starting bound; a sympy proof that the profile is Pansu's profile at
a shifted radius and that one kernel evaluates both; a sympy check that
the closed-form partials f_r and f_R are the derivatives of the profile f;
the parity of the single-point wrappers with the array cores, in their
values, their float types and the errors they raise; and the typed errors
and starts where w(r) or the start's quotient overflows."""

import math
import sys
import threading
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from heisenberg_cmc import (DomainError, ModelParams, NumericsError, Point, SphereSpec,
                            foliation_normal, pansu_profile, pansu_radius, profile_quantities,
                            radius_field, sphere)
from heisenberg_cmc import _numerics
from heisenberg_cmc.meridians import meridian_field
from heisenberg_cmc.sphere import (_f, _f_r, _kernel, _leaf, _normal_components,
                                   profile_height_R)

from conftest import counting_newton_passes, mp_profile

log_uniform = st.floats(math.log(1e-8), math.log(1e6)).map(math.exp)

# `sphere._start` puts the solve's start at most this far above the root (relative)
START_BOUND = 4.2e-9


def mp_phi_inv(y):
    """q > 0 with phi(q) = q + (1 + q^2) arctan q = y > 0 in 50 digits, by Newton from
    min(y/2, sqrt(2y/pi)), which lies above it (phi is convex)."""
    with mpmath.workdps(50):
        y = mpmath.mpf(y)
        q = min(y / 2, mpmath.sqrt(2 * y / mpmath.pi))
        for _ in range(200):
            a = mpmath.atan(q)
            step = (q + (1 + q * q) * a - y) / (2 * (1 + q * a))
            q -= step
            if abs(step) <= mpmath.mpf(10) ** -45 * q:
                return q
    raise AssertionError("the 50-digit Newton did not converge")


def mp_gap_root(m, s, t):
    """The root g of F(g; m, s, s g/m) = t in 50 digits by the universal equation:
    g = (m/s) phi^-1(2 s t/m^2); t/m at s = 0 and sqrt(4 t/(pi s)) on the axis m = 0."""
    with mpmath.workdps(50):
        m, s, t = (mpmath.mpf(v) for v in (m, s, t))
        if t == 0 or s == 0 or m == 0:
            return t / m if s == 0 else mpmath.sqrt(4 * t / (mpmath.pi * s))
        return m / s * mp_phi_inv(2 * s * t / (m * m))


def assert_start_is_just_above_the_root(starts, m, s, t):
    """Both paths start at one float, which lies in [root, root (1 + START_BOUND)] in
    50 digits, or 1 ulp below the root at most where the start is the bound it is clipped
    at, a = |t|/m or b = sqrt(4|t|/(pi s)), rounded: a is the root at s = 0, b on the axis,
    and each is within the rounding of the root as lam = a/b tends to 0 or inf."""
    one, array = starts
    assert array.shape == (1,) and array[0] == one and type(one) is float
    root = mp_gap_root(m, s, t)
    with mpmath.workdps(50):
        assert root - math.ulp(one) <= one <= root * (1 + mpmath.mpf(START_BOUND))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(eps=log_uniform, size=log_uniform, sign=st.sampled_from([1.0, -1.0, 0.0]),
       R0=log_uniform, u=st.floats(0.0, 1.0), side=st.sampled_from([1.0, -1.0]))
def test_radius_solve_over_the_domain(eps, size, sign, R0, u, side):
    """Round trip to 1e-12, at most 3 Newton passes and (through the
    suite's filterwarnings setting) no RuntimeWarning, for log-uniform
    eps, |sigma| and R in [1e-8, 1e6], sigma of both signs and 0.  The
    single-point solve, on Python floats, gives the one-element array
    solve's root bit for bit in as many passes, and every field is a float.
    Both start at one float, just above the 50-digit root."""
    params = ModelParams(eps, sign * size)
    r = u * R0
    t = side * float(_f(params, r, R0))
    sphere._kept = (None, None)  # an earlier example's root would run no pass
    passes, starts = [], []
    with counting_newton_passes(sphere, "radius solve", passes, starts):
        field = radius_field(params, r, t)
        R_array = _leaf(params, np.array([r]), np.array([t]))[0]
    R = field.value
    assert all(type(v) is float for v in (field.value, field.R_r, field.R_t))
    assert abs(R - R0) <= 1e-12 * R0
    assert R_array.shape == (1,) and R_array[0] == R
    assert passes[0] == passes[1] <= 3
    assert_start_is_just_above_the_root(starts, sphere._mass(params, r), size * abs(sign), abs(t))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(eps=log_uniform, size=log_uniform, sign=st.sampled_from([1.0, -1.0, 0.0]),
       R0=log_uniform, u=st.floats(0.0, 1.0), side=st.sampled_from([1.0, -1.0]),
       theta=st.floats(0.0, 2.0 * math.pi))
def test_foliation_normal_is_the_row_of_the_array_core(eps, size, sign, R0, u, side, theta):
    """foliation_normal on one point, which runs on floats, equals the row of
    `_normal_components` on one-element arrays bit for bit, over the domain of
    test_radius_solve_over_the_domain, and its components are floats."""
    params = ModelParams(eps, sign * size)
    r = u * R0
    point = Point(r * math.cos(theta), r * math.sin(theta), side * float(_f(params, r, R0)))
    x, y, r, t = (np.array([v]) for v in (point.x, point.y, point.r, point.t))
    row = _normal_components(params, x, y, t, *sphere._leaf(params, r, t))[0]
    n = foliation_normal(params, point)
    assert all(type(v) is float for v in (n.aX, n.aY, n.aT))
    assert np.array_equal(n.as_array(), row)


finite = st.floats(-1e6, 1e6)
not_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(sigma=log_uniform, point=st.one_of(
    st.tuples(log_uniform.map(lambda v: -v), finite),  # r < 0
    st.sampled_from([(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0)]),  # the origin
    st.tuples(not_finite, finite | not_finite),
    st.tuples(st.floats(0.0, 1e6) | log_uniform.map(lambda v: -v), not_finite)))
def test_pansu_radius_rejects_a_bad_point_alike_on_both_paths(sigma, point):
    """The single point, checked by Python comparisons, and the same point as the
    second entry of an array, checked by one mask, raise the same DomainError."""
    r, t = point
    with pytest.raises(DomainError) as one:
        pansu_radius(sigma, r, t)
    with pytest.raises(DomainError) as many:
        pansu_radius(sigma, np.array([1.0, r]), np.array([0.5, t]))
    assert str(many.value) == str(one.value)


@pytest.mark.parametrize("eps,sigma,R,frac", [
    (1.0, 1.0, 1.0, 0.5),
    (7.73e-4, 1.05e-2, 0.106, 0.5203),  # |t| < 1: an absolute stopping test ends early here
    (1e-6, 1.0, 1.0, 0.5),
    (1e-6, 1.0, 1.0, 0.1),
    (1e-6, 2.5, 0.7, 0.9),
    (1e-8, 1.0, 1.0, 0.5),
    (1e-8, 1e6, 1e-8, 0.3),
    (1e6, 1e-8, 1e6, 0.7),
    (0.3, 0.0, 2.0, 0.4),
    (0.05, -2.0, 1.5, 0.999),
    (2.0, 0.5, 1e-4, 0.0),
    (1e-3, 3.0, 4.0, 1e-6),
    (0.1, 1.0, 1e3, 0.6),
    # |sigma| down to the least float, where sqrt(4|t|/(pi |sigma|)) overflows
    *[(eps, sigma, 1.3, 0.4 / 1.3) for sigma in (5e-324, -1e-300, 1e-160)
      for eps in (1e-8, 1.0, 1e6)],
])
def test_radius_solve_matches_50_digit_root(eps, sigma, R, frac):
    params = ModelParams(eps, sigma)
    r = frac * R
    t = float(_f(params, r, R))
    with mpmath.workdps(50):
        exact = mpmath.findroot(lambda x: mp_profile(eps, sigma, r, x) - t, mpmath.mpf(R))
        assert abs(float(_leaf(params, r, t)[0]) - exact) <= 1e-13 * exact


def test_numpy_scalar_parameters_give_float_fields():
    """eps and sigma given as np.float64 give the fields of Python float parameters bit for
    bit, and as floats: the single-point solve converts them, so no numpy scalar leaks."""
    point = Point(0.18, 0.24, 0.2)
    for params in (ModelParams(1e-3, 1.3), ModelParams(np.float64(1e-3), np.float64(1.3))):
        field = radius_field(params, 0.3, 0.2)
        n = foliation_normal(params, point)
        assert all(type(v) is float for v in (field.value, field.R_r, field.R_t, n.aX, n.aY, n.aT))
    assert field == radius_field(ModelParams(1e-3, 1.3), 0.3, 0.2)


@pytest.mark.parametrize("eps", [1e-60, 1e-70])
def test_single_points_where_w_overflows_raise(eps):
    """Past tau eps r of about 1.3e154, w(r) overflows, where the solve started at |t|/inf = 0
    and returned R = r, and then raised NumericsError.  m(r) = eps^3 w(r) = hypot(eps^3, r)
    is 0.5 here, Pansu's m = sigma r, so the single-point functions give Pansu's sphere:
    its radius 0.5352 bit for bit, its horizontal unit normal and its p = g/r."""
    params = ModelParams(eps, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = radius_field(params, 0.5, 0.1)
        n = foliation_normal(params, Point(0.3, 0.4, 0.1))
        q = profile_quantities(SphereSpec(params, 1.0), 0.5)
    R = pansu_radius(1.0, 0.5, 0.1)
    assert field.value == R == pytest.approx(0.5352282214722702, rel=1e-15)
    g = math.sqrt(R * R - 0.25)
    ell = 1.0 / (1.0 + g / 0.5 * math.atan(g / 0.5))
    assert field.R_r == pytest.approx(0.5 * ell / R, rel=1e-14)
    assert field.R_t == pytest.approx(g * ell / (0.5 * R), rel=1e-14)
    expected = ((0.3 + 0.4 * g / 0.5) / R, (0.4 - 0.3 * g / 0.5) / R, 0.0)
    assert n.as_array() == pytest.approx(expected, rel=1e-14, abs=1e-15)
    assert n.norm() == pytest.approx(1.0, abs=1e-15)
    assert q.p == pytest.approx(math.sqrt(0.75) / 0.5, rel=1e-15)
    assert q.ell == pytest.approx(1.0 / (1.0 + q.p * math.atan(q.p)), rel=1e-15)
    assert q.omega_r == pytest.approx(0.5 / eps**3, rel=1e-15)
    assert q.rho == pytest.approx(0.5 / eps**3, rel=1e-15)


def test_radius_solves_whose_start_quotient_overflows():
    """4|t|/(pi s) overflows at these points, so sqrt(|t|) sqrt(4/(pi s)) bounds the start.
    The radius field's root is g = 1.13e200, 332 halvings below |t|/m = 1e300, where its solve
    ran out of passes; Pansu's radius returned inf.  Both paths give the root."""
    params = ModelParams(1.0, 1e-100)
    with mpmath.workdps(50):  # in units of the root's scale, as findroot's tolerance is absolute
        t = mpmath.mpf(1e300)
        exact = 1e200 * mpmath.findroot(lambda u: mp_profile(1.0, 1e-100, 1.0, 1e200 * u) / t - 1,
                                        mpmath.mpf(1.13))
    field = radius_field(params, 1.0, 1e300)
    assert abs(field.value - exact) <= 1e-14 * exact
    assert _leaf(params, np.array([1.0]), np.array([1e300]))[0][0] == field.value
    with mpmath.workdps(50):
        s = mpmath.mpf(1e-200)
        exact = 1e250 * mpmath.findroot(
            lambda u: s / 2 * ((1e250 * u) ** 2 * mpmath.acos(1 / (1e250 * u))
                               + mpmath.sqrt((1e250 * u) ** 2 - 1)) / t - 1, mpmath.mpf(1.13))
    R = pansu_radius(1e-200, 1.0, 1e300)
    assert abs(R - exact) <= 1e-14 * exact
    assert pansu_radius(1e-200, np.array([1.0]), np.array([1e300]))[0] == R


def test_profile_partials_are_derivatives_of_the_profile():
    e, tau, r, R = sp.symbols("epsilon tau r R", positive=True)
    w = lambda x: sp.sqrt(1 + tau**2 * e**2 * x**2)
    sq = sp.sqrt(R**2 - r**2)
    p = tau * e * sq / w(r)
    f = e**2 / (2 * tau) * (w(R)**2 * sp.atan(p) + w(r)**2 * p)
    f_r, f_R = sp.diff(f, r), sp.diff(f, R)
    # the closed forms the sphere module's docstring states
    assert sp.simplify(f_r + e**3 * r * w(r) / sq) == 0
    assert sp.simplify(f_R - e**3 * R * w(r) * (1 + p * sp.atan(p)) / sq) == 0
    # and the library's kernels evaluate them
    exprs = sp.lambdify((e, tau, r, R), (f, f_r, f_R), "mpmath")
    for eps, sigma, Rv, frac in [(1.0, 1.0, 1.0, 0.3), (0.5, 2.0, 1.5, 0.8), (2.0, 0.25, 0.6, 0.05),
                                 (0.1, 1.0, 2.0, 0.5), (1e-3, 0.7, 0.9, 0.99)]:
        params = ModelParams(eps, sigma)
        rv = frac * Rv
        with mpmath.workdps(50):
            want = [float(v) for v in exprs(mpmath.mpf(eps), mpmath.mpf(sigma) / mpmath.mpf(eps)**4,
                                            mpmath.mpf(rv), mpmath.mpf(Rv))]
        got = [float(k(params, rv, Rv)) for k in (_f, _f_r)]
        got.append(profile_height_R(SphereSpec(params, Rv), rv))
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("eps, sigma", [(1.0, 1.0), (1e-5, 2.0), (0.3, -0.7), (2.0, 0.0), (1.0, 1e-9)])
def test_radius_solve_with_one_shared_arctan_is_bit_identical(eps, sigma):
    """Each Newton pass takes arctan(q) once for both atanc(q) and F'; letting
    atanc take its own, as it does when given none, changes no bit of the radii."""
    params = ModelParams(eps, sigma)
    rng = np.random.default_rng(20)
    R0 = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 400))
    r = np.concatenate([rng.uniform(0.0, 1.0, 390), 1.0 - 2.0**-40 * np.arange(10)]) * R0
    t = rng.choice([-1.0, 1.0], 400) * _f(params, r, R0)
    atanc = sphere._atanc
    shared = _leaf(params, r, t)[0]
    with mock.patch.object(sphere, "_atanc", lambda p, atan_p=None: atanc(p)):
        separate = _leaf(params, r, t)[0]
    assert np.array_equal(shared, separate)


def test_profile_is_pansu_profile_at_a_shifted_radius():
    """f(r; R) = (sigma/2)[R'^2 arccos(r'/R') + r' sqrt(R'^2 - r'^2)] with
    r' = hypot(r, c), R' = hypot(R, c) and c = eps^3/sigma: their difference D
    and dD/dR vanish at R = r, and dD/dR over R is constant in R, so D = 0 for
    all R >= r.  The profile is even in sigma, so |sigma| serves both signs."""
    e, s, r, R = sp.symbols("epsilon sigma r R", positive=True)
    tau = s / e**4
    w = lambda x: sp.sqrt(1 + tau**2 * e**2 * x**2)
    p = tau * e * sp.sqrt(R**2 - r**2) / w(r)
    f = e**2 / (2 * tau) * (w(R)**2 * sp.atan(p) + w(r)**2 * p)
    c = e**3 / s
    rs, Rs = sp.sqrt(r**2 + c**2), sp.sqrt(R**2 + c**2)
    D = f - s / 2 * (Rs**2 * sp.acos(rs / Rs) + rs * sp.sqrt(Rs**2 - rs**2))
    dD = sp.simplify(sp.diff(D, R))
    assert sp.simplify(D.subs(R, r)) == 0
    assert dD.subs(R, r) == 0
    assert sp.simplify(sp.diff(dD / R, R)) == 0
    assert sp.simplify(f.subs(s, -s) - f) == 0


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(sigma=log_uniform, R0=log_uniform, side=st.sampled_from([1.0, -1.0]),
       u=st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0.0, 1.0)))
def test_pansu_radius_over_the_domain(sigma, R0, side, u):
    """Round trip to 1e-13, at most 3 Newton passes and (through the suite's
    filterwarnings setting) no RuntimeWarning, for log-uniform sigma and R in
    [1e-8, 1e6], the axis r = 0 and r/R = the least float included.  The
    single-point solve gives the one-element array solve's root bit for bit
    in as many passes, and both start at one float, just above the 50-digit root."""
    r = u * R0
    t = side * pansu_profile(sigma, R0, r)
    sphere._kept = (None, None)  # an earlier example's root would run no pass
    passes, starts = [], []
    with counting_newton_passes(sphere, "pansu radius solve", passes, starts):
        R = pansu_radius(sigma, r, t)
        R_array = pansu_radius(sigma, np.array([r]), np.array([t]))
    assert abs(R - R0) <= 1e-13 * R0
    assert R_array.shape == (1,) and R_array[0] == R
    assert passes[0] == passes[1] <= 3
    assert_start_is_just_above_the_root(starts, sigma * r, sigma, abs(t))


def test_one_kernel_is_both_profiles():
    """F(g; m, s, q) = (g/2)[m (1 + atanc q) + s g arctan q], g = sqrt(R^2 - r^2), is the
    paper's f at m = eps^3 w(r), s = sigma, q = p and Pansu's profile
    (sigma/2)[R^2 arccos(r/R) + r g] at m = sigma r, s = sigma, q = g/r; F' = m + s g arctan q
    is dF/dg where s g = m q; and `sphere._kernel` evaluates F/g and F'."""
    e, s, r, g, m, q, u = sp.symbols("epsilon sigma r g m q u", positive=True)
    F = g / 2 * (m * (1 + sp.atan(q) / q) + s * g * sp.atan(q))
    dF = m + s * g * sp.atan(q)
    assert sp.simplify(sp.diff(F.subs(q, s * g / m), g) - dF.subs(q, s * g / m)) == 0
    tau = s / e**4
    w = lambda x: sp.sqrt(1 + tau**2 * e**2 * x**2)
    p = tau * e * g / w(r)
    f = e**2 / (2 * tau) * (w(sp.sqrt(r**2 + g**2))**2 * sp.atan(p) + w(r)**2 * p)
    assert sp.simplify(F.subs({m: e**3 * w(r), q: p}) - f) == 0
    # Pansu's profile at g = u r, where arccos(r/R) = arccos(1/sqrt(1 + u^2)) = arctan(u)
    acos = sp.acos(1 / sp.sqrt(1 + u**2))
    assert sp.simplify(sp.diff(acos - sp.atan(u), u)) == 0 and acos.subs(u, 0) == 0
    R = r * sp.sqrt(1 + u**2)
    pansu = s / 2 * (R**2 * sp.acos(r / R) + r * u * r)
    assert sp.simplify(F.subs({m: s * r, q: u, g: u * r}) - pansu.subs(acos, sp.atan(u))) == 0
    exprs = sp.lambdify((g, m, s, q), (F / g, dF), "mpmath")
    for gv, mv, sv in [(0.3, 1.0, 1.0), (2.0, 1e-3, 0.5), (1e-4, 2.0, -1.5), (7.0, 1e6, 1e-9)]:
        qv = sv * gv / mv
        with mpmath.workdps(50):
            want = [float(v) for v in exprs(*map(mpmath.mpf, (gv, mv, sv, qv)))]
        assert np.allclose(_kernel(gv, mv, sv, qv), want, rtol=4e-16, atol=0.0)
    # sigma = 0 gives F = m g, and Pansu's axis m = 0, q = inf gives F = (pi/4) s g^2
    assert np.array_equal(_kernel(0.3, 1.5, 0.0, 0.0), (1.5, 1.5))
    assert np.allclose(_kernel(2.0, 0.0, 1.5, np.inf), (0.75 * math.pi, 1.5 * math.pi), rtol=4e-16)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(eps=log_uniform, size=log_uniform, sign=st.sampled_from([1.0, -1.0, 0.0]),
       R0=log_uniform, u=st.floats(0.0, 1.0))
def test_radius_solve_starts_above_the_root(eps, size, sign, R0, u):
    """F(g0) >= 0 in 50 digits for g0 = min(|t|/m, sqrt(4|t|/(pi |sigma|))),
    m = eps^3 w(r), with F(g) = f(r; hypot(r, g)) - |t| in the paper's form,
    over the domain of test_radius_solve_over_the_domain.  At sigma = 0 g0 is
    the root, so F(g0) is 0 up to the 50-digit roundoff."""
    sigma = sign * size
    r = u * R0
    t = float(_f(ModelParams(eps, sigma), r, R0))
    with mpmath.workdps(50):
        e, s, rm, tm = (mpmath.mpf(v) for v in (eps, abs(sigma), r, t))
        g0 = tm / (e**3 * mpmath.sqrt(1 + (s * rm / e**3) ** 2))
        if s > 0:
            g0 = min(g0, mpmath.sqrt(4 * tm / (mpmath.pi * s)))
        F = mp_profile(eps, sigma, r, mpmath.sqrt(rm * rm + g0 * g0)) - tm
        assert F >= -mpmath.mpf(10) ** -45 * tm


def test_phi_is_the_kernel_in_q():
    """F(g; m, s, q) = (m^2/2s) phi(q) at q = s g/m, so both radius solves are phi(q) = y."""
    g, m, s = sp.symbols("g m s", positive=True)
    q = s * g / m
    F = g / 2 * (m * (1 + sp.atan(q) / q) + s * g * sp.atan(q))
    assert sp.simplify(F - m**2 / (2 * s) * (q + (1 + q**2) * sp.atan(q))) == 0


def test_phi_inverse_rationals_lie_just_above_phi_inverse():
    """`_phi_inv_left` at u = lam^4 and `_phi_inv_right` at k = 1/lam, on 240 points of [0, 1]
    (uniform and Chebyshev-clustered at both ends), are 2e-13 to 4.1e-9 above
    phi^-1(y)/(y/2) and phi^-1(y)/sqrt(2y/pi) in 50 digits, y = 8 lam^2/pi at the float u or k;
    both ratios tend to 1 at u = 0 and k = 0."""
    nodes = np.unique(np.concatenate([np.linspace(0.0, 1.0, 121),
                                      0.5 - 0.5 * np.cos(np.linspace(0.0, math.pi, 121))]))
    with mpmath.workdps(50):
        for x in nodes.tolist():
            u = x * x * (x * x)
            y = 8 * mpmath.sqrt(u) / mpmath.pi
            left = mp_phi_inv(y) / (y / 2) if u else 1
            y = 8 / (mpmath.pi * x * x) if x else None
            right = mp_phi_inv(y) / mpmath.sqrt(2 * y / mpmath.pi) if x else 1
            assert 2e-13 <= sphere._phi_inv_left(u) / left - 1 <= 4.1e-9
            assert 2e-13 <= sphere._phi_inv_right(x) / right - 1 <= 4.1e-9


@pytest.mark.parametrize("solve, sigma, r, t", [
    ("radius solve", 1e-100, 1.0, 1e300),  # 4|t|/(pi s) overflows
    ("pansu radius solve", 1e-200, 1.0, 1e300),
    *[("radius solve", sigma, 0.4, 0.3) for sigma in (5e-324, 1e-300, 1e-160)],
    ("pansu radius solve", 1.0, 0.0, 0.5),  # the axis
    ("pansu radius solve", 1.0, 5e-324, 0.5),
])
def test_starts_at_the_extreme_points(solve, sigma, r, t):
    """The start oracle where the start quotient overflows, at |sigma| down to the least
    float (eps = 1) and on or next to Pansu's axis."""
    params = ModelParams(1.0, sigma)
    starts = []
    with counting_newton_passes(sphere, solve, [], starts):
        if solve == "radius solve":
            radius_field(params, r, t)
            _leaf(params, np.array([r]), np.array([t]))
        else:
            pansu_radius(sigma, r, t)
            pansu_radius(sigma, np.array([r]), np.array([t]))
    m = sphere._mass(params, r) if solve == "radius solve" else sigma * r
    assert_start_is_just_above_the_root(starts, m, sigma, t)


def test_the_sub_riemannian_ladder_takes_two_passes():
    """Every radius solve and Pansu radius solve on a grid like the benchmark's limit ladder
    (eps = 1 to 1e-6, sigma in [0.25, 4], R in [0.5, 4], r/R in [0.02, 0.98], both
    hemispheres) takes 2 Newton passes, on one point and on arrays alike.  A single-point
    pansu_radius right after radius_field at its point runs none, and reuses the kept root,
    exactly where m(r) rounds to sigma r, so that the two solve one equation."""
    rng = np.random.default_rng(30)
    passes, reused, limit = [], [], []
    for eps in 10.0 ** -np.arange(7):
        for sigma, R in zip(np.geomspace(0.25, 4.0, 5), np.geomspace(0.5, 4.0, 5)[::-1]):
            params = ModelParams(eps, sigma)
            r = R * rng.uniform(0.02, 0.98, 4)
            t = np.array([-1.0, 1.0, -1.0, 1.0]) * _f(params, r, R)
            with counting_newton_passes(sphere, "radius solve", passes), \
                    counting_newton_passes(sphere, "pansu radius solve", passes):
                for ri, ti in zip(r.tolist(), t.tolist()):
                    radius_field(params, ri, ti)
                    solved = len(passes)
                    pansu_radius(sigma, ri, ti)
                    reused.append(len(passes) == solved)
                    limit.append(sphere._mass(params, ri) == sigma * ri)
                _leaf(params, r, t)
                pansu_radius(sigma, r, t)
    assert len(passes) + sum(reused) == 7 * 5 * 10 and set(passes) == {2}
    assert reused == limit and any(limit) and not all(limit)


# ------------------------------------------------------------ the kept root


def outcome(call):
    """repr of a call's value, or its error's type and message."""
    try:
        return repr(call())
    except Exception as exc:  # the error is the outcome
        return f"{type(exc).__name__}: {exc}"


def fresh(call):
    """outcome(call) with the kept root emptied, which is put back after."""
    kept, sphere._kept = sphere._kept, (None, None)
    try:
        return outcome(call)
    finally:
        sphere._kept = kept


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(eps=log_uniform | st.sampled_from([2e-108, 1e-120]),  # eps^3 subnormal, and 0
       size=log_uniform, sign=st.sampled_from([1.0, -1.0, 0.0]), R0=log_uniform,
       u=st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0), side=st.sampled_from([1.0, -1.0]),
       zero=st.sampled_from([None, 0.0, -0.0]), theta=st.sampled_from([0.0]) | st.floats(0.0, 6.3),
       order=st.lists(st.integers(0, 3), min_size=1, max_size=8))
# m(r) = 0.0 for radius_field, m = -0.0 for pansu_radius: equal keys, apart solves
@example(eps=1e-120, size=1.0, sign=1.0, R0=1.0, u=-0.0, side=1.0, zero=None, theta=0.0,
         order=[0, 2])
def test_single_point_calls_in_any_order_equal_a_fresh_solve(eps, size, sign, R0, u, side, zero,
                                                             theta, order):
    """radius_field, foliation_normal, pansu_radius and meridian_field at one point, called in any
    order and with repeats, give repr for repr what each gives with the kept root emptied, errors
    included: t = +-0.0, r = 0 (Pansu's axis, m = 0), sigma = 0 and eps^3 subnormal or 0."""
    params = ModelParams(eps, sign * size)
    r = u * R0
    t = side * float(_f(params, r, R0)) if zero is None else zero
    point = Point(r * math.cos(theta), r * math.sin(theta), t)
    calls = (lambda: radius_field(params, r, t), lambda: foliation_normal(params, point),
             lambda: pansu_radius(size, r, t), lambda: meridian_field(params, point))
    sphere._kept = (None, None)
    for i in order:
        assert outcome(calls[i]) == fresh(calls[i])


def test_a_kept_root_runs_no_newton_pass():
    """After radius_field at (r, t), foliation_normal at Point(r, 0, t) solves nothing, nor does
    pansu_radius where m(r) rounds to sigma r (eps = 1e-5); at eps = 1 its equation is not the
    leaf's, and it takes its 2 passes."""
    r, sigma, R = 0.6, 1.3, 0.9
    for eps, pansu in ((1e-5, 0), (1.0, 2)):
        params = ModelParams(eps, sigma)
        t = float(_f(params, r, R))
        radius_field(params, r, t)
        normal, limit = [], []
        with counting_newton_passes(sphere, "radius solve", normal), \
                counting_newton_passes(sphere, "pansu radius solve", limit):
            foliation_normal(params, Point(r, 0.0, t))
            pansu_radius(sigma, r, t)
        assert normal == [] and limit == ([] if pansu == 0 else [pansu])


def test_a_solve_that_raises_leaves_the_kept_root_and_raises_again():
    """A solve cut to one Newton pass raises; the kept root stays the last good one, and the same
    call raises again rather than return a root kept for it.  With its passes back it solves."""
    params = ModelParams(1e-3, 1.3)
    field = radius_field(params, 0.3, 0.2)
    kept = sphere._kept
    with mock.patch.object(_numerics, "_NEWTON_PASSES", 1):
        for _ in range(2):
            with pytest.raises(NumericsError, match="radius solve did not converge"):
                radius_field(params, 0.4, 0.2)
            assert sphere._kept is kept
    assert repr(radius_field(params, 0.4, 0.2)) == fresh(lambda: radius_field(params, 0.4, 0.2))
    assert fresh(lambda: radius_field(params, 0.3, 0.2)) == repr(field)


def test_array_solves_neither_read_nor_write_the_kept_root():
    """A kept root planted under the key of an array's point is not returned for it, and the
    array solve leaves the entry as it was."""
    params = ModelParams(1e-3, 1.3)
    r, t = np.array([0.3]), np.array([0.2])
    want = _leaf(params, r, t)
    key = (sphere._mass(params, 0.3), 1.3, 0.2)
    sphere._kept = planted = (key, -1.0)
    got = _leaf(params, r, t)
    assert sphere._kept is planted
    assert all(np.array_equal(a, b) for a, b in zip(got, want)) and got[1][0] > 0.0
    sphere._kept = (None, None)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(eps=log_uniform, size=log_uniform, sign=st.sampled_from([1.0, -1.0, 0.0]),
       R0=log_uniform, u=st.floats(0.0, 1.0), side=st.sampled_from([1.0, -1.0, 0.0]))
def test_radius_field_with_one_arctan_is_bit_identical(eps, size, sign, R0, u, side):
    """radius_field takes arctan(p) once for ell(p) and F'; letting each take its own, as they
    do when given none, changes no bit of the field."""
    params = ModelParams(eps, sign * size)
    r = u * R0
    t = side * float(_f(params, r, R0)) if r or side else 1.0
    ell, kernel = sphere._ell, sphere._kernel
    shared = outcome(lambda: radius_field(params, r, t))
    with mock.patch.object(sphere, "_ell", lambda p, atan_p=None: ell(p)), \
            mock.patch.object(sphere, "_kernel", lambda g, m, s, q, atan_q=None: kernel(g, m, s, q)):
        assert fresh(lambda: radius_field(params, r, t)) == shared


def test_threads_that_share_the_kept_root_each_get_their_own_root():
    """Four threads, more than a CI runner's cores, solve one point each over and over while the
    interpreter switches threads every microsecond: a thread that read a key next to another
    point's root would return that point's radius."""
    params = ModelParams(1e-3, 1.3)
    points = [(0.1 * k, 0.2) for k in range(1, 5)]
    want = [fresh(lambda r=r, t=t: radius_field(params, r, t)) for r, t in points]
    wrong, start = [], threading.Barrier(4, timeout=60.0)

    def solve(k):
        start.wait()  # all four run at once
        for _ in range(2000):
            if repr(radius_field(params, *points[k])) != want[k]:
                wrong.append(k)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and wrong == []
