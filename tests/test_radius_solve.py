"""The radius solve R(r, t) over the whole documented domain: a hypothesis
property test of the round trip f <-> R, its Newton passes and its warnings,
and the same for Pansu's radius; a 50-digit mpmath oracle for the root and
for its starting bound; a sympy proof that the profile is Pansu's profile at
a shifted radius and that one kernel evaluates both; and a sympy check that
the closed-form partials f_r and f_R are the derivatives of the profile f."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from heisenberg_cmc import ModelParams, pansu_profile, pansu_radius, radius_field, sphere
from heisenberg_cmc.sphere import _f, _f_R, _f_r, _kernel, _radius_solve

from conftest import counting_newton_passes, mp_profile

log_uniform = st.floats(math.log(1e-8), math.log(1e6)).map(math.exp)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(eps=log_uniform, size=log_uniform, sign=st.sampled_from([1.0, -1.0, 0.0]),
       R0=log_uniform, u=st.floats(0.0, 1.0), side=st.sampled_from([1.0, -1.0]))
def test_radius_solve_over_the_domain(eps, size, sign, R0, u, side):
    """Round trip to 1e-12, at most 12 Newton passes and (through the
    suite's filterwarnings setting) no RuntimeWarning, for log-uniform
    eps, |sigma| and R in [1e-8, 1e6], sigma of both signs and 0."""
    params = ModelParams(eps, sign * size)
    r = u * R0
    t = side * float(_f(params, r, R0))
    passes = []
    with counting_newton_passes(sphere, "radius solve", passes):
        R = radius_field(params, r, t).value
    assert abs(R - R0) <= 1e-12 * R0
    assert max(passes) <= 12


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
        assert abs(float(_radius_solve(params, r, t)) - exact) <= 1e-13 * exact


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
        got = [float(k(params, rv, Rv)) for k in (_f, _f_r, _f_R)]
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
    shared = _radius_solve(params, r, t)
    with mock.patch.object(sphere, "_atanc", lambda p, atan_p=None: atanc(p)):
        separate = _radius_solve(params, r, t)
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
    """Round trip to 1e-13, at most 12 Newton passes and (through the suite's
    filterwarnings setting) no RuntimeWarning, for log-uniform sigma and R in
    [1e-8, 1e6], the axis r = 0 and r/R = the least float included."""
    r = u * R0
    t = side * pansu_profile(sigma, R0, r)
    passes = []
    with counting_newton_passes(sphere, "pansu radius solve", passes):
        R = pansu_radius(sigma, r, t)
    assert abs(R - R0) <= 1e-13 * R0
    assert max(passes) <= 12


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
