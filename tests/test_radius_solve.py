"""The radius solve R(r, t) over the whole documented domain: a hypothesis
property test of the round trip f <-> R, its Newton passes and its warnings;
a 50-digit mpmath oracle for the root; and a sympy check that the closed-form
partials f_r and f_R are the derivatives of the profile f."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from heisenberg_cmc import ModelParams, radius_field, sphere
from heisenberg_cmc.sphere import _f, _f_R, _f_r, _radius_solve

log_uniform = st.floats(math.log(1e-8), math.log(1e6)).map(math.exp)


def counting_radius_passes(passes):
    """A stand-in for the Newton core that appends the number of residual
    passes of each radius solve to `passes`."""
    newton = sphere._newton

    def wrapper(fun, x, lo, hi, done, what):
        calls = 0

        def counted(w):
            nonlocal calls
            calls += 1
            return fun(w)

        try:
            return newton(counted, x, lo, hi, done, what)
        finally:
            if what == "radius solve":
                passes.append(calls)

    return mock.patch.object(sphere, "_newton", wrapper)


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
    with counting_radius_passes(passes):
        R = radius_field(params, r, t).value
    assert abs(R - R0) <= 1e-12 * R0
    assert max(passes) <= 12


def mp_profile(eps, sigma, r, R):
    """The paper's f(r; R) = (eps^2 / 2 tau)[w(R)^2 arctan(p) + w(r)^2 p] in mpmath;
    eps^3 sqrt(R^2 - r^2) at sigma = 0."""
    e, s, r = mpmath.mpf(eps), mpmath.mpf(sigma), mpmath.mpf(r)
    if s == 0:
        return e**3 * mpmath.sqrt(R * R - r * r)
    tau = s / e**4
    w2 = lambda x: 1 + tau**2 * e**2 * x**2
    p = tau * e * mpmath.sqrt(R * R - r * r) / mpmath.sqrt(w2(r))
    return e**2 / (2 * tau) * (w2(R) * mpmath.atan(p) + w2(r) * p)


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
