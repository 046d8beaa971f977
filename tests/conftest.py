import math
from unittest import mock

import mpmath
import numpy as np
import pytest

from heisenberg_cmc import ModelParams, Point, SphereSpec, profile_height

GRID = [
    SphereSpec(ModelParams(e, s), R)
    for e in (0.5, 1.0, 2.0)
    for s in (0.5, 1.0, 2.0)
    for R in (0.5, 1.0, 2.0)
]


def sphere_point(spec, rng, lo=0.02, hi=0.98, hemisphere=None):
    """Random point on the sphere with radius fraction in (lo, hi)."""
    r = rng.uniform(lo, hi) * spec.R
    th = rng.uniform(0.0, 2.0 * math.pi)
    if hemisphere is None:
        sg = 1.0 if rng.uniform() < 0.5 else -1.0
    else:
        sg = float(hemisphere)
    t = sg * float(profile_height(spec, r))
    return Point(r * math.cos(th), r * math.sin(th), t)


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


def counting_newton_passes(module, what, passes):
    """A stand-in for `module`'s Newton core that appends the number of
    residual passes of each solve named `what` to `passes`."""
    newton = module._newton

    def wrapper(fun, x, lo, hi, done, name):
        calls = 0

        def counted(v):
            nonlocal calls
            calls += 1
            return fun(v)

        try:
            return newton(counted, x, lo, hi, done, name)
        finally:
            if name == what:
                passes.append(calls)

    return mock.patch.object(module, "_newton", wrapper)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def params():
    return ModelParams(1.0, 1.0)


@pytest.fixture
def spec(params):
    return SphereSpec(params, 1.0)
