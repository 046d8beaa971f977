import math
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest

from heisenberg_cmc import ContractError, DomainError, ModelParams, Point, SphereSpec, profile_height
from heisenberg_cmc.ambient import christoffel_frame
from heisenberg_cmc.isoperimetry import jacobi_potential, normal_component
from heisenberg_cmc.sphere import _f, _f_r

GRID = [
    SphereSpec(ModelParams(e, s), R)
    for e in (0.5, 1.0, 2.0)
    for s in (0.5, 1.0, 2.0)
    for R in (0.5, 1.0, 2.0)
]
# single `verify` specs: the default, the specs that failed the Jacobi mesh, eps = 0.01 and 1e-5,
# sigma = 0 and a negative sigma
SINGLE = [SphereSpec(ModelParams(e, s), R) for e, s, R in (
    (1.0, 1.0, 1.0), (0.7, 1.0, 1.0), (0.3, 1.0, 1.0), (1.0, 4.0, 1.0), (1.0, 1.0, 0.5),
    (1.0, 0.25, 1.0), (0.01, 1.0, 1.0), (1e-5, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, -2.0, 1.5))]
# spheres at sigma = 0 where eps^3 is subnormal, with a radius fraction of a point on each: m(r) =
# eps^3 there, below the normal floats; at the second the height f underflows to 0
SUBNORMAL_FLAT = [(SphereSpec(ModelParams(2e-108, 0.0), 1.0), 0.5),
                  (SphereSpec(ModelParams(2.1238536750469082e-108, 0.0), 0.003511482242372241),
                   0.861042847404853)]


def table_connect(tau, u, v):
    """nabla_u v as the contraction of u and v with the (..., 3, 3, 3) table `christoffel_frame`
    of tau: the oracle of `ambient._connect`'s closed form."""
    return np.einsum("...i,...j,...ijk->...k", u, v, christoffel_frame(SimpleNamespace(tau=tau)))


def table_curvature_operator(params, u, v, w):
    """R(u, v)w by seven `table_connect` calls: the oracle of `ambient._curvature_operator`."""
    bracket = table_connect(params.tau, u, v) - table_connect(params.tau, v, u)
    return (table_connect(params.tau, u, table_connect(params.tau, v, w))
            - table_connect(params.tau, v, table_connect(params.tau, u, w))
            - table_connect(params.tau, bracket, w))


def leaf_equation(cyl, r, t, lam):
    """F(r, t, lam) = f(r; lam) - f(r_cut; lam) + t_cut - t, whose root lam > R labels the point
    (r, t) below the graph: the oracle of `foliation._residual`.  At t = 0 it is the height of
    the leaf lam over the radius r."""
    return float(_f(cyl.params, r, lam) - _f(cyl.params, cyl.r_cut, lam) + cyl.t_cut - t)


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


# The full (r, theta) flux-form mesh of the upper graph, with the subtracted metric
# determinant: the discretization oracle of `jacobi_residual`'s closed form.
def _jacobi_residual_mesh(
    spec: SphereSpec,
    which: str,
    n: int = 400,
    band: float = 0.05,
) -> float:
    """Max |L g| on a mesh of the upper graph for a right-invariant
    normal component g.

    The Laplace-Beltrami operator is discretized in graph polar
    coordinates (r, theta) in flux form with analytic metric coefficients
    and second-order central differences of g; n sets both the radial
    spacing R/n and the angular spacing 2 pi / n.  Bands of width
    `band`*R around the poles and the equator are excluded.
    """
    if which not in ("x", "y", "t"):
        raise ContractError(f"which must be 'x', 'y' or 't', got {which!r}")
    params, R = spec.params, spec.R
    e, s = params.epsilon, params.sigma
    h = R / n
    r = np.arange(band * R, R * (1.0 - band) + 0.5 * h, h)
    if len(r) < 5:
        raise DomainError("mesh too coarse for the interior stencil")
    dth = 2.0 * math.pi / n
    th = np.arange(n) * dth

    def metric_coeffs(rv):
        fr = _f_r(params, rv, R)
        g_rr = e * e + fr * fr / e**4
        g_tt = e * e * rv * rv + s * s * rv**4 / e**4
        g_rt = s * rv * rv * fr / e**4
        det = g_rr * g_tt - g_rt * g_rt
        sq = np.sqrt(det)
        return g_tt / sq, -g_rt / sq, g_rr / sq, sq  # a, b, c, sqrt(det)

    a, b, c, sq = metric_coeffs(r)
    ah, bh, _, _ = metric_coeffs(r + 0.5 * h)

    # g at theta = 0, turned by the rotations about the t-axis, which preserve
    # the sphere: g_x + i g_y turns with e^{i theta}, g_t does not
    pt = (r[:, None], 0.0, _f(params, r, R)[:, None])
    if which == "t":
        g = np.broadcast_to(normal_component(spec, "t", pt), (len(r), n))
    else:
        gx, gy = (normal_component(spec, w, pt) for w in "xy")
        cs, sn = np.cos(th), np.sin(th)
        g = gx * cs - gy * sn if which == "x" else gx * sn + gy * cs

    def dtheta(arr):
        return (np.roll(arr, -1, axis=1) - np.roll(arr, 1, axis=1)) / (2.0 * dth)

    # radial fluxes at half nodes i+1/2
    g_r_half = (g[1:, :] - g[:-1, :]) / h
    g_t = dtheta(g)
    g_t_half = 0.5 * (g_t[1:, :] + g_t[:-1, :])
    flux_r = ah[:-1, None] * g_r_half + bh[:-1, None] * g_t_half

    # angular fluxes at half nodes j+1/2
    g_r_cent = np.empty_like(g)
    g_r_cent[1:-1, :] = (g[2:, :] - g[:-2, :]) / (2.0 * h)
    g_r_cent[0, :] = g_r_cent[1, :]
    g_r_cent[-1, :] = g_r_cent[-2, :]
    g_t_half_ang = (np.roll(g, -1, axis=1) - g) / dth
    g_r_half_ang = 0.5 * (np.roll(g_r_cent, -1, axis=1) + g_r_cent)
    flux_t = b[:, None] * g_r_half_ang + c[:, None] * g_t_half_ang

    lap = np.full_like(g, np.nan)
    lap[1:-1, :] = (flux_r[1:, :] - flux_r[:-1, :]) / h
    lap[1:-1, :] += (flux_t[1:-1, :] - np.roll(flux_t, 1, axis=1)[1:-1, :]) / dth
    lap[1:-1, :] /= sq[1:-1, None]

    pot = jacobi_potential(spec, r)[:, None]
    resid = lap + pot * g
    return float(np.nanmax(np.abs(resid[1:-1, :])))


def counting_newton_passes(module, what, passes, starts=None):
    """A stand-in for `module`'s Newton core that appends the number of
    residual passes of each solve named `what` to `passes`, and its start
    to `starts` if given."""
    newton = module._newton

    def wrapper(fun, x, lo, hi, done, name):
        calls = 0

        def counted(v):
            nonlocal calls
            calls += 1
            return fun(v)

        if name == what and starts is not None:
            starts.append(x)
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
