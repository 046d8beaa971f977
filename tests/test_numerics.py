"""The library's quadrature and leaf-label solver against independent oracles:
closed forms evaluated in mpmath, and scipy's quad and brentq."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from heisenberg_cmc import ModelParams, NumericsError, Point, SphereSpec, profile_height
from heisenberg_cmc.foliation import CylinderSpec, leaf_equation, leaf_label, leaf_label_grid
from heisenberg_cmc.isoperimetry import make_competitor
from heisenberg_cmc.sphere import _f, _f_R, _f_over_sqrt, _quad, sphere_area, sphere_volume

from conftest import GRID


def closed_form_area(eps, sigma, R):
    """(2 pi / eps) R^2 [eps^3 + sqrt(eps^6 + sigma^2 R^2) asin(x) / x],
    x = |sigma| R / sqrt(eps^6 + sigma^2 R^2), in 40-digit arithmetic (in
    doubles asin near 1 loses the eps^3 term)."""
    with mpmath.workdps(40):
        e, s, R = mpmath.mpf(eps), mpmath.mpf(sigma), mpmath.mpf(R)
        q = mpmath.sqrt(e**6 + s * s * R * R)
        x = abs(s) * R / q
        ratio = mpmath.asin(x) / x if s != 0 else mpmath.mpf(1)
        return float((2 * mpmath.pi / e) * R * R * (e**3 + q * ratio))


def test_sphere_area_matches_closed_form():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for k in range(300):
        eps, sigma, R = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 3))
        if k % 5 == 0:
            sigma = 0.0
        elif k % 2 == 0:
            sigma = -sigma
        exact = closed_form_area(eps, sigma, R)
        area = sphere_area(SphereSpec(ModelParams(float(eps), float(sigma)), float(R)))
        worst = max(worst, abs(area - exact) / exact)
    assert worst <= 1e-12


def test_sphere_volume_matches_scipy_quad():
    """V = 4 pi int_0^R f r dr, with f = sqrt(R - r) sqrt(R + r) f/sqrt(R^2 - r^2)
    and the sqrt(R - r) factor left to quad's algebraic weight."""
    specs = GRID + [SphereSpec(ModelParams(0.05, 2.0), 1.5), SphereSpec(ModelParams(3.0, 0.0), 0.2),
                    SphereSpec(ModelParams(0.7, -1.3), 4.0)]
    for spec in specs:
        params, R = spec.params, spec.R
        val, _ = quad(lambda r: math.sqrt(R + r) * float(_f_over_sqrt(params, r, R)) * r,
                      0.0, R, weight="alg", wvar=(0.0, 0.5), epsabs=0.0, epsrel=1e-13, limit=200)
        assert sphere_volume(spec) == pytest.approx(4.0 * math.pi * val, rel=1e-12, abs=0.0)


def test_quad_halves_panels_across_a_kink():
    assert _quad(lambda x: np.abs(x - 0.3), 0.0, 1.0, "kink") == pytest.approx(0.29, rel=1e-13)


@pytest.mark.parametrize("fun", [
    lambda x: 1.0 / np.sqrt(np.abs(x - 0.3)),  # integrable, but no panel size resolves it
    lambda x: np.where(x > 0.3, np.nan, 1.0),
])
def test_quad_raises_where_it_cannot_certify(fun):
    with pytest.raises(NumericsError):
        _quad(fun, 0.0, 1.0, "test integrand")


@pytest.mark.parametrize("eps,sigma,R,frac", [
    (1.0, 1.0, 1.0, 0.3), (1.0, 1.0, 1.0, 0.0), (0.5, 2.0, 2.0, 0.3), (1.5, 0.5, 0.8, 0.0),
])
def test_competitor_amplitude_matches_brentq(eps, sigma, R, frac):
    """The closed-form removed amplitude is the root of the volume change."""
    spec = SphereSpec(ModelParams(eps, sigma), R)
    cyl = CylinderSpec(spec, frac * R)
    rng = np.random.default_rng(31)
    for _ in range(3):
        comp = make_competitor(spec, cyl, rng)

        def volume_change(a_sub):
            total = 0.0
            for bump in (comp.add, comp.sub):
                val, _ = quad(lambda r: float(comp.amp_add * comp.add(r) - a_sub * comp.sub(r)) * r,
                              *bump.support, epsabs=0.0, epsrel=1e-13, limit=200)
                total += val
            return total

        hi = 4.0 * comp.amp_sub
        root = brentq(volume_change, 0.0, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
        assert comp.amp_sub == pytest.approx(root, rel=1e-14, abs=0.0)


def cylinder_points(cyl, rng, n):
    """Points of the half-cylinder below and above the graph, deep and shallow."""
    r = rng.uniform(0.0, 0.999, n) * cyl.r_cut
    f = profile_height(cyl.spec, r)
    frac = np.concatenate([10.0 ** rng.uniform(-9, 0, n // 2),
                           1.0 - 10.0 ** rng.uniform(-4, 0, n - n // 2)])
    t = f - frac * (f - cyl.t_cut)
    t[::7] = f[::7] + rng.uniform(0.0, 1.0, len(t[::7]))  # above the graph
    return r, t


@pytest.mark.parametrize("frac", [0.0, 0.3])
def test_leaf_label_equals_grid_bitwise(frac):
    rng = np.random.default_rng(8)
    for spec in (GRID[0], GRID[13], GRID[-1]):
        cyl = CylinderSpec(spec, frac * spec.R)
        r, t = cylinder_points(cyl, rng, 60)
        grid = leaf_label_grid(cyl, r, t)
        scalar = np.array([leaf_label(cyl, Point(ri, 0.0, ti)) for ri, ti in zip(r, t)])
        assert np.array_equal(grid, scalar)


@pytest.mark.parametrize("frac", [0.0, 0.3])
def test_leaf_label_matches_brentq(frac):
    """Against brentq on the leaf equation, to the conditioning of the root:
    F is known to a few ulps of its terms, which is a wide band in lam at
    deep points, where F_lam is small."""
    spec = SphereSpec(ModelParams(1.0, 1.0), 1.0)
    cyl = CylinderSpec(spec, frac)
    params = spec.params
    rng = np.random.default_rng(12)
    r, t = cylinder_points(cyl, rng, 40)
    below = t < profile_height(spec, r)
    labels = leaf_label_grid(cyl, r[below], t[below])
    for ri, ti, lam in zip(r[below], t[below], labels):
        hi = 2.0 * cyl.R
        while leaf_equation(cyl, ri, ti, hi) > 0.0:
            hi *= 2.0
        lo = np.nextafter(cyl.R, np.inf)
        if leaf_equation(cyl, ri, ti, lo) <= 0.0:  # so shallow that the label rounds to R
            ref = cyl.R
        else:
            ref = brentq(lambda x: leaf_equation(cyl, ri, ti, x), lo, hi,
                         xtol=1e-300, rtol=8.9e-16, maxiter=500)
        x = max(ref, lo)
        size = abs(_f(params, ri, x)) + abs(_f(params, cyl.r_cut, x)) + abs(cyl.t_cut) + abs(ti)
        slope = _f_R(params, ri, x) - _f_R(params, cyl.r_cut, x)
        assert abs(lam - ref) <= 64.0 * np.finfo(float).eps * (size / abs(slope) + ref)
