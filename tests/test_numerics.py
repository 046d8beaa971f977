"""The library's quadrature, sphere area and volume and leaf-label solver against
independent oracles: closed forms evaluated in mpmath, the area and volume integrals
by the package's quadrature and by scipy's quad, and brentq; a sympy check of the
first variation dA = 2H dV; and the Newton core's contract on residuals with known roots."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad
from scipy.optimize import brentq

from heisenberg_cmc import (ModelParams, NumericsError, Point, SphereSpec, foliation_normal,
                            graph_mean_curvature_fd, outer_normal, profile_height, profile_height_r,
                            profile_height_R, profile_quantities, radius_field)
from heisenberg_cmc._numerics import (_QUAD_MAX_PANELS, _QUAD_RTOL, _divide, _gauss_legendre,
                                      _newton, _quad, _unit)
from heisenberg_cmc.curvature import second_fundamental_form
from heisenberg_cmc.foliation import (CylinderSpec, foliation_constants, label_floor, leaf_label,
                                      leaf_label_grid)
from heisenberg_cmc.isoperimetry import (deficit_reports, jacobi_potential, make_competitor,
                                         make_competitors, subriemannian_hemisphere_area)
from heisenberg_cmc.sphere import _J_SERIES, _f, _leaf, _profile, sphere_area, sphere_volume

from conftest import GRID, leaf_equation, mp_profile


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


def closed_form_volume(eps, sigma, R):
    """(pi/4) R^3 q [x sqrt(1 - x^2)(2x^2 + 1) + (4x^2 - 1) asin(x)] / x^3, with q and x as
    in `closed_form_area` (the volume integral in u = cos(phi), which sympy integrates), and
    4 pi eps^3 R^3/3 at sigma = 0.  The bracket cancels to O(x^3), so the working precision
    is 40 digits plus three times the digits of 1/|b|, b = sigma R/eps^3 (x = |b|/sqrt(1 + b^2))."""
    if sigma == 0:
        with mpmath.workdps(40):
            return float(4 * mpmath.pi * mpmath.mpf(eps) ** 3 * mpmath.mpf(R) ** 3 / 3)
    lost = max(0, math.ceil(-math.log10(abs(sigma) * R / eps**3)))
    with mpmath.workdps(40 + 3 * lost):
        e, s, R = mpmath.mpf(eps), mpmath.mpf(sigma), mpmath.mpf(R)
        q = mpmath.sqrt(e**6 + s * s * R * R)
        x = abs(s) * R / q
        bracket = x * mpmath.sqrt(1 - x * x) * (2 * x * x + 1) + (4 * x * x - 1) * mpmath.asin(x)
        return float(mpmath.pi / 4 * R**3 * q * bracket / x**3)


def closed_form_specs():
    """300 specs with eps, |sigma| and R log-uniform in [1e-3, 1e3], sigma of each sign and 0,
    plus |b| = |tau eps R| = 0.0999, 0.1 and 0.1001 on both sides of the volume's series switch."""
    rng = np.random.default_rng(2026)
    specs = []
    for k in range(300):
        eps, sigma, R = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 3))
        if k % 5 == 0:
            sigma = 0.0
        elif k % 2 == 0:
            sigma = -sigma
        specs.append(SphereSpec(ModelParams(float(eps), float(sigma)), float(R)))
    for b in (0.0999, 0.1, 0.1001, -0.0999, -0.1, -0.1001):
        specs.append(SphereSpec(ModelParams(1.0, b), 1.0))
        specs.append(SphereSpec(ModelParams(0.5, b * 0.125 / 3.0), 3.0))
    return specs


QUARTER = np.array([0.0]), np.array([0.5 * math.pi])  # phi's one interval, r = R sin(phi)


def quad_area(spec):
    """The area integral: (1/eps) sqrt(eps^6 + f_r^2 + sigma^2 r^2) over the disk, by the
    package's quadrature.  The square-root rim singularity of f_r is removed exactly by
    r = R sin(phi), under which the integrand density becomes
    r * sqrt(eps^6 R^2 cos^2(phi) + eps^6 r^2 w(r)^2 + sigma^2 r^2 R^2 cos^2(phi))."""
    e, s = spec.params.epsilon, spec.params.sigma
    R = spec.R

    def integrand(phi, _):
        r = R * np.sin(phi)
        w2 = 1.0 + (spec.params.tau * e * r) ** 2
        c2 = (R * np.cos(phi)) ** 2
        return r * np.sqrt(e**6 * c2 + e**6 * r * r * w2 + s * s * r * r * c2)

    return (4.0 * math.pi / e) * _quad(integrand, *QUARTER, "sphere area")[0]


def quad_volume(spec):
    """The volume integral 4 pi int_0^R f r dr at r = R sin(phi), by the package's quadrature."""
    R = spec.R

    def integrand(phi, _):
        r = R * np.sin(phi)
        return _f(spec.params, r, R) * r * R * np.cos(phi)

    return 4.0 * math.pi * _quad(integrand, *QUARTER, "sphere volume")[0]


def test_sphere_area_matches_closed_form():
    worst = 0.0
    for spec in closed_form_specs():
        exact = closed_form_area(spec.params.epsilon, spec.params.sigma, spec.R)
        worst = max(worst, abs(sphere_area(spec) - exact) / exact)
    assert worst <= 1e-14


def test_sphere_volume_matches_closed_form():
    worst = 0.0
    for spec in closed_form_specs():
        exact = closed_form_volume(spec.params.epsilon, spec.params.sigma, spec.R)
        worst = max(worst, abs(sphere_volume(spec) - exact) / exact)
    assert worst <= 1e-14


@pytest.mark.parametrize("eps,sigma,R", [(1.0, 1.0, 1.0), (0.05, 2.0, 1.5), (2.0, -0.3, 0.4),
                                         (1e-3, 1e-3, 10.0), (1.0, 0.0, 2.0)])
def test_volume_oracle_is_the_volume_integral(eps, sigma, R):
    """`closed_form_volume` is 4 pi int_0^R f r dr of the paper's profile, in 30 digits."""
    with mpmath.workdps(30):
        val = 4 * mpmath.pi * mpmath.quad(lambda r: mp_profile(eps, sigma, r, R) * r, [0, R])
    assert closed_form_volume(eps, sigma, R) == pytest.approx(float(val), rel=1e-15, abs=0.0)


def test_area_and_volume_match_their_quadratures():
    for spec in closed_form_specs():
        assert sphere_area(spec) == pytest.approx(quad_area(spec), rel=1e-12, abs=0.0)
        assert sphere_volume(spec) == pytest.approx(quad_volume(spec), rel=1e-12, abs=0.0)


def test_area_and_volume_obey_the_first_variation():
    """dA/dR = 2H dV/dR with H = 1/(eps R), for the closed forms of `sphere_area` and
    `sphere_volume` in b = sigma R/eps^3, exactly."""
    e, s, R, b = sp.symbols("epsilon sigma R b", positive=True)
    J = sp.Rational(3, 8) + 1 / (8 * b**2) + sp.atan(b) * (3 * b + 2 / b - 1 / b**3) / 8
    bR = s * R / e**3
    A = 2 * sp.pi * R**2 * (e**2 * (1 + sp.atan(bR) / bR) + s * R / e * sp.atan(bR))
    V = 2 * sp.pi * e**3 * R**3 * J.subs(b, bR)
    assert sp.simplify(sp.diff(A, R) - 2 / (e * R) * sp.diff(V, R)) == 0


def test_volume_series_is_the_closed_form_to_b16():
    """`_J_SERIES` holds the Taylor coefficients of J(b) in b^2, highest first."""
    b = sp.symbols("b", positive=True)
    J = sp.Rational(3, 8) + 1 / (8 * b**2) + sp.atan(b) * (3 * b + 2 / b - 1 / b**3) / 8
    series = sp.series(J, b, 0, 18).removeO()
    coefficients = [series.coeff(b, 2 * k) for k in range(8, -1, -1)]
    assert [float(c) for c in coefficients] == list(_J_SERIES)
    assert all(series.coeff(b, 2 * k + 1) == 0 for k in range(9))


def test_sphere_volume_matches_scipy_quad():
    """V = 4 pi int_0^R f r dr, with f = sqrt(R - r) sqrt(R + r) f/sqrt(R^2 - r^2)
    and the sqrt(R - r) factor left to quad's algebraic weight."""
    specs = GRID + [SphereSpec(ModelParams(0.05, 2.0), 1.5), SphereSpec(ModelParams(3.0, 0.0), 0.2),
                    SphereSpec(ModelParams(0.7, -1.3), 4.0)]
    for spec in specs:
        params, R = spec.params, spec.R
        val, _ = quad(lambda r: math.sqrt(R + r) * float(_profile(params, r, R)[1]) * r,
                      0.0, R, weight="alg", wvar=(0.0, 0.5), epsabs=0.0, epsrel=1e-13, limit=200)
        assert sphere_volume(spec) == pytest.approx(4.0 * math.pi * val, rel=1e-12, abs=0.0)


def test_quad_halves_panels_across_a_kink():
    kink = _quad(lambda x, _: np.abs(x - 0.3), np.zeros(1), np.ones(1), "kink")
    assert kink == pytest.approx([0.29], rel=1e-13)


@pytest.mark.parametrize("fun", [
    lambda x, _: 1.0 / np.sqrt(np.abs(x - 0.3)),  # integrable, but no panel size resolves it
    lambda x, _: np.where(x > 0.3, np.nan, 1.0),
])
def test_quad_raises_where_it_cannot_certify(fun):
    with pytest.raises(NumericsError):
        _quad(fun, np.zeros(1), np.ones(1), "test integrand")


# ------------------------------------------------------- batched quadrature


def _single_interval_quad(fun, a, b, what):
    """The one-interval quadrature of fun(x) on floats a and b before intervals were batched,
    kept as the bitwise reference of a one-element batch."""
    x64, w64 = _gauss_legendre(64)
    x128, w128 = _gauss_legendre(128)
    nodes = np.concatenate((x64, x128))
    lo, hi = np.array([float(a)]), np.array([float(b)])
    total, scale, spent = 0.0, None, 0
    while lo.size:
        spent += lo.size
        if spent > _QUAD_MAX_PANELS:
            raise NumericsError(f"quadrature for {what} did not converge in {spent} panels")
        half = 0.5 * (hi - lo)
        mid = lo + half
        x = mid[:, None] + half[:, None] * nodes
        vals = np.asarray(fun(x.ravel()), dtype=float).reshape(x.shape)
        if not np.all(np.isfinite(vals)):
            raise NumericsError(f"integrand for {what} is not finite")
        fine = half * (vals[:, 64:] @ w128)
        coarse = half * (vals[:, :64] @ w64)
        if scale is None:
            scale = float(half[0] * (np.abs(vals[0, 64:]) @ w128))
        ok = np.abs(fine - coarse) <= _QUAD_RTOL * scale * (hi - lo) / (b - a)
        total += float(np.sum(fine[ok]))
        lo, hi = np.concatenate((lo[~ok], mid[~ok])), np.concatenate((mid[~ok], hi[~ok]))
    return total


def _family(k, seed=4):
    """k intervals with their own integrand exp(-p x) cos(q x) + |x - c|."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, k)
    b = a + 10.0 ** rng.uniform(-3.0, 1.0, k)
    p, q = rng.uniform(-1.0, 3.0, k), rng.uniform(0.0, 20.0, k)
    c = np.where(rng.uniform(size=k) < 0.3, 0.5 * (a + b), b + 1.0)  # a kink in some

    def one(i):
        return lambda x: np.exp(-p[i] * x) * np.cos(q[i] * x) + np.abs(x - c[i])

    def batch(x, row):
        return np.exp(-p[row, None] * x) * np.cos(q[row, None] * x) + np.abs(x - c[row, None])

    return a, b, one, batch


def test_batched_quad_equals_the_single_interval_quad():
    a, b, one, batch = _family(30)
    got = _quad(batch, a, b, "family")
    for i in range(len(a)):
        alone = _single_interval_quad(one(i), a[i], b[i], "one")
        scale = _single_interval_quad(lambda x: np.abs(one(i)(x)), a[i], b[i], "scale")
        assert abs(got[i] - alone) <= 1e-15 * scale


def test_a_kinked_interval_halves_alone():
    """The kink needs 33 panels; its smooth neighbours pass on one panel, in
    the first pass, with the values they have without it."""
    seen = []

    def fun(x, row):
        seen.append(row.copy())
        return np.where(row[:, None] == 1, np.abs(x - 0.3), np.exp(x) * np.sin(3.0 * x))

    a, b = np.array([-1.0, 0.0, 0.5]), np.array([0.7, 1.0, 2.0])
    got = _quad(fun, a, b, "kink")
    assert got[1] == pytest.approx(0.29, rel=1e-13)
    assert sorted(seen[0]) == [0, 1, 2] and all(set(rows) == {1} for rows in seen[1:])
    assert sum(map(len, seen)) == 2 + 33
    smooth = _quad(lambda x, row: np.exp(x) * np.sin(3.0 * x), a[[0, 2]], b[[0, 2]], "smooth")
    for i, j in ((0, 0), (2, 1)):
        alone = _single_interval_quad(lambda x: np.exp(x) * np.sin(3.0 * x), a[i], b[i], "alone")
        assert abs(got[i] - smooth[j]) <= 1e-15 * abs(alone)
        assert abs(got[i] - alone) <= 1e-15 * abs(alone)


def test_the_panel_budget_is_per_interval():
    """40 kinks spend 33 panels each, 1,320 in all, over the budget of one
    interval; an interval that no panel size resolves still raises."""
    kink = lambda x, row: np.abs(x - 0.3)  # noqa: E731
    assert np.allclose(_quad(kink, np.zeros(40), np.ones(40), "kinks"), 0.29, rtol=1e-13, atol=0.0)
    with pytest.raises(NumericsError, match="quadrature for pole did not converge"):
        _quad(lambda x, row: np.where(row[:, None] == 1, 1.0 / np.sqrt(np.abs(x - 0.3)), x),
              np.zeros(3), np.ones(3), "pole")


def test_a_non_finite_interval_raises_naming_what():
    with pytest.raises(NumericsError, match="integrand for the batch is not finite"):
        _quad(lambda x, row: np.where((row[:, None] == 2) & (x > 0.5), np.nan, x),
              np.zeros(4), np.ones(4), "the batch")


def test_no_intervals_give_no_integrals():
    out = _quad(lambda x, row: x, np.zeros(0), np.zeros(0), "none")
    assert out.shape == (0,)


@pytest.mark.parametrize("eps,sigma,R", [
    (1.0, 1.0, 1.0), (0.05, 2.0, 1.5), (3.0, 0.0, 0.2), (0.7, -1.3, 4.0), (1e-3, 1.0, 1e3),
    (1e3, 1e-3, 1e-3),
])
def test_one_interval_is_bit_identical_to_the_single_interval_quad(monkeypatch, eps, sigma, R):
    spec = SphereSpec(ModelParams(eps, sigma), R)
    area, volume = quad_area(spec), quad_volume(spec)
    kink = _quad(lambda x, row: np.abs(x - 0.3), np.array([0.0]), np.array([1.0]), "kink")
    monkeypatch.setitem(globals(), "_quad", lambda fun, a, b, what: [
        _single_interval_quad(lambda x: fun(x, None), a[0], b[0], what)])
    assert area == quad_area(spec) and volume == quad_volume(spec)
    assert kink[0] == _single_interval_quad(lambda x: np.abs(x - 0.3), 0.0, 1.0, "k")


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
        g, _, dF = _profile(params, np.array([ri, cyl.r_cut]), x)
        slope = np.subtract(*(x * dF / g))  # f_R = R F'/g at ri less at r_cut
        assert abs(lam - ref) <= 64.0 * np.finfo(float).eps * (size / abs(slope) + ref)


def newton(fun, c, start, lo, hi, done, what, point):
    """`_newton` on the residual fun(x, c) from the array `start`, or, when `point`, on each
    entry from its own 0-d start, where the core runs on float64 scalars and returns one.
    Each test below runs both, so one rule is checked on both paths."""
    if not point:
        return _newton(lambda x: fun(x, c), start, lo, hi, done, what)
    roots = [_newton(lambda x, ci=ci: fun(x, ci), np.float64(x0), lo, hi, bool(d), what)
             for ci, x0, d in zip(c, start, done)]
    assert all(type(x) is np.float64 for x in roots)
    return np.array(roots)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["increasing", "decreasing"])
def test_newton_finds_cube_roots_whichever_way_the_residual_runs(sign):
    a = np.array([1e-3, 0.5, 2.0, 27.0, 1e3])
    for point in (False, True):
        x = newton(lambda x, a: (sign * (x**3 - a), sign * 3.0 * x * x, False), a,
                   np.full(a.shape, 15.0), 0.0, 20.0, np.zeros(a.shape, dtype=bool), "cube root",
                   point)
        assert np.all(np.abs(x - np.cbrt(a)) <= 4.0 * np.finfo(float).eps * np.cbrt(a))


def test_newton_bisects_where_a_step_leaves_the_bracket():
    """From x = 50 a Newton step on arctan(x) - c lands near -2500, far
    outside (-100, 100); the core takes the midpoint of (-100, 50) instead."""
    c = np.array([-1.2, 0.3, 1.0, 1.4])
    for point in (False, True):
        seen = []

        def fun(x, c):
            seen.append(x)
            return np.arctan(x) - c, 1.0 / (1.0 + x * x), False

        x = newton(fun, c, np.full(c.shape, 50.0), -100.0, 100.0, np.zeros(c.shape, dtype=bool),
                   "arctan", point)
        after_50 = [b for a, b in zip(seen, seen[1:]) if np.all(a == 50.0)]
        assert len(after_50) == (c.size if point else 1)
        assert all(np.all(b == -25.0) for b in after_50)
        assert x == pytest.approx(np.tan(c), rel=1e-14)


def test_newton_keeps_points_done_on_entry_bit_for_bit():
    start = np.array([0.1 + 0.2, 1.0, 0.7 / 3.0])
    done = np.array([True, False, True])
    for point in (False, True):
        x = newton(lambda x, c: (x * x - 2.0, 2.0 * x, False), start, start, 0.0, 2.0, done,
                   "sqrt 2", point)
        assert np.array_equal(x[done], start[done])
        assert x[1] == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_newton_raises_when_the_budget_runs_out():
    # a residual with no root: every pass bisects toward lo and the bracket never closes
    for point in (False, True):
        with pytest.raises(NumericsError, match="flat residual did not converge"):
            newton(lambda x, c: (np.ones_like(x), np.ones_like(x), False), [None],
                   np.array([0.5]), 0.0, 1.0, np.zeros(1, dtype=bool), "flat residual", point)


def test_newton_takes_an_infinite_derivative_as_a_zero_step():
    """As F_lam = -inf at lam = R on the delta = 0 leaf: the point stays put,
    and the division by zero that makes the derivative does not warn."""
    def fun(x, c):
        return x - 1.0, -1.0 / np.zeros_like(x), False

    for point in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = newton(fun, [None], np.array([1.5]), 1.0, 2.0, np.zeros(1, dtype=bool),
                       "leaf label", point)
        assert x[0] == 1.5


def test_newton_on_a_python_float_stays_on_floats():
    """A Python float start runs the rule on Python floats, with no numpy scalar in its
    bookkeeping, and returns a float: the np.float64 start's root bit for bit in as many
    passes.  Under an error filter for every warning, since floats do not warn."""
    for a in (1e-3, 0.5, 2.0, 27.0, 1e3):
        roots, passes = [], []
        for start in (15.0, np.float64(15.0)):
            seen = []

            def fun(x):
                seen.append(type(x))
                return x * x * x - a, 3.0 * x * x, False

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                roots.append(_newton(fun, start, 0.0, 20.0, False, "cube root"))
            passes.append(len(seen))
            assert set(seen) == {type(start)}
        assert type(roots[0]) is float and type(roots[1]) is np.float64
        assert roots[0] == roots[1] and passes[0] == passes[1]


def test_divide_by_zero_is_numpy_division_without_a_warning():
    """`_divide` gives numpy's quotient where a Python float raises, with no warning, and a
    float for floats; elsewhere it is the plain quotient."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cases = [(1.0, 0.0, math.inf), (-2.0, 0.0, -math.inf), (1.0, -0.0, -math.inf),
                 (3.0, 2.0, 1.5), (1.0, math.inf, 0.0)]
        for a, b, want in cases:
            q = _divide(a, b)
            assert type(q) is float and q == want
        assert math.isnan(_divide(0.0, 0.0))
        q = _divide(np.array([1.0, 0.0, 6.0]), 0.0)
        assert q[0] == math.inf and math.isnan(q[1]) and q[2] == math.inf


def test_unit_on_arrays_is_its_float_path_bit_for_bit():
    """`_unit` on an array is numpy's frexp and ldexp, with no loop over its floats; both are
    exact, so each element is the float path's power of four, at 0, subnormals, 1e+-300,
    inf and nan too, and on a stack's (k, 1) column."""
    xs = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, -1e-300, 0.3, 1.0, 3.0,
          1e300, -1e300, math.inf, -math.inf, math.nan]
    want = np.array([_unit(x) for x in xs])
    assert all(type(_unit(x)) is float for x in xs) and want[2] == 5e-324 and want[7] == 0.25
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in ((len(xs),), (len(xs), 1)):
            got = _unit(np.reshape(xs, shape))
            assert got.shape == shape and got.tobytes() == want.reshape(shape).tobytes()


_ONE = ModelParams(1.0, 1.0)
_AXIS = (ModelParams(10.0, 1.0), Point(0.0, 0.0, 5e-324))  # R underflows to 0 next to the origin
_LEAVES = CylinderSpec(SphereSpec(ModelParams(1e-3, 1.0), 1.0), 0.0)
_HUGE = SphereSpec(ModelParams(1e60, 1.0), 1.0)


def _sphere(eps, R=1.0, sigma=1.0):
    return SphereSpec(ModelParams(eps, sigma), R)


@pytest.mark.parametrize("call, message", [
    (lambda: radius_field(ModelParams(1e103, 1.0), 0.5, 0.5),
     "eps^3 is not finite with eps = 1e+103, sigma = 1.0"),
    (lambda: profile_height(_sphere(5e102), 0.5),
     "the profile height is not finite with eps = 5e+102, sigma = 1.0, R = 1.0"),
    (lambda: profile_height_R(_sphere(4.4e102), [0.5, 0.99]),
     "f_R is not finite with eps = 4.4e+102, sigma = 1.0, R = 1.0"),
    (lambda: radius_field(_AXIS[0], 0.0, 5e-324),
     "the radius field at (r, t) = (0.0, 5e-324) is not finite with eps = 10.0, sigma = 1.0"),
    (lambda: foliation_normal(*_AXIS),
     "the foliation normal at Point(x=0.0, y=0.0, t=5e-324) is not finite with eps = 10.0, "
     "sigma = 1.0"),
    (lambda: sphere_area(_sphere(1.0, 1e200)),
     "the area is not finite with eps = 1.0, sigma = 1.0, R = 1e+200"),
    (lambda: sphere_volume(_sphere(1.0, 1e100)),
     "the volume is not finite with eps = 1.0, sigma = 1.0, R = 1e+100"),
    (lambda: graph_mean_curvature_fd(_HUGE.params, lambda x: -x * x, np.array([0.5]), 1e-3),
     "eps^6 is not finite with eps = 1e+60, sigma = 1.0"),
    (lambda: graph_mean_curvature_fd(ModelParams(1e-300, 0.0),
                                     lambda x: _f(ModelParams(1e-300, 0.0), x, 1.0),
                                     np.array([0.5]), 1e-3),
     "the finite-difference mean curvature is not finite with eps = 1e-300, sigma = 0.0"),
    (lambda: second_fundamental_form(_sphere(1e-38), Point(0.5, 0.0, profile_height(
        _sphere(1e-38), 0.5))),
     "the second fundamental form is not finite with eps = 1e-38, sigma = 1.0, R = 1.0"),
    (lambda: deficit_reports(make_competitors(_HUGE, CylinderSpec(_HUGE, 0.3),
                                              np.random.default_rng(0), 2)),
     "eps^6 is not finite with eps = 1e+60, sigma = 1.0"),
    (lambda: jacobi_potential(_sphere(1e-40, 1e-200), 0.5e-200),
     "the Jacobi potential is not finite with eps = 1e-40, sigma = 1.0, R = 1e-200"),
    (lambda: foliation_constants(SphereSpec(_ONE, 1e62)),
     "a deficit constant is not finite with eps = 1.0, sigma = 1.0, R = 1e+62"),
    (lambda: foliation_constants(SphereSpec(_ONE, 1e-60)),
     "a deficit constant is not finite with eps = 1.0, sigma = 1.0, R = 1e-60"),
    (lambda: leaf_label(_LEAVES, Point(0.5, 0.0, 1e-300)),
     "the leaf label at (r, t) = (0.5, 1e-300) is not finite with eps = 0.001, sigma = 1.0, "
     "R = 1.0"),
    (lambda: subriemannian_hemisphere_area(1.0, 1e103),
     "the sub-Riemannian hemisphere area is not finite with eps = 0.0, sigma = 1.0, R = 1e+103"),
    (lambda: subriemannian_hemisphere_area(1e300, 1e10),
     "the sub-Riemannian hemisphere area is not finite with eps = 0.0, sigma = 1e+300, "
     "R = 10000000000.0"),
    # hypot(eps^3, sigma r) past the largest float, where abs(complex) raised OverflowError
    (lambda: radius_field(ModelParams(5.5e102, 1e308), 1.7, 1.0),
     "m(r) is not finite with eps = 5.5e+102, sigma = 1e+308"),
    (lambda: foliation_normal(ModelParams(5.5e102, 1e308), Point(1.7, 0.0, 1.0)),
     "m(r) is not finite with eps = 5.5e+102, sigma = 1e+308"),
    # the array leaf of meridian_geodesic_residual returned R = r, m = inf after a warning
    (lambda: _leaf(ModelParams(5.5e102, 1e308), np.array([1.7]), np.array([1.0])),
     "m(r) is not finite with eps = 5.5e+102, sigma = 1e+308"),
    # eps^3 underflows to 0: omega_r, p, ell and rho were NaN at sigma = 0, omega_r and rho inf
    (lambda: profile_quantities(_sphere(1e-300, sigma=0.0), 0.5),
     "a profile quantity at r = 0.5 is not finite with eps = 1e-300, sigma = 0.0, R = 1.0"),
    (lambda: profile_quantities(_sphere(1e-120), 0.5),
     "a profile quantity at r = 0.5 is not finite with eps = 1e-120, sigma = 1.0, R = 1.0"),
    # it was (nan, -inf, 0.0)
    (lambda: outer_normal(_sphere(1e-200), Point(1e-320, 0.0, profile_height(_sphere(1e-200),
                                                                          1e-320))),
     "the outer normal at Point(x=1e-320, y=0.0, t=0.7853981633974483) is not finite with "
     "eps = 1e-200, sigma = 1.0, R = 1.0"),
    # eps^3 is subnormal and f(0; R) = k = 0, where the floor was 0/0, a ZeroDivisionError
    (lambda: label_floor(CylinderSpec(_sphere(2.2e-108, 1e-4, sigma=0.0), 0.0), 0.0),
     "the label floor is not finite with eps = 2.2e-108, sigma = 0.0, R = 0.0001"),
], ids=["eps^3", "profile", "f_R", "radius field", "foliation normal", "area", "volume",
        "stencil eps^6", "stencil", "second fundamental form", "deficit reports eps^6",
        "Jacobi potential", "deficit constants", "tiny deficit constants", "leaf label",
        "sub-Riemannian R^3",
        "sub-Riemannian area", "m(r) of the radius field", "m(r) of the foliation normal",
        "m(r) of an array leaf", "profile quantities at sigma = 0", "profile quantities",
        "outer normal", "label floor"])
def test_each_value_lost_to_the_floats_raises_one_numerics_error(call, message):
    """Every site that forms a value past the floats (a float power that raised OverflowError,
    an overflow, a NaN) raises `_require_finite`'s NumericsError in its one shape, naming
    eps, sigma and R where the site has one, with no warning before it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("fun", [profile_height, profile_height_r, profile_height_R])
@pytest.mark.parametrize("r", [1.7, np.array([1.7])], ids=["float", "array"])
def test_m_past_the_floats_raises_alike_on_floats_and_arrays(fun, r):
    """On an array, profile_height_r warned of an overflow in hypot and returned -inf, and the
    other two named the profile height, where a float raised on m(r)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=r"^m\(r\) is not finite with eps = 5\.5e\+102, "
                                                r"sigma = 1e\+308$"):
            fun(SphereSpec(ModelParams(5.5e102, 1e308), 2.0), r)
