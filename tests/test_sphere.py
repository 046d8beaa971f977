import math
import re
import sys
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from heisenberg_cmc import (
    ContractError,
    DomainError,
    ModelParams,
    NumericsError,
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
    sphere_volume,
)
from heisenberg_cmc import cli, sphere
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


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("R", [1.0, 0.3, sys.float_info.max, -1.0, math.nan])
def test_profile_domain_is_one_mask_for_three_conditions(R, closed):
    """The one mask of `_check_profile_domain` raises where r < 0, r > R (1 + 1e-12) (R (1 - 1e-15)
    on [0, R)) or r is not finite, with the same message, for floats and arrays, NaN and
    +-inf included, also where R (1 + 1e-12) overflows and where R is negative or NaN, which
    `euclidean_profile` and `pansu_profile` admit.  The message names a float by its repr and an
    array by its first radius out of range."""
    hi = R * (1.0 + 1e-12) if closed else R * (1.0 - 1e-15)
    values = [0.0, -0.0, 0.5 * R, R, hi, float(np.nextafter(hi, np.inf)), -1e-300, -abs(R),
              sys.float_info.max, math.nan, math.inf, -math.inf]
    kind = "[0, R]" if closed else "[0, R)"
    for r in values + [np.array(values[:3])] + [np.array([0.1, v]) for v in values]:
        a = np.asarray(r, dtype=float)
        if np.any(a < 0.0) or np.any(a > hi) or not np.all(np.isfinite(a)):
            with pytest.raises(DomainError) as err:
                sphere._check_profile_domain(R, r, closed=closed)
            first = next(v for v in map(float, np.ravel(a))
                         if v < 0.0 or v > hi or not math.isfinite(v))
            assert str(err.value) == f"radius must lie in {kind} with R = {R}, got {first!r}"
        else:
            assert np.array_equal(sphere._check_profile_domain(R, r, closed=closed), a)


_UNIT = SphereSpec(ModelParams(1.0, 1.0), 1.0)


@pytest.mark.parametrize("call, kind", [
    (lambda: profile_height(_UNIT, 1.5), "[0, R]"),
    (lambda: profile_height_r(_UNIT, 1.5), "[0, R)"),
    (lambda: profile_height_R(_UNIT, 1.5), "[0, R)"),
    (lambda: profile_quantities(_UNIT, 1.5), "[0, R]"),
    (lambda: profile_height(_UNIT, np.array([0.5, 1.5, 2.0])), "[0, R]"),
    (None, "[0, R]")],
    ids=["profile_height", "profile_height_r", "profile_height_R", "profile_quantities",
         "array", "meridian --start-radius-frac"])
def test_radius_outside_the_domain_is_named_by_its_repr(call, kind, capsys):
    """A radius r = 1.5 at R = 1 is named "1.5", as a float or as the first radius out of range
    of an array, where the message printed numpy's array(1.5); the CLI exits 2 with it."""
    want = f"radius must lie in {kind} with R = 1.0, got 1.5"
    if call is None:
        assert cli.main(["meridian", "--start-radius-frac", "1.5"]) == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: {want}\n"
    else:
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == want


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


@pytest.mark.parametrize("hemisphere", [0, 2, -2])
def test_profile_quantities_hemisphere_is_plus_or_minus_1(spec, hemisphere):
    with pytest.raises(ContractError, match=f"hemisphere must be \\+1 or -1, got {hemisphere}"):
        profile_quantities(spec, 0.3, hemisphere=hemisphere)


def test_stack_attributes_are_columns_or_one_objects_own_values(spec):
    """`sphere._Stack`: members that are one object give its own values, others the (k, 1) column
    of theirs (their params stack shares one ModelParams' floats), and a stack of columns has no
    other attribute."""
    one = sphere._Stack(members=[spec, spec])
    assert type(one.R) is float and one.R == spec.R and one.params is spec.params
    two = sphere._Stack(members=[spec, SphereSpec(spec.params, 2.0)])
    assert two.R.tolist() == [[1.0], [2.0]] and type(two.params.epsilon) is float
    cols = sphere._Stack(R=two.R)
    assert cols.R is two.R
    with pytest.raises(AttributeError):
        cols.H


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


@pytest.mark.parametrize("r, t", [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan),
                                  (0.5, -math.inf)])
def test_radius_field_of_a_non_finite_point_raises(params, r, t):
    with pytest.raises(DomainError, match="needs a finite point"):
        radius_field(params, r, t)


def test_radius_field_raises_where_its_partials_are_not_finite(params):
    with mock.patch.object(sphere, "_ell", lambda p, atan_p=None: math.inf):
        with pytest.raises(NumericsError, match=r"radius field at \(r, t\) = \(0\.3, 0\.2\)"):
            radius_field(params, 0.3, 0.2)


def test_foliation_normal_of_a_non_finite_point_raises(params):
    with pytest.raises(DomainError, match="needs a finite point"):
        foliation_normal(params, Point(math.inf, 0.0, 1.0))


@pytest.mark.parametrize("sigma", [0.0, 1e-200, -1e-200])
def test_foliation_normal_where_R_squared_overflows_raises(sigma):
    """At |z| = 1e155 the leaf radius is finite, but R*R overflows, where sqrt(R^2 - r^2) gave
    a NaN vector and then NumericsError.  sqrt(R - r) sqrt(R + r) squares neither, and the
    normal is radial to rounding: its t-coefficient is 1e-155.  (At sigma = 1, w(r) overflowed
    first: test_w_overflow_in_a_normal_raises.)"""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n = foliation_normal(ModelParams(1.0, sigma), Point(1e155, 0.0, 1.0))
    assert n.as_array() == pytest.approx([1.0, 0.0, 1e-155], rel=0.0, abs=1e-15)
    assert n.norm() == pytest.approx(1.0, abs=1e-15)


def test_foliation_normal_where_R_squared_overflows_on_the_axis_warns_of_nothing():
    """At sigma = 0 and |t| = 1e300, R*R overflows, where sqrt(R^2 - r^2) made the normal NaN
    and then NumericsError.  It is now the vertical unit normal of the round sphere, with no
    warning under every warning filter."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n = foliation_normal(ModelParams(1, 0), Point(1, 0, 1e300))
    assert n.as_array() == pytest.approx([1e-300, 0.0, 1.0], rel=1e-15, abs=0.0)


def test_single_points_whose_radius_underflows_raise():
    """Next to the origin, R = hypot(0, |t|/eps^3) underflows to 0 at eps = 10: NumericsError
    for the radius field and the normal, with no warning, where dividing a float by R = 0
    raises ZeroDivisionError."""
    params = ModelParams(10.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=r"radius field at \(r, t\) = \(0\.0, 5e-324\)"):
            radius_field(params, 0.0, 5e-324)
        with pytest.raises(NumericsError, match=r"normal at Point\(x=0\.0, y=0\.0, t=5e-324\)"):
            foliation_normal(params, Point(0.0, 0.0, 5e-324))


def test_w_overflow_in_a_normal_raises():
    """At sigma = 1, |z| = 1e155 and at eps = 1e-60, w(r) overflows, where both normals raised
    NumericsError.  m(r) = eps^3 w(r) does not: the first normal is radial to rounding, and
    the second, at r = 0.5 on the sphere R = 1, is Pansu's horizontal normal
    (x + y p, y - x p, 0)/R with p = sqrt(R^2 - r^2)/r."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n = foliation_normal(ModelParams(1.0, 1.0), Point(1e155, 0.0, 1.0))
        n2 = outer_normal(SphereSpec(ModelParams(1e-60, 1.0), 1.0), Point(0.5, 0.0, 0.1), tol=1.0)
    assert n.as_array() == pytest.approx([1.0, 0.0, 0.0], rel=0.0, abs=1e-15)
    p = math.sqrt(0.75) / 0.5
    assert n2.as_array() == pytest.approx([0.5, -0.5 * p, 0.0], rel=1e-15, abs=1e-15)
    for v in (n, n2):
        assert v.norm() == pytest.approx(1.0, abs=1e-15)


def test_sphere_through(params):
    spec = SphereSpec(params, 1.3)
    q = Point(0.5, 0.2, float(profile_height(spec, math.hypot(0.5, 0.2))))
    assert radius_field(params, q.r, q.t).value == pytest.approx(1.3, rel=1e-12)


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


def test_outer_normal_where_f_or_the_miss_is_nan_raises():
    """The on-sphere check compared miss > tol * max(1, R, f), which a NaN miss passes: at
    eps = 1e-300 and sigma = 0, m = eps^3 underflows to 0 and f is 0/0, so outer_normal
    returned TangentVector(nan, nan, nan), and a NaN height passed the check too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=r"^the profile height is not finite with "
                                                r"eps = 1e-300, sigma = 0\.0, R = 1\.0$"):
            outer_normal(SphereSpec(ModelParams(1e-300, 0.0), 1.0), Point(0.18, 0.24, 0.5))
        with pytest.raises(ContractError, match=r"^point is off the sphere: \| \|t\| - f \| = nan$"):
            outer_normal(SphereSpec(ModelParams(1.0, 1.0), 1.0), Point(0.3, 0.4, math.nan))


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


@pytest.mark.parametrize("eps", [1.0, 1e-80, 1e-120, 1e-200])
@pytest.mark.parametrize("t", [0.7, -0.7])
def test_normal_components_on_axis_arrays_are_the_float_path(eps, t):
    """On the axis off the origin the array path gives sgn(t) T bit for bit as one point does, with
    no warning, also where m(0) = 0 (eps^3 underflows) and the general formula is 0 inf there."""
    params = ModelParams(eps, 1.0)
    g, m, _ = sphere._pieces(params, 0.0, 1.0)
    one = sphere._normal_components(params, 0.0, 0.0, t, 1.0, g, m)
    zeros, ts = np.zeros(3), np.full(3, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = sphere._normal_components(params, zeros, zeros, ts, np.ones(3), np.full(3, g),
                                         np.full(3, m))
    assert rows.shape == (3, 3)
    for row in rows:
        assert [v.hex() for v in row.tolist()] == [float(v).hex() for v in one]


def test_numpy_scalar_parameters_are_floats():
    """ModelParams, SphereSpec store Python floats, so a numpy scalar sigma gives the float path's
    area and volume bit for bit, with its type and no "overflow in scalar divide" warning."""
    params = ModelParams(np.float64(1e-102), np.float64(-0.00235))
    assert type(params.epsilon) is float and type(params.sigma) is float
    spec = SphereSpec(params, np.float64(9.14e5))
    plain = SphereSpec(ModelParams(1e-102, -0.00235), 9.14e5)
    assert type(spec.R) is float
    for fun in (sphere_area, sphere_volume):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = fun(spec)
        assert type(value) is float
        assert value.hex() == fun(plain).hex()


def test_pansu_radius_at_negative_zero_is_that_at_zero():
    """r = -0.0 passes the domain check, and m = sigma r = -0.0 made q = -inf, so the solve did not
    converge: -0.0 is 0.0, as a float and inside an array, repr for repr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert repr(pansu_radius(1.0, -0.0, 0.5)) == repr(pansu_radius(1.0, 0.0, 0.5))
        assert repr(pansu_radius(1.0, 0.0, 0.5)) == "0.7978845608028653"
        got = pansu_radius(1.0, np.array([-0.0, 0.3, -0.0]), np.array([0.5, 0.5, 2.0]))
        want = pansu_radius(1.0, np.array([0.0, 0.3, 0.0]), np.array([0.5, 0.5, 2.0]))
    assert list(map(repr, got.tolist())) == list(map(repr, want.tolist()))


def test_area_volume_euclidean_limit():
    spec = SphereSpec(ModelParams(1.0, 1e-8), 1.0)
    assert abs(sphere_area(spec) - 4.0 * math.pi) <= 1e-4
    assert abs(sphere_volume(spec) - 4.0 * math.pi / 3.0) <= 1e-4


def _mp_area_volume(eps, sigma, R):
    """The area 2 pi (eps R)^2 [1 + arctan(b)/b + b arctan b] and the volume 2 pi (eps R)^3 J(|b|),
    b = sigma R/eps^3, in 50-digit mpmath, whose exponents do not overflow.  J(b) = 3/8 + 1/(8 b^2)
    + arctan(b) (3b + 2/b - 1/b^3)/8 cancels to 2/3 + O(b^2): it takes three more digits a digit
    of 1/|b|, and below |b| = 1e-10 it is 2/3, within 1e-20."""
    with mpmath.workdps(50):
        e, s, R = mpmath.mpf(eps), mpmath.mpf(sigma), mpmath.mpf(R)
        b = s * R / e**3
        area = 2 * mpmath.pi * (e * R) ** 2 * (
            2 if b == 0 else 1 + mpmath.atan(b) / b + b * mpmath.atan(b))
        b = abs(b)
        J = mpmath.mpf(2) / 3
        if b >= mpmath.mpf("1e-10"):
            with mpmath.workdps(50 + 3 * max(0, int(-mpmath.log10(b)) + 1)):
                J = (mpmath.mpf(3) / 8 + 1 / (8 * b * b)
                     + mpmath.atan(b) * (3 * b + 2 / b - 1 / b**3) / 8)
        return area, 2 * mpmath.pi * (e * R) ** 3 * J


def test_area_and_volume_over_the_whole_domain():
    """1,000 seeded draws of eps and R log-uniform in [1e-300, 1e300], sigma in {0, 1, -4,
    1e-300, 1e100}: where the true area or volume is a normal float each is within 1e-14 of it,
    with no warning, and NumericsError only where it is not (past the largest float it must
    raise; below the normal floats it may, or it is within rounding of the subnormals).  R^2 and
    b = sigma R/eps^3 left the floats: the area was 0.0 at (2e96, 0, 2.06e-176), 1e-5 off where
    R^2 was subnormal, and both raised where eps^3 underflowed at sigma = 0 (0/0)."""
    rng = np.random.default_rng(3)
    tiny, huge = sys.float_info.min, sys.float_info.max
    normal = [0, 0]
    for k in range(1000):
        eps, R = (float(x) for x in 10.0 ** rng.uniform(-300.0, 300.0, 2))
        sigma = (0.0, 1.0, -4.0, 1e-300, 1e100)[k % 5]
        spec = SphereSpec(ModelParams(eps, sigma), R)
        for i, (fun, true) in enumerate(zip((sphere_area, sphere_volume),
                                            _mp_area_volume(eps, sigma, R))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    got = fun(spec)
                except NumericsError:
                    got = None
            where = (fun.__name__, eps, sigma, R)
            if tiny <= true <= huge:
                normal[i] += 1
                assert got is not None and abs(got - true) <= 1e-14 * true, where
            elif true > huge:
                assert got is None, where
            else:
                assert got is None or abs(got - true) <= 1e-14 * true + 2.0**-1074, where
    assert min(normal) >= 250


@pytest.mark.parametrize("eps", [1e-10, 1e-20, 1e-40, 1e-60, 1e-76])
def test_area_and_volume_tend_to_pansu_sphere(eps):
    """The sub-Riemannian limit: eps A/2 -> pi^2 |sigma| R^3/2 and V -> 3 pi^2 |sigma| R^4/8,
    the volume inside Pansu's profile; at these eps both are there to rounding, and no
    intermediate overflows (w(R)^2 would from eps = 1e-60 on)."""
    for sigma, R in ((1.0, 1.0), (2.5, 0.3), (-0.7, 4.0)):
        spec = SphereSpec(ModelParams(eps, sigma), R)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            area, volume = sphere_area(spec), sphere_volume(spec)
        half_area = math.pi**2 * abs(sigma) * R**3 / 2.0
        pansu_volume = 3.0 * math.pi**2 * abs(sigma) * R**4 / 8.0
        assert abs(eps * area / 2.0 - half_area) <= 1e-14 * half_area
        assert abs(volume - pansu_volume) <= 1e-14 * pansu_volume


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


def test_one_point_hypot_is_libms_and_overflows_to_inf():
    """`sphere._hypot` takes the one-point hypot of the radius solves by abs(complex), libm's
    hypot: bit for bit np.hypot's on 20,000 pairs over the whole float range, zeros, subnormals
    and signs included, a float, and inf past the largest float, with no warning and no
    OverflowError.  Arrays keep np.hypot.  pansu_radius returns a float for floats, ints and
    0-d arrays."""
    rng = np.random.default_rng(20261020)
    a, b = np.exp(rng.uniform(-745.0, 709.0, (2, 20000))) * rng.choice([-1.0, 1.0], (2, 20000))
    a[:50], b[50:100] = 0.0, 5e-324
    got = [sphere._hypot(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == np.hypot(a, b).tobytes()
    assert sphere._hypot(a, b).tobytes() == np.hypot(a, b).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sphere._hypot(1.5e308, -1.5e308) == math.inf
        assert sphere._hypot(1.7976931348623157e308, 0.0) == 1.7976931348623157e308
    for r, t in ((0.36, 0.4), (1, 2), (np.float64(0.36), np.float64(0.4)),
                 (np.array(0.36), np.array(0.4))):
        assert type(pansu_radius(1.3, r, t)) is float
    assert pansu_radius(1.3, np.array(0.36), np.array(0.4)) == pansu_radius(1.3, 0.36, 0.4)


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


def test_pansu_radius_on_the_plane_where_sigma_r_underflows():
    """m = sigma r = 0 and t = 0: the start is 0 on both paths, not 0/0 (NaN with a warning)."""
    r = 1e-320
    assert pansu_radius(1e-8, r, 0.0) == r
    assert pansu_radius(1e-8, np.array([r, 0.5]), np.array([0.0, -0.0])).tolist() == [r, 0.5]


def test_pansu_radius_where_the_start_quotient_underflows():
    """On the axis with |t| = 5e-324, 4|t|/(pi sigma) underflows to 0, so the start takes
    sqrt(|t|) sqrt(4/(pi sigma)): R = sqrt(4|t|/(pi sigma)) = 2.5e-167 on both paths, not 0."""
    with mpmath.workdps(50):
        exact = float(mpmath.sqrt(4 * mpmath.mpf(5e-324) / (mpmath.pi * mpmath.mpf(1e10))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R = pansu_radius(1e10, 0.0, 5e-324)
        radii = pansu_radius(1e10, np.array([0.0, 0.0]), np.array([5e-324, -5e-324]))
    assert abs(R - exact) <= 1e-15 * exact
    assert radii.tolist() == [R, R]


def test_pansu_profile_where_R_squared_underflows():
    """R = 2.5e-167 on the axis: R^2 underflows, where g = sqrt(R^2 - r^2) was 0 and the
    profile 0.  g = sqrt(R - r) sqrt(R + r) = R, and the profile is sigma pi R^2/4 = 4.9e-324,
    the least subnormal float 5e-324 to rounding; at r = R it is 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pansu_profile(1e10, 2.5e-167, 0.0) == 5e-324
        assert pansu_profile(1e10, 2.5e-167, np.array([0.0, 2.5e-167])).tolist() == [5e-324, 0.0]


def test_gap_squares_neither_radius():
    """g = sqrt(R - r) sqrt(R + r): where R^2 overflows (R = 1e160) the profiles and the normal
    are finite, where they were inf or a (nan, -inf, inf) normal, and where R^2 underflows
    (R = 1e-170) the profiles are R-sized, where they were 0.  No warning on either path."""
    spec = SphereSpec(ModelParams(1.0, 1e-300), 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert euclidean_profile(1e160, 0.5) == pytest.approx(1e160, rel=1e-15)
        assert profile_height(spec, 0.5) == pytest.approx(1e160, rel=1e-15)
        f = profile_height(spec, np.array([0.0, 0.5, 1e160]))
        n = outer_normal(spec, Point(0.5, 0.0, 1e160))
        assert profile_height(SphereSpec(ModelParams(1, 1), 1e-170), 0.0) == pytest.approx(
            1e-170, rel=1e-15)
        assert pansu_profile(1e300, 1e-170, 0.0) == pytest.approx(math.pi / 4 * 1e-40, rel=1e-15)
    assert f.tolist() == pytest.approx([1e160, 1e160, 0.0], rel=1e-15)
    assert n.as_array() == pytest.approx([5e-161, 0.0, 1.0], rel=1e-15, abs=1e-300)


def finite_or_typed_error(call):
    """True where call() gives finite floats (a float, a tuple of them or a TangentVector) or
    raises DomainError or NumericsError; False for NaN or inf."""
    try:
        value = call()
    except (DomainError, NumericsError):
        return True
    return bool(np.all(np.isfinite(value.as_array() if hasattr(value, "as_array") else value)))


@pytest.mark.parametrize("eps", [1e-40, 1e-60, 1e-100, 1e-200, 1e-300])
@pytest.mark.parametrize("sigma", [1.0, -1.0])
def test_profile_layer_reaches_the_subriemannian_limit(eps, sigma):
    """In (eps^3, sigma) the profile layer meets Pansu's sphere (R = 1) to rounding as eps
    -> 0, eps^3 underflowing to 0 from eps = 1e-109 on: the radius field, the profile,
    eps A/2 and V.  The normal (on the axis too) is finite or raises a typed error.  No warning
    is raised."""
    params, s = ModelParams(eps, sigma), abs(sigma)
    spec = SphereSpec(params, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R = radius_field(params, 0.5, 0.1).value
        assert R == pytest.approx(pansu_radius(s, 0.5, 0.1), rel=1e-14)
        for r in (0.0, 0.2, 0.5):
            assert profile_height(spec, r) == pytest.approx(pansu_profile(s, 1.0, r), rel=1e-14)
        assert eps * sphere_area(spec) / 2.0 == pytest.approx(math.pi**2 * s / 2.0, rel=1e-14)
        assert sphere_volume(spec) == pytest.approx(3.0 * math.pi**2 * s / 8.0, rel=1e-14)
        for point in (Point(0.3, 0.4, 0.1), Point(0.3, 0.4, -0.1), Point(0.0, 0.0, 0.1)):
            assert finite_or_typed_error(lambda: foliation_normal(params, point)), point


@pytest.mark.parametrize("eps", [1e-100, 1e-104, 1e-200, 1e-300])
@pytest.mark.parametrize("sigma", [1.0, -2.0])
@pytest.mark.parametrize("t", [0.3, -0.3])
def test_axis_where_eps_cubed_underflows(eps, sigma, t):
    """On the axis the normal is sgn(t) T, and R_t = sgn(t) g/(R F') with F' = m(r)/ell(p) =
    m + |sigma| g arctan|p|, which is |sigma| R pi/2 where m(0) = eps^3 underflows to 0 (eps
    below about 5.5e-109).  p = sigma g/eps^3 overflows from about eps = 1e-103, where the
    normal raised NumericsError and R_t came out 0; once eps^3 = 0, eps^3/m = 0/0 made R_t
    raise too and the outer normal at the poles NaN.  R is Pansu's, sqrt(4|t|/(pi |sigma|))."""
    params, s = ModelParams(eps, sigma), abs(sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = radius_field(params, 0.0, t)
        normal = foliation_normal(params, Point(0.0, 0.0, t))
        spec = SphereSpec(params, field.value)
        pole = outer_normal(spec, Point(0.0, 0.0, math.copysign(profile_height(spec, 0.0), t)))
    R = math.sqrt(4.0 * abs(t) / (math.pi * s))
    assert field.value == pytest.approx(R, rel=1e-15)
    assert field.R_r == 0.0
    assert field.R_t == pytest.approx(math.copysign(2.0, t) / (math.pi * s * R), rel=1e-15)
    assert normal.as_array().tolist() == pole.as_array().tolist() == [0.0, 0.0, math.copysign(1.0, t)]


@pytest.mark.parametrize("eps", [1e200, 1e-320])
def test_profile_layer_at_extreme_eps_is_finite_or_raises_typed(eps):
    """At eps = 1e200 eps**3 would raise OverflowError, and at the subnormal 1e-320 eps^3 is 0
    and sigma R/eps overflows: each function gives a finite value or a typed error, never NaN,
    inf or an untyped exception."""
    params = ModelParams(eps, 1.0)
    spec = SphereSpec(params, 1.0)
    point, axis = Point(0.3, 0.4, 0.1), Point(0.0, 0.0, 0.1)
    calls = [lambda: radius_field(params, 0.5, 0.1).value,
             lambda: profile_height(spec, 0.5), lambda: profile_height(spec, 1.0),
             lambda: sphere_area(spec), lambda: sphere_volume(spec),
             lambda: foliation_normal(params, point), lambda: foliation_normal(params, axis)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            assert finite_or_typed_error(call)


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


def _graph_mean_curvature_fd_by_calls(params, f, r, step):
    """`graph_mean_curvature_fd` as it once was: 16 calls of `f` on len(r) points each."""
    e, s = params.epsilon, params.sigma
    r = np.asarray(r, dtype=float)
    d = step

    def fprime(x):
        return (f(x - 2 * d) - 8.0 * f(x - d) + 8.0 * f(x + d) - f(x + 2 * d)) / (12.0 * d)

    def flux(x):
        fp = fprime(x)
        return x * fp / np.sqrt(e**6 + fp * fp + s * s * x * x)

    h = step
    div = (flux(r - 2 * h) - 8.0 * flux(r - h) + 8.0 * flux(r + h) - flux(r + 2 * h)) / (12.0 * h)
    return -(0.5 / e) * div / r


def test_graph_mean_curvature_fd_is_one_call_of_the_16_call_stencil(rng):
    specs = GRID + [SphereSpec(ModelParams(1.0, 1.0), 1.0), SphereSpec(ModelParams(0.5, 2.0), 2.0)]
    for g in specs:
        rs = rng.uniform(0.05, 0.9, size=30) * g.R
        calls = []

        def f(x):
            calls.append(x.shape)
            return _f(g.params, x, g.R)

        got = graph_mean_curvature_fd(g.params, f, rs, 1e-3 * g.R)
        assert calls == [(16 * rs.size,)]
        want = _graph_mean_curvature_fd_by_calls(g.params, lambda x: _f(g.params, x, g.R), rs,
                                                 1e-3 * g.R)
        assert got.shape == rs.shape
        assert got.tobytes() == want.tobytes()


def test_atanc_on_arrays_is_the_selection_of_np_where_bit_for_bit():
    """`_atanc` on arrays sets its small entries by masked stores on a copy, where it selected
    them with np.where: the same floats, with arctan(p) given or not, on p over 24 decades with
    0, +-1e-9, the least subnormal, +-inf and NaN, and on strided and broadcast views."""
    def selected(p, atan_p=None):
        small = np.abs(p) < 1e-8
        safe = np.where(small, 1.0, p)
        return np.where(small, 1.0, (np.arctan(safe) if atan_p is None else atan_p) / safe)

    rng = np.random.default_rng(5)
    p = np.concatenate((rng.normal(size=400) * 10.0 ** rng.uniform(-12.0, 12.0, 400),
                        [0.0, -0.0, 1e-9, -1e-9, 1e-8, 5e-324, np.inf, -np.inf, np.nan]))
    with np.errstate(invalid="ignore"):  # arctan(nan)
        a = np.arctan(p)
        for args in ((p,), (p, a), (p[::3],), (np.broadcast_to(p[:5], (3, 5)),)):
            assert sphere._atanc(*args).tobytes() == selected(*args).tobytes()


def test_mean_curvature_inverse_scaling(params):
    assert SphereSpec(params, 2.0).H == 0.5
    assert SphereSpec(ModelParams(0.5, 0.5), 2.0).H == 1.0


@pytest.mark.parametrize("eps, R", [(1e-40, 1e-300), (1e-80, 1e-250), (1e-10, 1e-300)])
def test_mean_curvature_where_eps_R_underflows_raises(eps, R):
    """H = 1/(eps R) where eps R underflows to 0, or to a subnormal whose inverse overflows:
    NumericsError with no warning, where a ZeroDivisionError (or a silent inf) came out."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=f"mean curvature 1/\\(eps R\\) is not finite with "
                                                f"eps = {eps!r}, sigma = 1.0, R = {R!r}"):
            SphereSpec(ModelParams(eps, 1.0), R).H
    assert SphereSpec(ModelParams(1e-40, 1.0), 1e-260).H == 1.0 / (1e-40 * 1e-260)


@pytest.mark.parametrize("eps", [4.5e102, 5e102, 5.6e102])
def test_profile_height_where_it_overflows_raises(eps):
    """eps^3 is finite here, but m (1 + atanc p) passes the largest float: NumericsError for a
    float and an array radius, with no warning, where a float gave inf silently."""
    spec = SphereSpec(ModelParams(eps, 1.0), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (0.02, np.array([0.0, 0.02, 0.5])):
            with pytest.raises(NumericsError, match=re.escape(f"not finite with eps = {eps!r}")):
                profile_height(spec, r)


@pytest.mark.parametrize("eps, r, what", [
    (5e102, [0.02, 0.5], "the profile height"),
    (5e102, 0.5, "the profile height"),
    (4.4e102, [0.5, 0.99], "f_R"),
])
def test_profile_height_R_where_it_or_the_profile_overflows_raises(eps, r, what):
    """profile_height_R warned of an overflow in multiply where the profile overflows, and
    returned inf with an overflow in divide where F'/g passes the largest float near the rim."""
    spec = SphereSpec(ModelParams(eps, 1.0), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = re.escape(f"{what} is not finite with eps = {eps!r}, sigma = 1.0, R = 1.0")
        with pytest.raises(NumericsError, match=f"^{message}$"):
            profile_height_R(spec, r)
        assert profile_height_R(SphereSpec(ModelParams(4.4e102, 1.0), 1.0), 0.5) > 9.8e307
