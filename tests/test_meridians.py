import math

import numpy as np
import pytest

from heisenberg_cmc import (
    DomainError,
    ModelParams,
    Point,
    SphereSpec,
    foliation_normal,
    profile_height,
    radius_field,
    vector_to_coordinates,
    vertical_component,
)
from heisenberg_cmc.ambient import christoffel_frame
from heisenberg_cmc.meridians import (
    euclidean_meridian_field,
    integrate_meridian,
    limit_fields,
    meridian_field,
    meridian_field_coordinates,
    meridian_geodesic_residual,
    normal_acceleration,
    normal_derivatives,
    pansu_geodesic_residual,
    pansu_meridian_field,
    sample_field,
)
from heisenberg_cmc.sphere import _p_north, _radius_solve


def random_point(rng, r_range=(0.15, 1.8), t_range=(0.15, 1.5)):
    r = rng.uniform(*r_range)
    th = rng.uniform(0.0, 2.0 * math.pi)
    t = rng.uniform(*t_range) * (1.0 if rng.uniform() < 0.5 else -1.0)
    return Point(r * math.cos(th), r * math.sin(th), t)


def leaf_p(params, pt):
    """The signed tilt parameter of the leaf through pt (for the oracle)."""
    r = math.hypot(pt[0], pt[1])
    R = float(_radius_solve(params, r, pt[2]))
    return float(np.sign(pt[2])) * float(_p_north(params, r, R))


def test_normal_radius_derivative_at_equator(params):
    nr, npv = normal_derivatives(params, Point(0.7, 0.0, 0.0))
    assert nr == pytest.approx(1.0 / params.epsilon, rel=1e-14)
    assert npv == 0.0


def test_normal_derivatives_match_finite_differences(params, rng):
    h = 1e-5
    for _ in range(25):
        q = random_point(rng)
        nr, npv = normal_derivatives(params, q)
        ncoords = vector_to_coordinates(params, q, foliation_normal(params, q))
        pa = q.as_array()

        def r_of(pt):
            return float(_radius_solve(params, math.hypot(pt[0], pt[1]), pt[2]))

        fd_r = (r_of(pa + h * ncoords) - r_of(pa - h * ncoords)) / (2 * h)
        fd_p = (leaf_p(params, pa + h * ncoords) - leaf_p(params, pa - h * ncoords)) / (2 * h)
        assert nr == pytest.approx(fd_r, rel=1e-6)
        assert npv == pytest.approx(fd_p, rel=1e-6, abs=1e-9)


def test_normal_derivatives_reject_origin(params):
    with pytest.raises(DomainError):
        normal_derivatives(params, Point(0.0, 0.0, 0.0))


def test_normal_acceleration_vanishes_on_equatorial_plane(params):
    assert normal_acceleration(params, Point(0.8, -0.1, 0.0)).norm() == 0.0


def test_normal_acceleration_is_tangent(params, rng):
    for _ in range(30):
        q = random_point(rng)
        dnn = normal_acceleration(params, q)
        n = foliation_normal(params, q)
        assert abs(dnn.dot(n)) <= 1e-10 * max(1.0, dnn.norm())


def test_normal_acceleration_matches_fd_covariant_derivative(params, rng):
    gamma = christoffel_frame(params)
    h = 1e-6
    for _ in range(25):
        q = random_point(rng)
        dnn = normal_acceleration(params, q).as_array()
        n = foliation_normal(params, q)
        ncoords = vector_to_coordinates(params, q, n)
        pa = q.as_array()
        n_plus = foliation_normal(params, Point.from_array(pa + h * ncoords)).as_array()
        n_minus = foliation_normal(params, Point.from_array(pa - h * ncoords)).as_array()
        fd = (n_plus - n_minus) / (2 * h) + np.einsum(
            "i,j,ijk->k", n.as_array(), n.as_array(), gamma
        )
        assert np.linalg.norm(fd - dnn) <= 1e-5 * max(np.linalg.norm(dnn), 1e-3)


def test_normal_acceleration_rejects_axis(params):
    with pytest.raises(DomainError):
        normal_acceleration(params, Point(0.0, 0.0, 1.0))


def test_meridian_field_unit_and_tangent(params, rng):
    for _ in range(100):
        q = random_point(rng)
        m = meridian_field(params, q)
        n = foliation_normal(params, q)
        assert abs(m.norm() - 1.0) <= 1e-10
        assert abs(m.dot(n)) <= 1e-10


def test_meridian_field_matches_normalized_acceleration(params, rng):
    for _ in range(50):
        q = random_point(rng)
        m = meridian_field(params, q)
        dnn = normal_acceleration(params, q)
        if dnn.norm() < 1e-10:
            continue
        ref = (float(np.sign(q.t)) / dnn.norm()) * dnn
        assert (m - ref).norm() <= 1e-8


def test_meridian_field_continuous_at_equator(params):
    up = meridian_field(params, Point(0.8, 0.0, 1e-12))
    down = meridian_field(params, Point(0.8, 0.0, -1e-12))
    assert (up - down).norm() <= 1e-5


def test_sample_field_consistency(params, rng):
    q = random_point(rng)
    fs = sample_field(params, q)
    assert fs.N.dot(fs.M) == pytest.approx(0.0, abs=1e-10)
    assert fs.dNN.dot(fs.N) == pytest.approx(0.0, abs=1e-10)


def figure1_spec():
    return SphereSpec(ModelParams(0.5, 0.5), 2.0)


def start_point(spec, frac=0.02, theta=0.0):
    r = frac * spec.R
    return Point(r * math.cos(theta), r * math.sin(theta),
                 float(profile_height(spec, r)))


def test_meridian_stays_on_sphere_and_reaches_south_pole():
    spec = figure1_spec()
    curve = integrate_meridian(spec, start_point(spec))
    drift = 0.0
    for px, py, pt in curve.points:
        r = min(math.hypot(px, py), spec.R)
        drift = max(drift, abs(abs(pt) - float(profile_height(spec, r))))
    assert drift <= 1e-8
    assert math.hypot(curve.points[-1, 0], curve.points[-1, 1]) <= 1e-3 * spec.R
    assert curve.points[-1, 2] < 0.0
    assert np.all(np.abs(np.linalg.norm(curve.velocities, axis=1) - 1.0) <= 1e-8)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="F1: a projection that does not converge returns the point unprojected")
def test_meridian_stays_on_its_leaf_at_small_eps():
    spec = SphereSpec(ModelParams(0.02, 1.0), 1.0)
    curve = integrate_meridian(spec, Point(0.02, 0.0, float(profile_height(spec, 0.02))), step=5e-4)
    r = np.minimum(np.hypot(curve.points[:, 0], curve.points[:, 1]), spec.R)
    assert np.max(np.abs(np.abs(curve.points[:, 2]) - profile_height(spec, r))) <= 1e-9


def test_meridian_geodesic_identity():
    spec = figure1_spec()
    curve = integrate_meridian(spec, start_point(spec))
    assert meridian_geodesic_residual(spec, curve) <= 1e-6


def reference_geodesic_residual(spec, curve, r_min_frac=0.1):
    """The geodesic residual sample by sample, with the public scalar normal."""
    params = spec.params
    h = curve.s[1] - curve.s[0]
    m = curve.velocities
    gamma = christoffel_frame(params)
    worst = 0.0
    for i in range(2, len(curve) - 3):
        q = curve.point(i)
        if q.r < r_min_frac * spec.R:
            continue
        dm = (m[i - 2] - 8.0 * m[i - 1] + 8.0 * m[i + 1] - m[i + 2]) / (12.0 * h)
        conv = dm + np.einsum("i,j,ijk->k", m[i], m[i], gamma)
        w2 = 1.0 + (params.tau * params.epsilon * q.r) ** 2
        resid = conv + (spec.H / w2) * foliation_normal(params, q).as_array()
        worst = max(worst, float(np.linalg.norm(resid)))
    return worst


@pytest.mark.parametrize("eps, sigma, R, step_frac", [
    (0.5, 0.5, 2.0, 4e-3),  # the --figure1 preset
    (1.0, 1.0, 1.0, 2e-3),
    (0.25, 2.0, 0.7, 1e-2),
])
def test_geodesic_residual_matches_scalar_loop(eps, sigma, R, step_frac):
    spec = SphereSpec(ModelParams(eps, sigma), R)
    curve = integrate_meridian(spec, start_point(spec), step=step_frac * R)
    expected = reference_geodesic_residual(spec, curve)
    assert meridian_geodesic_residual(spec, curve) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_geodesic_residual_flags_an_off_sphere_curve():
    """At eps = 0.02 some samples near the equator stay off the sphere (a
    known projection fault); the residual must show it."""
    spec = SphereSpec(ModelParams(0.02, 1.0), 1.0)
    curve = integrate_meridian(spec, start_point(spec))
    r = np.minimum(np.hypot(curve.points[:, 0], curve.points[:, 1]), spec.R)
    drift = np.max(np.abs(np.abs(curve.points[:, 2]) - profile_height(spec, r)))
    assert drift > 1e-4, "the curve is on the sphere: pick another off-sphere curve"
    resid = meridian_geodesic_residual(spec, curve)
    assert resid > 1.0
    assert resid == pytest.approx(reference_geodesic_residual(spec, curve), rel=1e-12, abs=0.0)


def test_meridian_rotational_symmetry(spec):
    theta = 1.1
    c0 = integrate_meridian(spec, start_point(spec, theta=0.0), step=1e-3)
    c1 = integrate_meridian(spec, start_point(spec, theta=theta), step=1e-3)
    n = min(len(c0), len(c1))
    cs, sn = math.cos(theta), math.sin(theta)
    rot = np.array([[cs, -sn, 0.0], [sn, cs, 0.0], [0.0, 0.0, 1.0]])
    rotated = c0.points[:n] @ rot.T
    assert np.max(np.linalg.norm(rotated - c1.points[:n], axis=1)) <= 1e-8


def test_meridian_requires_on_sphere_start(spec):
    from heisenberg_cmc import ContractError

    with pytest.raises(ContractError):
        integrate_meridian(spec, Point(0.3, 0.0, 1.5))


def test_meridian_rejects_start_outside_the_rim():
    """|z| > R is off the sphere even though |t| = 0 = f(R; R) there."""
    from heisenberg_cmc import ContractError

    with pytest.raises(ContractError):
        integrate_meridian(SphereSpec(ModelParams(1.0, 1.0), 1.0), Point(1.5, 0.0, 0.0))


def test_euclidean_field_meridian_plane_and_tangency(rng):
    for _ in range(20):
        q = random_point(rng)
        mh = euclidean_meridian_field(q)
        # no azimuthal (twist) component
        assert q.x * mh.aY - q.y * mh.aX == pytest.approx(0.0, abs=1e-14)
        # tangent to the round sphere through q
        assert q.x * mh.aX + q.y * mh.aY + q.t * mh.aT == pytest.approx(0.0, abs=1e-12)
        assert mh.norm() == pytest.approx(1.0, rel=1e-12)


def test_pansu_field_horizontal_unit(rng):
    for _ in range(20):
        q = random_point(rng)
        mb = pansu_meridian_field(1.0, q)
        assert vertical_component(mb) == 0.0
        assert mb.norm() == pytest.approx(1.0, rel=1e-10)


def test_field_converges_to_euclidean_as_twist_shrinks():
    pts = [Point(0.5, 0.2, 0.4), Point(1.0, -0.3, -0.8), Point(0.3, 0.0, 1.2)]
    for q in pts:
        dists = []
        for sig in (1e-1, 1e-2, 1e-3):
            params = ModelParams(1.0, sig)
            mc = meridian_field_coordinates(params, q)
            target = vector_to_coordinates(
                ModelParams(1.0, 0.0), q, euclidean_meridian_field(q)
            )
            dists.append(float(np.linalg.norm(mc - target)))
        assert dists[0] > dists[1] > dists[2]


def scaled_field_bar_components(params, q):
    m = meridian_field(params, q)
    e = params.epsilon
    return np.array([m.aX, m.aY, e**3 * m.aT])


def test_scaled_field_converges_to_pansu():
    sigma = 1.0
    pts = [Point(0.5, 0.2, 0.4), Point(0.8, -0.3, 0.9)]
    for q in pts:
        target = pansu_meridian_field(sigma, q).as_array()
        dists = []
        for eps in (0.5, 0.25, 0.125):
            params = ModelParams(eps, sigma)
            dists.append(float(np.linalg.norm(scaled_field_bar_components(params, q) - target)))
        assert dists[0] > dists[1] > dists[2]


def test_pansu_geodesic_equation_residual(rng):
    for _ in range(20):
        sigma = rng.uniform(0.3, 2.0)
        R = rng.uniform(0.5, 2.0)
        r = rng.uniform(0.1, 0.9) * R
        theta = rng.uniform(0.0, 2.0 * math.pi)
        assert pansu_geodesic_residual(sigma, R, r, theta) <= 1e-8


def test_scaled_normal_defect_limit():
    """eps^-4 nabla_M M approaches (1/(2 sigma^2 r^2)) nabla_Mbar Mbar with a
    first-order rate in eps."""
    sigma = 1.0
    q = Point(0.6, 0.1, 0.5)
    r = q.r
    Rbar = None
    target = None
    diffs = []
    for eps in (0.5, 0.25, 0.125):
        params = ModelParams(eps, sigma)
        rf = radius_field(params, q.r, q.t)
        R = rf.value
        w2 = 1.0 + (params.tau * eps * q.r) ** 2
        n = foliation_normal(params, q)
        H = 1.0 / (eps * R)
        # bar-frame components of eps^-4 * (-(H/w^2) N)
        coeff = -H / (eps**4 * w2)
        bar = np.array([coeff * n.aX / eps, coeff * n.aY / eps, coeff * eps * eps * n.aT])
        if target is None:
            mb = pansu_meridian_field(sigma, q)
            from heisenberg_cmc import horizontal_rotation

            jm = horizontal_rotation(mb)
            Rbar = float(__import__("heisenberg_cmc").pansu_radius(sigma, q.r, q.t))
            target = (2.0 / Rbar) * (1.0 / (2.0 * sigma**2 * r**2)) * jm.as_array()
        diffs.append(float(np.linalg.norm(bar - target)))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[0] / diffs[1] >= 1.8
    assert diffs[1] / diffs[2] >= 1.8


def test_limit_fields_pair(params, rng):
    q = random_point(rng)
    mh, mb = limit_fields(params, q)
    assert mh.norm() == pytest.approx(1.0, rel=1e-10)
    assert vertical_component(mb) == 0.0
