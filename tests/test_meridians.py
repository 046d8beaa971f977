import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from heisenberg_cmc import (
    ContractError,
    DomainError,
    ModelParams,
    NumericsError,
    Point,
    SphereSpec,
    TangentVector,
    foliation_normal,
    meridians,
    profile_height,
    radius_field,
    vector_to_coordinates,
    vertical_component,
)
from heisenberg_cmc import cli
from heisenberg_cmc.ambient import christoffel_frame
from heisenberg_cmc.meridians import (
    MeridianCurve,
    _geodesic_residual,
    _meridian,
    _rk4_velocity,
    integrate_meridian,
    meridian_field,
    meridian_curve,
    meridian_geodesic_residual,
    pansu_geodesic_residual,
    pansu_meridian_field,
)
from heisenberg_cmc.sphere import _normal_components, _pieces, _profile, _radius_of

from conftest import SUBNORMAL_FLAT


def random_point(rng, r_range=(0.15, 1.8), t_range=(0.15, 1.5)):
    r = rng.uniform(*r_range)
    th = rng.uniform(0.0, 2.0 * math.pi)
    t = rng.uniform(*t_range) * (1.0 if rng.uniform() < 0.5 else -1.0)
    return Point(r * math.cos(th), r * math.sin(th), t)


def fd_normal_acceleration(params, q, h=1e-6):
    """nabla_N N at q: the central difference of the foliation normal along itself plus the
    connection term Gamma(N, N)."""
    n = foliation_normal(params, q)
    step = h * vector_to_coordinates(params, q, n)
    n_plus, n_minus = (foliation_normal(params, Point.from_array(q.as_array() + d)).as_array()
                       for d in (step, -step))
    conv = np.einsum("i,j,ijk->k", n.as_array(), n.as_array(), christoffel_frame(params))
    return TangentVector.from_array((n_plus - n_minus) / (2 * h) + conv)


def euclidean_meridian_field(q):
    """The round-sphere foliation's meridian field (sigma -> 0, eps = 1): (x lam, y lam, -r/R)
    with lam = t/(r R), R = sqrt(r^2 + t^2)."""
    R = math.hypot(q.r, q.t)
    return TangentVector(q.x * q.t / (q.r * R), q.y * q.t / (q.r * R), -q.r / R)


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
        dnn = fd_normal_acceleration(params, q)
        if dnn.norm() < 1e-10:
            continue
        ref = (float(np.sign(q.t)) / dnn.norm()) * dnn
        assert (m - ref).norm() <= 1e-8


def test_meridian_field_continuous_at_equator(params):
    up = meridian_field(params, Point(0.8, 0.0, 1e-12))
    down = meridian_field(params, Point(0.8, 0.0, -1e-12))
    assert (up - down).norm() <= 1e-5


def test_foliation_fields_consistency(params, rng):
    q = random_point(rng)
    n = foliation_normal(params, q)
    assert n.dot(meridian_field(params, q)) == pytest.approx(0.0, abs=1e-10)


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
    """The sample nearest the equator moved past the rim, with the field's
    velocities taken at the moved points, as a projection that failed to
    converge would leave them; the residual must show it."""
    spec = SphereSpec(ModelParams(0.02, 1.0), 1.0)
    curve = integrate_meridian(spec, start_point(spec), step=spec.R / 2000)
    points = curve.points.copy()
    points[np.argmin(np.abs(points[:-1, 2])), :2] *= 1.0 + 1e-3
    x, y, t = points[:-1].T
    r = _radius_of(x, y)
    field = _meridian(spec.params, x, y, r, t, spec.R, *_pieces(spec.params, r, spec.R)[:2])
    velocities = np.vstack([np.column_stack(field), curve.velocities[-1]])
    curve = MeridianCurve(spec.R, curve.s, points, velocities)
    r = np.minimum(np.hypot(curve.points[:, 0], curve.points[:, 1]), spec.R)
    drift = np.max(np.abs(np.abs(curve.points[:, 2]) - profile_height(spec, r)))
    assert drift > 1e-4, "the curve is on the sphere: pick another off-sphere curve"
    resid = meridian_geodesic_residual(spec, curve)
    assert resid > 1.0
    assert resid == pytest.approx(reference_geodesic_residual(spec, curve), rel=1e-12, abs=0.0)


def stencil_and_closed_form_acceleration(spec, curve):
    """nabla_M M at the stencil's samples (r >= 0.1 R, two from each end) by the stencil of
    meridian_geodesic_residual and from the closed form, which gives it times eps R less the
    normal term (eps^3/m)^2 N; keyed by sample index."""
    params, R, e = spec.params, spec.R, spec.params.epsilon
    h, v = curve.s[1] - curve.s[0], curve.velocities
    i = np.arange(2, len(curve) - 3)
    i = i[_radius_of(curve.points[i, 0], curve.points[i, 1]) >= 0.1 * R]
    stencil = (v[i - 2] - 8.0 * v[i - 1] + 8.0 * v[i + 1] - v[i + 2]) / (12.0 * h)
    stencil += np.einsum("ni,nj,ijk->nk", v[i], v[i], christoffel_frame(params))
    x, y, t = curve.points[i].T
    g, m, _ = _pieces(params, _radius_of(x, y), R)
    normal_term = (e * e * e / m)[:, None] ** 2 * _normal_components(params, x, y, t, R, g, m)
    closed = _geodesic_residual(spec, curve.points[i], v[i], _radius_of(x, y))
    closed = (closed - normal_term) / (e * R)
    return dict(zip(i.tolist(), np.linalg.norm(stencil - closed, axis=1).tolist()))


@pytest.mark.parametrize("eps, sigma, R", [
    (1.0, 1.0, 1.0),
    (0.5, 0.5, 2.0),  # the --figure1 preset
    (0.7, -2.0, 1.3),
])
def test_closed_form_geodesic_residual_meets_its_stencil_oracle_at_fourth_order(eps, sigma, R):
    """At each sample the stencil's nabla_M M less the closed form's falls 16-fold when the
    step halves (sample k of the coarse curve is sample 2k of the fine one), while the closed
    form's own residual stays at rounding."""
    spec = SphereSpec(ModelParams(eps, sigma), R)
    coarse, fine = (meridian_curve(spec, start_point(spec), math.pi * eps * R / n)
                    for n in (256, 512))
    gap_coarse = stencil_and_closed_form_acceleration(spec, coarse)
    gap_fine = stencil_and_closed_form_acceleration(spec, fine)
    ratios = [gap / gap_fine[2 * k] for k, gap in gap_coarse.items() if 2 * k in gap_fine]
    assert len(ratios) >= 100
    assert 15.0 <= min(ratios) and max(ratios) <= 17.0
    r = _radius_of(fine.points[:, 0], fine.points[:, 1])
    keep = r >= 0.1 * R
    resid = _geodesic_residual(spec, fine.points[keep], fine.velocities[keep], r[keep])
    assert np.max(np.linalg.norm(resid, axis=1)) <= 1e-12


def test_closed_form_geodesic_residual_is_rounding_sized_for_every_eps():
    """Scale-free: eps R times the residual is formed in (eps^3, sigma), so it stays at
    rounding, with no warning, from eps = 1e-300 to 1e3 at each sign and size of sigma."""
    rng = np.random.default_rng(26)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in [*10.0 ** rng.uniform(-8.0, 3.0, 24), 1e-60, 1e-200, 1e-300]:
            for sigma in (1.0, -2.0, 0.3):
                spec = SphereSpec(ModelParams(float(eps), sigma), 1.0)
                curve = meridian_curve(spec, start_point(spec), math.pi * eps / 512)
                r = _radius_of(curve.points[:, 0], curve.points[:, 1])
                keep = r >= 0.1
                resid = _geodesic_residual(spec, curve.points[keep], curve.velocities[keep],
                                           r[keep])
                worst = max(worst, float(np.max(np.linalg.norm(resid, axis=1))))
    assert worst <= 1e-12


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


@pytest.mark.parametrize("name", ["step", "max_len", "pole_radius"])
@pytest.mark.parametrize("value", [0.0, -0.01, math.nan, math.inf])
def test_meridian_rejects_lengths_that_are_not_positive_and_finite(spec, name, value):
    with pytest.raises(DomainError, match=name):
        integrate_meridian(spec, start_point(spec), **{name: value})


def test_meridian_step_that_leaves_the_finite_numbers_raises():
    """At eps = 1e-6 the step 5e-4 R is far longer than the curve (pi eps R):
    the state runs off to inf within a few steps, and must not run on."""
    spec = SphereSpec(ModelParams(1e-6, 1.0), 1.0)
    with pytest.raises(NumericsError, match=r"finite numbers at eps = 1e-06, step = 0\.0005"):
        integrate_meridian(spec, start_point(spec), step=5e-4, max_len=1.0)


def test_meridian_that_misses_the_pole_raises():
    """Half the pole-to-pole length pi eps R only reaches the equator."""
    spec = SphereSpec(ModelParams(1e-6, 1.0), 1.0)
    with pytest.raises(NumericsError, match="did not reach the south pole"):
        integrate_meridian(spec, start_point(spec), max_len=0.5 * math.pi * 1e-6 * spec.R)


# ------------------------------------------------------------ closed form


@pytest.mark.parametrize("eps, sigma, R", [(0.5, 0.5, 2.0), (0.7, -1.3, 0.8), (1.0, 0.0, 1.0)])
def test_closed_form_meridian_is_the_limit_of_rk4_at_fourth_order(eps, sigma, R):
    """Halving the RK4 step divides its distance from the closed form by about
    16.  Only the north hemisphere up to r = 0.9 R is compared: near the
    equator the RK4 stages step over the rim, where the frozen field has a
    kink, and its order drops from there on."""
    spec = SphereSpec(ModelParams(eps, sigma), R)
    start = start_point(spec, frac=0.2)
    errors = []
    for n in (100, 200, 400):
        step = math.pi * eps * R / n
        exact = meridian_curve(spec, start, step)
        rk4 = integrate_meridian(spec, start, step=step)
        r = np.hypot(exact.points[:, 0], exact.points[:, 1])
        north = np.flatnonzero((exact.points[:, 2] > 0.0) & (r < 0.9 * R))
        errors.append(np.max(np.abs(exact.points[north] - rk4.points[north])))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((3.7 <= orders) & (orders <= 4.3)), orders


def benchmark_meridian_pool():
    """(eps, sigma, R) of each point of the benchmark's meridian pool."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [point[1:] for point in workloads.meridian_pool()]


def assert_same_curves(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.R == b.R
        for name in ("s", "points", "velocities"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def test_one_pass_curves_are_separate_meridian_curve_calls_bit_for_bit(rng):
    """`meridians._curves` samples several steps from one start in one pass over the concatenated
    phi grids, as `meridian` takes its output and check curves; each curve has the bits of its own
    `meridian_curve` call: at the benchmark's pool points at its step and the CLI's default, and
    at random specs with sigma < 0, sigma = 0, eps = 1e-6 and a step so long that the curve is
    the start and the pole."""
    cases = [(spec, frac) for spec in (SphereSpec(ModelParams(*p[:2]), p[2])
                                       for p in benchmark_meridian_pool())
             for frac in (1e-2, 5e-4)]
    for k in range(40):
        eps, size, R = np.exp(rng.uniform(-3.0, 3.0, 3))
        sigma = (-1.0, 0.0, 1.0)[k % 3] * size
        cases.append((SphereSpec(ModelParams(1e-6 if k % 10 == 9 else eps, sigma), R),
                      float(np.exp(rng.uniform(-8.0, 2.0)))))
    cases.append((SphereSpec(ModelParams(0.5, -1.0), 2.0), 100.0))
    lengths = set()
    for spec, frac in cases:
        start = start_point(spec, frac=float(rng.uniform(0.01, 0.9)))
        steps = [frac * spec.R, math.pi * spec.params.epsilon * spec.R / 512]
        curves = meridians._curves(spec, start, steps)
        assert_same_curves(curves, [meridian_curve(spec, start, step) for step in steps])
        assert_same_curves(meridians._curves(spec, start, steps[::-1]), curves[::-1])
        lengths.add(len(curves[0]))
    assert 2 in lengths and max(lengths) > 1000


@pytest.mark.parametrize("eps", [1e-6, 1e-3])
def test_rk4_default_step_reaches_the_pole_on_the_closed_form(eps):
    """The default step pi eps R / 4096 scales with the curve, so RK4 reaches
    the south pole at any eps and stays on the closed-form samples."""
    spec = SphereSpec(ModelParams(eps, 1.0), 1.0)
    start = start_point(spec)
    rk4 = integrate_meridian(spec, start)
    step = math.pi * eps * spec.R / 4096
    assert rk4.s[1] == step
    assert math.hypot(*rk4.points[-2, :2]) <= 3.0 * step / eps and rk4.points[-2, 2] < 0.0
    exact = meridian_curve(spec, start, step)
    n = min(len(exact), len(rk4)) - 1  # the two end at the pole a sample apart
    assert np.max(np.abs(exact.points[:n] - rk4.points[:n])) <= 1e-8 * max(1.0, spec.R)


@pytest.mark.parametrize("eps, sigma, R", [(1e-3, 0.0, 1e-3), (1e-4, 0.0, 1e-4), (1e-4, 1.0, 1e-4),
                                           (0.01, 0.0, 1.0)])
def test_rk4_retraction_holds_tiny_spheres_on_the_closed_form(eps, sigma, R):
    """The sphere is about eps^3 R tall, so an on-sphere test absolute in t
    never fires there; the chart retraction keeps RK4 on the closed form."""
    spec = SphereSpec(ModelParams(eps, sigma), R)
    start = start_point(spec)
    rk4 = integrate_meridian(spec, start)
    step = math.pi * eps * R / 4096
    assert math.hypot(*rk4.points[-2, :2]) <= 3.0 * step / eps and rk4.points[-2, 2] < 0.0
    exact = meridian_curve(spec, start, step)
    n = min(len(exact), len(rk4)) - 1
    assert np.max(np.abs(exact.points[:n] - rk4.points[:n])) <= 1e-8 * R


@pytest.mark.parametrize("eps, sigma, R", [(0.5, 0.5, 2.0), (0.7, -1.3, 0.8), (1.0, 0.0, 1.0),
                                           (0.02, 1.0, 1.0), (2.0, -4.0, 3.0), (1e-3, 1.0, 0.5),
                                           (3.0, 0.2, 0.4)])
def test_rk4_velocity_is_the_meridian_field_in_coordinates(rng, eps, sigma, R):
    """The integrator's velocity, with its tau-free t-component, is the frame
    field M in coordinates at sphere points of both hemispheres."""
    params = ModelParams(eps, sigma)
    spec = SphereSpec(params, R)
    r = rng.uniform(0.02, 0.99, 50) * R
    theta = rng.uniform(0.0, 2.0 * math.pi, 50)
    t = rng.choice([-1.0, 1.0], 50) * profile_height(spec, r)
    for q in np.column_stack((r * np.cos(theta), r * np.sin(theta), t)):
        got = _rk4_velocity(params, R, q)
        p = Point.from_array(q)
        expected = vector_to_coordinates(params, p, meridian_field(params, p))
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("eps, sigma, R", [(0.5, 0.5, 2.0), (0.7, -1.3, 0.8), (1.0, 0.0, 1.0),
                                           (0.02, 1.0, 1.0), (3.0, 0.2, 0.4), (1e-6, 1.0, 1.0)])
def test_closed_form_meridian_twists_by_twice_arctan_tau_eps_R(eps, sigma, R):
    """From pole to pole theta grows by 2 arctan(tau eps R), and from a pole to
    radius r by arcsin(w(r)/w(R)) - arcsin(1/w(R)) (the north-hemisphere form,
    mirrored on the south), so between the first and the last sample before
    the pole it grows by the total less those two pieces."""
    params = ModelParams(eps, sigma)
    spec = SphereSpec(params, R)
    curve = meridian_curve(spec, start_point(spec, frac=0.05, theta=0.3),
                           math.pi * eps * R / 300)
    te = params.tau * eps
    w_R = math.sqrt(1.0 + (te * R) ** 2)

    def from_pole(r):
        return math.asin(math.sqrt(1.0 + (te * r) ** 2) / w_R) - math.asin(1.0 / w_R)

    r_first, r_last = (math.hypot(*curve.points[k, :2]) for k in (0, -2))
    expected = math.copysign(1.0, te) * (2.0 * math.atan(abs(te) * R)
                                         - from_pole(r_first) - from_pole(r_last))
    theta = np.unwrap(np.arctan2(curve.points[:-1, 1], curve.points[:-1, 0]))
    assert theta[-1] - theta[0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2, 0.3, 1.0, 10.0])
@pytest.mark.parametrize("sigma, R", [(1.0, 1.0), (-2.5, 0.3), (0.0, 3.0), (0.4, 40.0)])
def test_closed_form_samples_are_on_the_sphere_at_unit_speed(eps, sigma, R):
    spec = SphereSpec(ModelParams(eps, sigma), R)
    curve = meridian_curve(spec, start_point(spec), math.pi * eps * R / 777)
    r = np.minimum(_radius_of(curve.points[:, 0], curve.points[:, 1]), R)
    scale = max(1.0, R, float(profile_height(spec, 0.0)))
    assert np.max(np.abs(np.abs(curve.points[:, 2]) - profile_height(spec, r))) <= 1e-12 * scale
    assert np.max(np.abs(np.linalg.norm(curve.velocities, axis=1) - 1.0)) <= 1e-12
    assert np.array_equal(curve.s, curve.s[1] * np.arange(len(curve)))
    assert np.array_equal(curve.points[-1], [0.0, 0.0, -float(profile_height(spec, 0.0))])


def test_closed_form_meridian_rotates_with_its_start(spec):
    theta = 1.1
    c0 = meridian_curve(spec, start_point(spec, theta=0.0), 1e-3)
    c1 = meridian_curve(spec, start_point(spec, theta=theta), 1e-3)
    cs, sn = math.cos(theta), math.sin(theta)
    rot = np.array([[cs, -sn, 0.0], [sn, cs, 0.0], [0.0, 0.0, 1.0]])
    assert len(c0) == len(c1)
    assert np.max(np.linalg.norm(c0.points @ rot.T - c1.points, axis=1)) <= 1e-13
    assert np.max(np.linalg.norm(c0.velocities @ rot.T - c1.velocities, axis=1)) <= 1e-13


def test_twist_angle_has_the_meridian_derivative():
    """Theta = atan2(w(r), |tau eps| R cos(phi)) at r = R sin(phi) has
    dTheta/dphi = |tau eps| r / w(r), the meridian's dtheta/dphi."""
    import sympy as sp

    a, R, phi = sp.symbols("a R phi", positive=True)
    r = R * sp.sin(phi)
    w = sp.sqrt(1 + a**2 * r**2)
    theta = sp.atan2(w, a * R * sp.cos(phi))
    assert sp.simplify(sp.diff(theta, phi) - a * r / w) == 0


@pytest.mark.parametrize("value", [0.0, -0.01, math.nan, math.inf])
def test_closed_form_meridian_rejects_a_step_that_is_not_positive_and_finite(spec, value):
    with pytest.raises(DomainError, match="step must be positive and finite"):
        meridian_curve(spec, start_point(spec), value)


def test_closed_form_meridian_rejects_starts_off_the_sphere_or_at_a_pole(spec):
    from heisenberg_cmc import ContractError

    with pytest.raises(ContractError):
        meridian_curve(spec, Point(0.3, 0.0, 1.5), 1e-2)
    with pytest.raises(DomainError, match="off the poles"):
        meridian_curve(spec, Point(0.0, 0.0, float(profile_height(spec, 0.0))), 1e-2)


def test_euclidean_field_meridian_plane_and_tangency(rng):
    for _ in range(20):
        q = random_point(rng)
        mh = euclidean_meridian_field(q)
        # no azimuthal (twist) component
        assert q.x * mh.aY - q.y * mh.aX == pytest.approx(0.0, abs=1e-14)
        # tangent to the round sphere through q
        assert q.x * mh.aX + q.y * mh.aY + q.t * mh.aT == pytest.approx(0.0, abs=1e-12)
        assert mh.norm() == pytest.approx(1.0, rel=1e-12)


def mp_leaf_fields(eps, sigma, x, y, t):
    """50-digit foliation normal, meridian field and Pansu field (at |sigma|) at (x, y, t), from
    g = sqrt(R^2 - r^2) solved in g itself, where f = [m(R)^2 arctan(p) + m(r)^2 p]/(2 sigma),
    p = sigma g/m(r), and Pansu's profile is (sigma/2)[R^2 arctan(g/r) + r g]: the closed forms
    of the docstrings, in mpmath."""
    e, s, x, y, t = (mpmath.mpf(v) for v in (eps, sigma, x, y, t))
    r, a, sg = mpmath.sqrt(x * x + y * y), abs(s), mpmath.sign(t)
    m = mpmath.sqrt(e**6 + s * s * r * r)
    f = lambda g: ((e**6 + a * a * (r * r + g * g)) * mpmath.atan(a * g / m) + m * a * g) / (2 * a)
    g = mpmath.findroot(lambda g: f(g) - abs(t), abs(t) / m)
    R, p = mpmath.sqrt(r * r + g * g), sg * s * g / m
    lam, mu, nu = sg * g / (r * R), s * r / (R * m), e**3 * r / (R * m)
    gb = mpmath.findroot(lambda g: a / 2 * ((r * r + g * g) * mpmath.atan(g / r) + r * g) - abs(t),
                         mpmath.sqrt(abs(t) / a))
    Rb = mpmath.sqrt(r * r + gb * gb)
    return (((x + y * p) / R, (y - x * p) / R, sg * e**3 * g / (m * R)),
            (x * lam - y * mu, y * lam + x * mu, -nu),
            (x * sg * gb / (r * Rb) - y / Rb, y * sg * gb / (r * Rb) + x / Rb, 0))


@pytest.mark.parametrize("eps, sigma", [(1.0, 1.0), (0.5, -2.0)])
@pytest.mark.parametrize("t", [1e-3, -1e-3, 1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12])
def test_fields_near_the_equator_plane_match_50_digit_leaves(eps, sigma, t):
    """Off the sphere every field reads g = sqrt(R^2 - r^2) of its leaf from the radius solve.
    Worked out again from R, g was lost once g^2 fell below an ulp of r^2: the normal was
    (0.6, 0.8, 0) at |t| = 1e-9.  Each nonzero component is within 1e-14 relative."""
    params, point = ModelParams(eps, sigma), Point(0.42, 0.56, t)
    got = (foliation_normal(params, point).as_array(), meridian_field(params, point).as_array(),
           pansu_meridian_field(abs(sigma), point).as_array())
    with mpmath.workdps(50):
        for name, values, exact in zip(("normal", "field", "pansu"),
                                       got, mp_leaf_fields(eps, sigma, *point.as_array())):
            for value, want in zip(values, exact):
                if want == 0:
                    assert value == 0.0, name
                else:
                    assert abs(value - want) <= 1e-14 * abs(want), (name, value, want)


@pytest.mark.parametrize("sigma", [0.0, -1.0])
def test_pansu_field_needs_a_positive_sigma(sigma):
    with pytest.raises(DomainError, match="sigma must be positive"):
        pansu_meridian_field(sigma, Point(0.3, 0.4, 0.1))


@pytest.mark.parametrize("point", [Point(math.inf, 0.4, 0.1), Point(0.3, 0.4, math.nan),
                                   Point(0.3, 0.4, -math.inf)])
def test_pansu_field_needs_a_finite_point(point):
    with pytest.raises(DomainError, match="needs a finite point"):
        pansu_meridian_field(1.0, point)


def test_pansu_field_on_the_axis_raises():
    with pytest.raises(DomainError, match="undefined on the center axis"):
        pansu_meridian_field(1.0, Point(0.0, 0.0, 0.3))


@pytest.mark.parametrize("r", [1.0, 1.5])
def test_pansu_geodesic_residual_needs_r_below_R(r):
    with pytest.raises(DomainError, match="need 0 < r < R"):
        pansu_geodesic_residual(1.0, 1.0, r)


def test_pansu_field_rejects_a_nan_coordinate_without_a_warning():
    """|z| is np.hypot, which passes NaN on quietly, so the DomainError is the only signal."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="needs a finite point"):
            pansu_meridian_field(1.0, Point(math.nan, 0.4, 0.1))


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
            mc = vector_to_coordinates(params, q, meridian_field(params, q))
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


def test_limit_field_pair(params, rng):
    q = random_point(rng)
    mh, mb = euclidean_meridian_field(q), pansu_meridian_field(params.sigma, q)
    assert mh.norm() == pytest.approx(1.0, rel=1e-10)
    assert vertical_component(mb) == 0.0


def test_closed_form_meridian_past_its_sample_cap_raises_before_allocating():
    """One sample past `_MAX_SAMPLES` raises DomainError with no array made: under 64 kB is
    allocated where the curve would take 168 bytes a sample."""
    spec = figure1_spec()
    start = start_point(spec)
    phi0 = meridians._chart(spec.params, spec.R, start.r, start.t)[0]
    step = (math.pi - phi0) * spec.params.epsilon * spec.R / (meridians._MAX_SAMPLES + 0.5)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"^step = .* asks for 2\.1e\+06 samples, more than an "
                                              r"array holds$"):
            meridian_curve(spec, start, step)
        assert tracemalloc.get_traced_memory()[1] < 65536
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec, frac", SUBNORMAL_FLAT)
def test_meridian_field_where_eps3_is_subnormal_at_sigma_0_raises_numerics_error(spec, frac):
    """Where m(r) = eps^3 is below the normal floats the field's ratios have lost their digits
    ((nan, nan, -inf) at the first sphere; R m(r) underflows to 0 at the second): NumericsError,
    with no warning before it."""
    r = frac * spec.R
    point = Point(r, 0.0, float(profile_height(spec, r)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="the meridian field at Point"):
            meridian_field(spec.params, point)


@pytest.mark.parametrize("params, point", [
    (ModelParams(0.010708805112782058, 7.997579454770231e-05),
     Point(-2e-323, -6e-323, -0.011242671881641998)),  # g/(r R) overflows
    (ModelParams(1.0, 1.0), Point(1e-200, 0.0, 0.0)),  # r R underflows to 0
])
def test_meridian_field_where_r_R_leaves_the_floats_raises_only_its_typed_error(params, point):
    """One point is signed on Python floats: where g/(r R) overflows at a subnormal |z|, or r R
    is 0, the field raises its NumericsError with no warning before it (numpy's float64 warned
    "overflow encountered in scalar divide", which won under warnings as errors)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=r"^the meridian field at Point\(x="):
            meridian_field(params, point)


@pytest.mark.parametrize("R", [1e-160, 1e200, 1e300])
def test_meridian_field_where_r_R_leaves_the_normal_floats_is_scale_free_at_sigma_0(R):
    """At sigma = 0 the field at r = R/2 is (sqrt(3)/2, 0, -1/2) at every R.  Where r R passed the
    largest float, lam = g/(r R) rounded to 0 and the field read (0, 0, -1/2) with no error; where
    r R was subnormal (R = 1e-160) it read 0.866035.  It takes r R in units of R."""
    params = ModelParams(1.0, 0.0)
    point = Point(0.5 * R, 0.0, float(profile_height(SphereSpec(params, R), 0.5 * R)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = meridian_field(params, point).as_array()
    assert np.allclose(v, [math.sqrt(0.75), 0.0, -0.5], rtol=0.0, atol=4e-16)


@pytest.mark.parametrize("spec, frac", SUBNORMAL_FLAT)
def test_meridian_curve_where_eps3_is_subnormal_at_sigma_0_raises_numerics_error(spec, frac):
    """The curve's velocities are the meridian field's closed form, so they keep its rule: where
    m(r) or R m(r) is below the normal floats, NumericsError, with no warning before it."""
    start = start_point(spec, frac)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=r"^the meridian field is not finite with eps = "
                                                f"{spec.params.epsilon!r}, sigma = 0.0, R = "):
            meridian_curve(spec, start, 5e-4 * spec.R)


@pytest.mark.parametrize("frac", [0.02, 0.999999])
def test_meridian_curve_from_an_underflowed_start_raises_numerics_error(frac):
    """Where m(r0) underflows to 0, the start's fos is 0 and the chart divided t by it (a
    ZeroDivisionError): `_curve`'s rule on m, R m and r R runs at the start first."""
    spec = SphereSpec(ModelParams(1e-120, 1e-300), 1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=r"^the meridian field is not finite with eps = "
                                                r"1e-120, sigma = 1e-300, R = 1e-200$"):
            meridian_curve(spec, start_point(spec, frac), 5e-4 * spec.R)


@pytest.mark.parametrize("spec, frac", SUBNORMAL_FLAT + [(SUBNORMAL_FLAT[0][0], 0.02)])
def test_integrated_meridian_where_eps3_is_subnormal_at_sigma_0_raises_numerics_error(spec, frac):
    """The RK4 stages take the meridian field's closed form, so they keep its rule too: where
    m(r) or R m(r) is below the normal floats, the field's NumericsError before the first step
    (not a stray step, nor a ZeroDivisionError where R m(r) underflows to 0), with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=r"^the meridian field is not finite with eps = "
                                                f"{spec.params.epsilon!r}, sigma = 0.0, R = "):
            integrate_meridian(spec, start_point(spec, frac))


@pytest.mark.parametrize("R", [1e-153, 1e-200])
def test_meridians_where_r_R_is_below_the_normal_floats_raise_numerics_error(R):
    """The field's g/(r R) has lost its digits where r R leaves the normal floats: the closed
    form and the RK4 stages raise the field's NumericsError, with no warning before it (RK4
    warned of a division by zero at R = 1e-200)."""
    spec = SphereSpec(ModelParams(1.0, -1.0), R)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sample in (lambda: meridian_curve(spec, start_point(spec), 5e-4 * R),
                       lambda: integrate_meridian(spec, start_point(spec))):
            with pytest.raises(NumericsError, match=r"^the meridian field is not finite with "
                                                    rf"eps = 1\.0, sigma = -1\.0, R = {R!r}$"):
                sample()


def test_meridians_where_eps_R_underflows_raise_numerics_error():
    """Where eps R underflows to 0, dphi/ds = 1/(eps R) is not a float: the closed form and the
    integrator, at its default step and at a given one, raise a NumericsError naming eps, sigma
    and R before any step divides by it, with no warning and no ZeroDivisionError."""
    spec = SphereSpec(ModelParams(1e-300, 1.0), 1e-25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sample in (lambda: meridian_curve(spec, start_point(spec), 5e-29),
                       lambda: integrate_meridian(spec, start_point(spec)),
                       lambda: integrate_meridian(spec, start_point(spec), step=5e-29)):
            with pytest.raises(NumericsError, match=r"^1/\(eps R\) is not finite with "
                                                    r"eps = 1e-300, sigma = 1\.0, R = 1e-25$"):
                sample()


def test_meridian_curve_whose_profile_passes_the_floats_raises_numerics_error():
    """f(r) overflows next to the poles at sigma = 1e308: the profile height's typed error, where
    the curve's profile pass warned and returned inf heights."""
    spec = SphereSpec(ModelParams(1.0, 1e308), 1.0)
    start = Point(0.02, 0.0, profile_height(spec, 0.02))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=r"^the profile height is not finite with "
                                                r"eps = 1\.0, sigma = 1e\+308, R = 1\.0$"):
            meridian_curve(spec, start, 5e-4)


def test_geodesic_residual_stencil_needs_6_samples():
    """A step of a quarter of the pole-to-pole length gives 5 samples, one short of the stencil."""
    spec = figure1_spec()
    curve = meridian_curve(spec, start_point(spec), 0.25 * math.pi * spec.params.epsilon * spec.R)
    assert len(curve) == 5
    with pytest.raises(DomainError, match="curve too short for the residual stencil"):
        meridian_geodesic_residual(spec, curve)


@pytest.mark.parametrize("eps, sigma, R, frac", [(0.5, 0.5, 2.0, 0.02), (1e-5, 1.0, 1.0, 0.3),
                                                 (1.0, -2.0, 1e-3, 0.9), (2.0, 0.0, 1e3, 1.0)])
def test_a_start_from_one_profile_pass_gives_meridian_curves_bits(eps, sigma, R, frac, capsys):
    """`meridian` builds its start as any caller does, from `profile_height`, which is one
    `_profile` pass: with the checks' own step beside it, the curve is meridian_curve's from the
    same start, bit for bit.  meridian_curve still rejects a start off the sphere, and the CLI a
    start radius fraction outside [0, 1]."""
    spec = SphereSpec(ModelParams(eps, sigma), R)
    r0 = frac * R
    g, fos, _ = _profile(spec.params, r0, R)
    start = Point(r0, 0.0, profile_height(spec, r0))
    assert start.t == g * fos
    built = meridians._curves(spec, start, [1e-3 * R, math.pi * eps * R / 512])[0]
    checked = meridian_curve(spec, start, 1e-3 * R)
    for name in ("s", "points", "velocities"):
        assert np.array_equal(getattr(built, name), getattr(checked, name))
    with pytest.raises(ContractError, match="off the sphere"):
        meridian_curve(spec, Point(r0, 0.0, 2.0 * start.t + 1.0), 1e-3 * R)
    assert cli.main(["meridian", "--start-radius-frac", "-0.1"]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: radius must lie in [0, R] with R = 1.0, got -0.1\n"
