import math
import warnings

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
    outer_normal,
    profile_height,
    vertical_component,
)
from heisenberg_cmc import cli
from heisenberg_cmc.curvature import (
    _shape,
    assemble_corrected_shape,
    corrected_shape,
    principal_angle,
    second_fundamental_form,
    shape_operator_fd,
    tangent_frame,
)

from conftest import GRID, SUBNORMAL_FLAT, sphere_point


def test_frame_orthonormality_invariants(rng, spec):
    for _ in range(100):
        q = sphere_point(spec, rng)
        fr = tangent_frame(spec, q)
        n = outer_normal(spec, q)
        assert abs(fr.X1.norm() - 1.0) <= 1e-12
        assert abs(fr.X2.norm() - 1.0) <= 1e-12
        assert abs(fr.X1.dot(fr.X2)) <= 1e-12
        assert vertical_component(fr.X1) == 0.0
        assert abs(fr.X1.dot(n)) <= 1e-12
        assert abs(fr.X2.dot(n)) <= 1e-12


def test_frame_orientation_convention(rng, spec):
    for _ in range(20):
        q = sphere_point(spec, rng)
        fr = tangent_frame(spec, q)
        n = outer_normal(spec, q)
        # X1 along the positive rotation direction (-y, x)
        assert -q.y * fr.X1.aX + q.x * fr.X1.aY > 0.0
        det = np.linalg.det(np.array([fr.X1.as_array(), fr.X2.as_array(), n.as_array()]))
        assert det == pytest.approx(1.0, abs=1e-12)


def test_frame_vertical_component_closed_form(rng, spec):
    tau, eps, H = spec.params.tau, spec.params.epsilon, spec.H
    for _ in range(50):
        q = sphere_point(spec, rng, hemisphere=+1)
        fr = tangent_frame(spec, q)
        rho = tau * eps * q.r
        expect = rho * math.hypot(tau, H) / (tau * math.sqrt(1.0 + rho * rho))
        assert vertical_component(fr.X2) == pytest.approx(expect, rel=1e-10)


def test_frame_rejects_poles(spec):
    f0 = float(profile_height(spec, 0.0))
    with pytest.raises(DomainError):
        tangent_frame(spec, Point(0.0, 0.0, f0))


def test_frame_at_equator(spec):
    q = Point(spec.R, 0.0, 0.0)
    fr = tangent_frame(spec, q)
    assert fr.p == 0.0
    assert vertical_component(fr.X2) == pytest.approx(fr.c, rel=1e-14)


def test_shape_trace_is_twice_mean_curvature(rng):
    for g in GRID[::5]:
        for _ in range(10):
            q = sphere_point(g, rng)
            sd = second_fundamental_form(g, q)
            assert sd.h[0, 0] + sd.h[1, 1] == pytest.approx(2.0 * g.H, abs=1e-12 * g.H)


def test_shape_pole_limit(spec):
    f0 = float(profile_height(spec, 0.0))
    sd = second_fundamental_form(spec, Point(0.0, 0.0, f0))
    assert np.allclose(sd.h, spec.H * np.eye(2))
    assert sd.kappa1 == pytest.approx(spec.H)
    assert sd.kappa2 == pytest.approx(spec.H)
    assert sd.K1 is None and sd.K2 is None


def test_principal_angle_special_value():
    # tau = H makes tan(2 beta) = 1, i.e. beta = pi/8
    assert principal_angle(1.0, 1.0) == pytest.approx(math.pi / 8.0, rel=1e-14)
    assert abs(principal_angle(1.0, 0.5)) < math.pi / 4.0
    assert principal_angle(1.0, -1.0) == pytest.approx(-math.pi / 8.0, rel=1e-14)
    with pytest.raises(DomainError):
        principal_angle(0.0, 1.0)


def test_principal_angle_constant_over_sphere(rng, spec):
    # recover the angle from an eigendecomposition of h at many points
    angles = []
    for _ in range(40):
        q = sphere_point(spec, rng, lo=0.1, hi=0.95)
        sd = second_fundamental_form(spec, q)
        evals, evecs = np.linalg.eigh(sd.h)
        v = evecs[:, 1]  # eigenvector of the larger eigenvalue
        ang = math.atan2(v[1], v[0])
        if ang > math.pi / 2:
            ang -= math.pi
        if ang < -math.pi / 2:
            ang += math.pi
        angles.append(ang)
        assert evals[1] == pytest.approx(sd.kappa1, rel=1e-12)
        assert evals[0] == pytest.approx(sd.kappa2, rel=1e-12)
    assert np.var(angles) <= 1e-12
    assert angles[0] == pytest.approx(principal_angle(spec.H, spec.params.tau), abs=1e-10)


def test_eigen_relations_analytic(rng, spec):
    beta = principal_angle(spec.H, spec.params.tau)
    k1 = np.array([math.cos(beta), math.sin(beta)])
    k2 = np.array([-math.sin(beta), math.cos(beta)])
    for _ in range(20):
        q = sphere_point(spec, rng)
        sd = second_fundamental_form(spec, q)
        assert np.allclose(sd.h @ k1, sd.kappa1 * k1, atol=1e-13)
        assert np.allclose(sd.h @ k2, sd.kappa2 * k2, atol=1e-13)


def test_principal_directions_orthonormal(rng, spec):
    for _ in range(20):
        q = sphere_point(spec, rng)
        sd = second_fundamental_form(spec, q)
        assert sd.kappa1 >= sd.kappa2
        assert abs(sd.K1.norm() - 1.0) <= 1e-12
        assert abs(sd.K2.norm() - 1.0) <= 1e-12
        assert abs(sd.K1.dot(sd.K2)) <= 1e-12


def test_determinant_identity(rng, spec):
    tau = spec.params.tau
    for _ in range(20):
        q = sphere_point(spec, rng)
        sd = second_fundamental_form(spec, q)
        rho2 = (tau * spec.params.epsilon * q.r) ** 2
        expect = (spec.H**2 * (1.0 + 2.0 * rho2) - tau**2 * rho2**2) / (1.0 + rho2) ** 2
        assert sd.kappa1 * sd.kappa2 == pytest.approx(expect, rel=1e-12)
        assert np.linalg.det(sd.h) == pytest.approx(expect, rel=1e-12)


def test_shape_operator_oracle_agreement(rng):
    specs = [SphereSpec(ModelParams(1.0, 1.0), 1.0),
             SphereSpec(ModelParams(0.5, 2.0), 2.0),
             SphereSpec(ModelParams(2.0, 0.5), 0.5)]
    for g in specs:
        worst = 0.0
        for _ in range(25):
            q = sphere_point(g, rng, lo=0.05, hi=0.92)
            fr = tangent_frame(g, q)
            sd = second_fundamental_form(g, q)
            h_fd = np.empty((2, 2))
            for i, v in enumerate((fr.X1, fr.X2)):
                hv = shape_operator_fd(g, q, v)
                h_fd[i] = (hv.dot(fr.X1), hv.dot(fr.X2))
            worst = max(worst, float(np.max(np.abs(h_fd - sd.h)) / np.max(np.abs(sd.h))))
        assert worst <= 1e-5


def test_shape_operator_oracle_eigen_and_symmetry(rng, spec):
    for _ in range(20):
        q = sphere_point(spec, rng, lo=0.05, hi=0.92)
        sd = second_fundamental_form(spec, q)
        resid = shape_operator_fd(spec, q, sd.K1) - sd.kappa1 * sd.K1
        assert resid.norm() <= 1e-6
        fr = tangent_frame(spec, q)
        a = rng.normal(size=2)
        b = rng.normal(size=2)
        u = a[0] * fr.X1 + a[1] * fr.X2
        v = b[0] * fr.X1 + b[1] * fr.X2
        sym = shape_operator_fd(spec, q, u).dot(v) - shape_operator_fd(spec, q, v).dot(u)
        assert abs(sym) <= 1e-8


def test_shape_operator_rejects_nontangent(spec, rng):
    q = sphere_point(spec, rng)
    with pytest.raises(ContractError):
        shape_operator_fd(spec, q, outer_normal(spec, q))


def test_shape_operator_of_the_zero_vector_is_zero(spec, rng):
    zero = TangentVector(0.0, 0.0, 0.0)
    assert shape_operator_fd(spec, sphere_point(spec, rng), zero) == zero


def test_shape_invariant_under_frame_sign_flip(rng, spec):
    # h is unchanged when (X1, X2) flips to (-X1, -X2)
    for _ in range(10):
        q = sphere_point(spec, rng, lo=0.05, hi=0.92)
        fr = tangent_frame(spec, q)
        h1 = np.empty((2, 2))
        h2 = np.empty((2, 2))
        for i, v in enumerate((fr.X1, fr.X2)):
            hv = shape_operator_fd(spec, q, v)
            h1[i] = (hv.dot(fr.X1), hv.dot(fr.X2))
            hv2 = shape_operator_fd(spec, q, -1.0 * v)
            h2[i] = (hv2.dot(-1.0 * fr.X1), hv2.dot(-1.0 * fr.X2))
        assert np.allclose(h1, h2, atol=1e-12)


def test_corrected_shape_is_scalar_on_spheres(rng):
    for g in GRID[::4]:
        tau, eps = g.params.tau, g.params.epsilon
        for _ in range(10):
            q = sphere_point(g, rng)
            data = corrected_shape(g, q)
            rho2 = (tau * eps * q.r) ** 2
            scal = g.H + rho2 / (1.0 + rho2) * math.hypot(tau, g.H)
            assert data.k == pytest.approx(scal * np.eye(2), rel=1e-10)


def test_traceless_part_vanishes_on_grid(rng):
    worst = 0.0
    for g in GRID:
        for _ in range(200 // 25):
            q = sphere_point(g, rng)
            worst = max(worst, corrected_shape(g, q).k0_norm)
    assert worst <= 1e-10


def test_corrected_shape_euclidean_degeneration(rng):
    g = SphereSpec(ModelParams(1.0, 1e-9), 1.0)
    q = sphere_point(g, rng)
    data = corrected_shape(g, q)
    assert np.allclose(data.k, g.H * np.eye(2), atol=1e-9)


def test_rotation_angle_relations():
    for H, tau in [(1.0, 1.0), (0.5, 2.0), (2.0, -0.7)]:
        alpha = principal_angle(H, tau)
        hyp = math.hypot(H, tau)
        assert math.cos(2 * alpha) == pytest.approx(H / hyp, rel=1e-14)
        assert math.sin(2 * alpha) == pytest.approx(tau / hyp, rel=1e-14)


def test_negative_gauss_curvature_near_equator():
    # witness spec with 2 H^2 < (sqrt(5)-1) tau^2
    g = SphereSpec(ModelParams.from_tau(1.0, 3.0), 2.0)
    H, tau, eps = g.H, g.params.tau, g.params.epsilon
    assert 2.0 * H**2 < (math.sqrt(5.0) - 1.0) * tau**2
    threshold = H / (math.hypot(H, tau) - H)
    r_crit = math.sqrt(threshold) / (abs(tau) * eps)
    assert r_crit < g.R
    r_neg = min(0.5 * (r_crit + g.R), 0.99 * g.R)
    q = Point(r_neg, 0.0, float(profile_height(g, r_neg)))
    assert second_fundamental_form(g, q).kappa2 < 0.0
    r_pos = 0.5 * r_crit
    q2 = Point(r_pos, 0.0, float(profile_height(g, r_pos)))
    assert second_fundamental_form(g, q2).kappa2 > 0.0


def test_assemble_with_perturbation_breaks_tracelessness(rng, spec):
    q = sphere_point(spec, rng)
    sd = second_fundamental_form(spec, q)
    fr = tangent_frame(spec, q)
    h = sd.h.copy()
    h[0, 0] += 1e-3
    data = assemble_corrected_shape(spec.H, spec.params.tau, h, fr.c)
    assert data.k0_norm > 1e-4


@pytest.mark.parametrize("eps", [1e-38, 1e-45, 1e-60])
def test_second_fundamental_form_that_overflows_raises_typed(eps):
    """tau rho^2 (at 1e-38 and 1e-45) or rho^2 (at 1e-60) overflows: NumericsError, no warning."""
    spec = SphereSpec(ModelParams(eps, 1.0), 1.0)
    q = Point(0.5, 0.0, float(profile_height(spec, 0.5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="second fundamental form is not finite"):
            second_fundamental_form(spec, q)


def test_second_fundamental_form_over_a_stack_names_its_sphere():
    """`verify`'s curvature checks over a `_Stack` whose members at eps = 1e-45 and 1e-60 overflow
    name the first of them, where they printed the stack's eps, sigma and R columns; one sphere's
    message is unchanged."""
    stack = cli._Stack(members=[SphereSpec(ModelParams(e, 1.0), 1.0) for e in (1.0, 1e-45, 1e-60)])
    message = r"^the second fundamental form is not finite with eps = {}, sigma = 1\.0, R = 1\.0$"
    with pytest.raises(NumericsError, match=message.format(r"1e-45")):
        cli._check_curvature(stack, np.random.default_rng(0), 0.0)
    for r in (0.5, np.array([0.1, 0.5]), np.array([[0.1], [0.5]])):
        with pytest.raises(NumericsError, match=message.format(r"1e-60")):
            _shape(SphereSpec(ModelParams(1e-60, 1.0), 1.0), r)


def test_corrected_shape_where_tau_squared_overflows():
    """At eps = 1e-40 and R = 1e-200, tau = 1e160 and tau^2 overflows, where the vertical term's
    2 tau^2 / hypot(H, tau) is 2e80: 2 tau (tau / hypot(H, tau)) keeps it finite, with no
    warning, where inf times the zero entries of q (theta x theta) q^{-1} gave NaN."""
    H, tau, theta2 = 1e240, 1e160, 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = assemble_corrected_shape(H, tau, np.zeros((2, 2)), theta2)
    assert np.trace(data.k) == pytest.approx(2e80 * theta2**2, rel=1e-15)
    assert math.isfinite(data.k0_norm)


def test_trace_free_norm_whose_square_overflows_is_taken_in_units_of_a_power_of_four():
    """|k0| of h = [[1e200, 0], [0, 0]] is 1e200/sqrt(2), though its entries square past the
    floats: that point's norm is taken again in units of a power of four, with no warning, and a
    point whose squares are finite keeps the bits of the plain norm."""
    h = np.array([[[1e200, 0.0], [0.0, 0.0]], [[0.3, 0.1], [0.1, -0.2]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = assemble_corrected_shape(1.0, 0.0, h, np.zeros(2))
    assert data.k0_norm[0] == 7.071067811865475e199
    assert data.k0_norm[1] == np.sqrt(np.sum(data.k0[1] * data.k0[1]))


@pytest.mark.parametrize("spec, frac", SUBNORMAL_FLAT)
def test_frame_where_eps3_is_subnormal_at_sigma_0_raises_numerics_error(spec, frac):
    """Where m(r) = eps^3 is below the normal floats the frame's ratios of masses have lost their
    digits (a = b = 2 and |X2| = 1.118 at the first sphere, 0/0 at the second): the frame, and the
    shape data built on it, raise NumericsError, with no warning before it."""
    r = frac * spec.R
    point = Point(r, 0.0, float(profile_height(spec, r)))
    for call in (tangent_frame, second_fundamental_form, corrected_shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="the tangent frame at Point"):
                call(spec, point)
