import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from heisenberg_cmc import (
    ContractError,
    DomainError,
    ModelParams,
    Point,
    TangentVector,
    covariant_derivative,
    curvature_operator,
    frame_in_coordinates,
    horizontal_rotation,
    outer_normal,
    ricci,
    vector_to_coordinates,
    vertical_component,
)
from heisenberg_cmc.ambient import _connect, _curvature_operator
from heisenberg_cmc.curvature import tangent_frame

from conftest import GRID, sphere_point, table_connect, table_curvature_operator

X = TangentVector(1.0, 0.0, 0.0)
Y = TangentVector(0.0, 1.0, 0.0)
T = TangentVector(0.0, 0.0, 1.0)
BASIS = (X, Y, T)
ZERO3 = np.zeros(3)


def coframe(params, p):
    """Rows eps dx, eps dy and (dt - sigma (y dx - x dy)) / eps^2: the coframe dual to (X, Y, T)
    at p, in coordinates, from the frame's closed form in `ambient`'s docstring."""
    e, s = params.epsilon, params.sigma
    return np.array([[e, 0.0, 0.0], [0.0, e, 0.0], [-s * p.y / e**2, s * p.x / e**2, 1.0 / e**2]])


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(0.0, 1.0)
    with pytest.raises(DomainError):
        ModelParams(-1.0, 1.0)
    with pytest.raises(DomainError):
        ModelParams(1.0, math.nan)


def test_from_tau_whose_sigma_is_not_a_finite_float_raises():
    """tau * eps**4 raised an untyped OverflowError at eps = 1e78: sigma = tau eps^4 is not a
    float there, so the constructor's own DomainError, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau, shown in ((1.0, "inf"), (-1.0, "-inf")):
            with pytest.raises(DomainError, match=rf"^sigma must be finite, got {shown}$"):
                ModelParams.from_tau(1e78, tau)
    assert ModelParams.from_tau(1e76, 1.0).sigma == 1e76**4


def test_tau_is_derived():
    p = ModelParams(0.5, 2.0)
    assert p.tau == 2.0 / 0.5**4
    q = ModelParams.from_tau(0.5, 32.0)
    assert q.sigma == 32.0 * 0.5**4
    assert abs(q.tau - 32.0) <= 1e-15 * 32.0
    assert abs(p.tau * p.epsilon**4 - p.sigma) <= 1e-15 * abs(p.sigma)


@pytest.mark.parametrize("eps", [1e-78, 1e-90])
def test_tau_that_is_not_a_finite_float_raises(eps):
    """sigma/eps^4 is inf at eps = 1e-78 and 1/0 at 1e-90, where eps**4 underflows.  The
    parameters construct, since the profile layer needs no tau, and reading `tau` raises a
    DomainError naming eps and sigma, never ZeroDivisionError.  At sigma = 0 tau is 0 for
    every eps, and where eps**4 overflows it is 0, never OverflowError."""
    for sigma, shown in ((1.0, r"1\.0"), (-2.0, r"-2\.0")):
        params = ModelParams(eps, sigma)
        assert (params.epsilon, params.sigma) == (eps, sigma)
        with pytest.raises(DomainError, match=rf"not a finite float with eps = {eps!r}, "
                                              rf"sigma = {shown}"):
            params.tau
    assert ModelParams(eps, 0.0).tau == 0.0
    for sigma in (1.0, -2.0, 0.0):
        assert ModelParams(1.0 / eps, sigma).tau == 0.0


def test_frame_euclidean_degeneration():
    p = ModelParams(1.0, 0.0)
    A = frame_in_coordinates(p, Point(0.3, -0.7, 2.0))
    assert np.allclose(A, np.eye(3))


def test_frame_with_twist():
    p = ModelParams(1.0, 2.0)
    A = frame_in_coordinates(p, Point(1.0, 0.0, 0.0))
    # second row is the Y field: d_y - 2 x d_t at x = 1
    assert np.allclose(A[1], [0.0, 1.0, -2.0])


def test_frame_at_origin_mixes_nothing():
    for eps, sig in [(0.5, 2.0), (2.0, -1.0)]:
        A = frame_in_coordinates(ModelParams(eps, sig), Point(0.0, 0.0, 0.0))
        assert A[0, 2] == 0.0 and A[1, 2] == 0.0
        assert A[2, 2] == eps**2


def test_frame_is_orthonormal_in_assembled_metric(rng):
    for p in (ModelParams(1.0, 1.0), ModelParams(0.5, 2.0), ModelParams(2.0, -0.5)):
        for _ in range(10):
            q = Point(*rng.uniform(-2, 2, size=3))
            A, C = frame_in_coordinates(p, q), coframe(p, q)
            M = C.T @ C  # the metric in coordinates
            assert np.allclose(A @ M @ A.T, np.eye(3), atol=1e-13)


def test_vertical_component():
    assert vertical_component(T) == 1.0
    assert vertical_component(X) == 0.0


def test_vertical_component_of_adapted_frame(rng, spec):
    for _ in range(10):
        q = sphere_point(spec, rng)
        assert vertical_component(tangent_frame(spec, q).X1) == 0.0


def test_connection_table_examples():
    p = ModelParams(1.0, 1.0)
    tau = p.tau
    assert covariant_derivative(p, X, Y, ZERO3).as_array() == pytest.approx([0, 0, -tau])
    assert covariant_derivative(p, T, T, ZERO3).as_array() == pytest.approx([0, 0, 0])
    assert covariant_derivative(p, X, X, ZERO3).as_array() == pytest.approx([0, 0, 0])
    assert covariant_derivative(p, Y, X, ZERO3).as_array() == pytest.approx([0, 0, tau])
    assert covariant_derivative(p, T, X, ZERO3).as_array() == pytest.approx([0, tau, 0])


@pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 1e3, 1e150])
def test_connect_is_the_table_contraction_bit_for_bit(scale):
    """The closed-form connection, (u_i v_j)(+-tau) on the six nonzero entries of the table, is
    the table's contraction bit for bit: on random (5, 40, 3) fields with a float tau and a
    stacked (5, 1) tau of magnitude up to 1e150, and at tau = 0 and -0.0, where the contraction's
    zeros are +0.0 (bytes tell the signs of zero apart)."""
    rng = np.random.default_rng(int(-math.log10(scale)) + 200)
    u, v = rng.normal(size=(2, 5, 40, 3)) * 10.0 ** rng.uniform(-5.0, 5.0, size=(2, 5, 40, 1))
    u[0, :3] = v[0, :3] = 0.0  # whole terms of zero, and zero components
    taus = (scale, -scale, scale * rng.normal(size=(5, 1)), 0.0, -0.0,
            np.array([[0.0], [-0.0]] * 2 + [[scale]]))
    for tau in taus:
        got, want = _connect(tau, u, v), table_connect(tau, u, v)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), tau
    assert not np.signbit(_connect(0.0, u, v)).any()


@pytest.mark.parametrize("eps, sig", [(1.0, 1.0), (0.5, -2.0), (2.0, 0.0), (1e-3, 1.0)])
def test_curvature_operator_is_the_seven_table_contractions_bit_for_bit(eps, sig, rng):
    """R(u, v)w by two closed-form calls on stacked pairs is the composition of seven table
    contractions bit for bit, on one point's 3-vectors, on a (40, 3) batch and on a stack of
    spheres' (k, 40, 3) fields with their (k, 1) column of tau."""
    params = ModelParams(eps, sig)
    stack = SimpleNamespace(tau=np.array([[params.tau], [0.5 * params.tau], [0.0]]))
    for p, shape in ((params, (3,)), (params, (40, 3)), (stack, (3, 40, 3))):
        u, v, w = rng.normal(size=(3,) + shape)
        got, want = _curvature_operator(p, u, v, w), table_curvature_operator(p, u, v, w)
        assert got.tobytes() == want.tobytes()
    e = np.eye(3)  # broadcasting arguments, as ricci's basis against one direction
    assert (_curvature_operator(params, e, e[1], e[2]).tobytes()
            == table_curvature_operator(params, e, e[1], e[2]).tobytes())


def test_covariant_derivative_requires_derivative_data():
    p = ModelParams(1.0, 1.0)
    with pytest.raises(ContractError):
        covariant_derivative(p, X, Y, None)
    with pytest.raises(ContractError):
        covariant_derivative(p, X, Y, [0.0, 0.0])


def test_leibniz_term_enters():
    p = ModelParams(1.0, 0.0)
    out = covariant_derivative(p, X, Y, np.array([1.0, 2.0, 3.0]))
    assert out.as_array() == pytest.approx([1.0, 2.0, 3.0])


def test_metric_compatibility_all_triples():
    p = ModelParams(0.5, 2.0)
    for u in BASIS:
        for v in BASIS:
            for w in BASIS:
                lhs = covariant_derivative(p, u, v, ZERO3).dot(w)
                rhs = v.dot(covariant_derivative(p, u, w, ZERO3))
                assert abs(lhs + rhs) <= 1e-12 * (1.0 + abs(p.tau))


def test_torsion_free_all_pairs():
    p = ModelParams(0.5, 2.0)
    for u in BASIS:
        for v in BASIS:
            diff = covariant_derivative(p, u, v, ZERO3) - covariant_derivative(p, v, u, ZERO3)
            # [u, v] of constant-coefficient fields: only [X, Y] = -2 tau T survives
            br = TangentVector(0.0, 0.0, -2.0 * p.tau * (u.aX * v.aY - u.aY * v.aX))
            assert (diff - br).norm() <= 1e-12 * (1.0 + abs(p.tau))


@pytest.mark.parametrize("eps,sig", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5), (1.0, -1.5)])
def test_curvature_symmetries(eps, sig):
    p = ModelParams(eps, sig)

    def entry(u, v, w, z):
        return curvature_operator(p, u, v, w).dot(z)

    for u in BASIS:
        for v in BASIS:
            for w in BASIS:
                for z in BASIS:
                    assert abs(entry(u, v, w, z) + entry(v, u, w, z)) <= 1e-12
                    assert abs(entry(u, v, w, z) + entry(u, v, z, w)) <= 1e-12
                    assert abs(entry(u, v, w, z) - entry(w, z, u, v)) <= 1e-12


def test_sectional_values():
    # hand-derived from the connection table:
    #   R(X,Y)Y = tau nabla_Y T + 2 tau nabla_T Y = -3 tau^2 X
    #   R(X,T)T = -tau nabla_X... = tau^2 X
    for p in (ModelParams(1.0, 1.0), ModelParams(0.5, 2.0), ModelParams(2.0, -3.0)):
        tau = p.tau
        assert curvature_operator(p, X, Y, Y).dot(X) == pytest.approx(-3.0 * tau**2, abs=1e-12 * max(1, tau**2))
        assert curvature_operator(p, X, T, T).dot(X) == pytest.approx(tau**2, abs=1e-12 * max(1, tau**2))
        assert curvature_operator(p, X, X, Y).norm() == 0.0


def test_ricci_values():
    p = ModelParams(1.0, 1.5)
    tau = p.tau
    assert ricci(p, T) == pytest.approx(2.0 * tau**2, rel=1e-12)
    assert ricci(p, X) == pytest.approx(-2.0 * tau**2, rel=1e-12)
    flat = ModelParams(1.0, 0.0)
    v = TangentVector(0.6, 0.0, 0.8)
    assert ricci(flat, v) == 0.0
    with pytest.raises(ContractError):
        ricci(p, TangentVector(1.0, 1.0, 0.0))


def test_ricci_closed_form(rng):
    # Ric(n) = -2 tau^2 + 4 tau^2 <n, T>^2 for unit n
    p = ModelParams(0.5, 1.0)
    tau = p.tau
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        n = TangentVector(*v)
        expect = -2.0 * tau**2 + 4.0 * tau**2 * n.aT**2
        assert ricci(p, n) == pytest.approx(expect, rel=1e-10, abs=1e-12)


def test_euclidean_limit_of_curvature():
    for sig in (1e-2, 1e-4, 1e-6):
        p = ModelParams(1.0, sig)
        worst = max(
            abs(curvature_operator(p, u, v, w).dot(z))
            for u in BASIS for v in BASIS for w in BASIS for z in BASIS
        )
        assert worst <= 3.0 * sig**2 * 1.01
    assert all(
        curvature_operator(ModelParams(1.0, 0.0), u, v, w).norm() == 0.0
        for u in BASIS for v in BASIS for w in BASIS
    )


def test_horizontal_rotation():
    assert horizontal_rotation(X).as_array() == pytest.approx(Y.as_array())
    assert horizontal_rotation(Y).as_array() == pytest.approx((-X).as_array())
    assert horizontal_rotation(horizontal_rotation(X)).as_array() == pytest.approx((-X).as_array())
    with pytest.raises(ContractError):
        horizontal_rotation(T)


def test_orthogonal_pair_curvature_identity(rng):
    """<R(v2, v1)N, v2> = 4 tau^2 E theta(v1) theta(N) for any orthogonal
    tangent pair with |v1|^2 = |v2|^2 = E at a sphere point."""
    specs = [g for g in GRID if (g.params.epsilon, g.params.sigma, g.R) in
             {(1.0, 1.0, 1.0), (0.5, 2.0, 2.0), (2.0, 0.5, 0.5), (0.5, 0.5, 1.0)}]
    for sp in specs:
        tau = sp.params.tau
        for _ in range(25):
            q = sphere_point(sp, rng)
            fr = tangent_frame(sp, q)
            n = outer_normal(sp, q)
            psi = rng.uniform(0.0, 2.0 * math.pi)
            scale = math.sqrt(rng.uniform(0.5, 2.0))
            v1 = scale * (math.cos(psi) * fr.X1 + math.sin(psi) * fr.X2)
            v2 = scale * (-math.sin(psi) * fr.X1 + math.cos(psi) * fr.X2)
            energy = scale * scale
            lhs = curvature_operator(sp.params, v2, v1, n).dot(v2)
            rhs = 4.0 * tau**2 * energy * vertical_component(v1) * vertical_component(n)
            den = max(abs(rhs), 0.01 * (1.0 + tau**2) * energy)
            assert abs(lhs - rhs) <= 1e-10 * den


@pytest.mark.parametrize("sign", [1.0, -1.0, 0.0])
def test_coordinates_round_trip(sign):
    """The coframe inverts vector_to_coordinates, both ways."""
    rng = np.random.default_rng(int(2 + sign))
    worst = 0.0
    for _ in range(200):
        eps = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        params = ModelParams(eps, sign * float(np.exp(rng.uniform(np.log(0.1), np.log(5.0)))))
        p = Point(*rng.uniform(-2.0, 2.0, 3))
        v = TangentVector(*rng.normal(size=3))
        coords = vector_to_coordinates(params, p, v)
        back = coframe(params, p) @ coords
        worst = max(worst, np.linalg.norm(back - v.as_array()) / np.linalg.norm(v.as_array()))
        c = rng.normal(size=3)
        again = vector_to_coordinates(params, p, TangentVector(*coframe(params, p) @ c))
        worst = max(worst, np.linalg.norm(again - c) / np.linalg.norm(c))
    assert worst <= 1e-13
