import math

import numpy as np
import pytest

from heisenberg_cmc import (
    ContractError,
    DomainError,
    ModelParams,
    Point,
    SphereSpec,
    profile_height,
    ricci,
    outer_normal,
    sphere_area,
    sphere_volume,
)
from heisenberg_cmc.foliation import CylinderSpec
from heisenberg_cmc.isoperimetry import (
    calibration_gain,
    deficit_report,
    graph_area,
    jacobi_potential,
    jacobi_residual,
    make_competitor,
    normal_component,
    stable_hemispheres,
    subriemannian_hemisphere_area,
    symdiff_monte_carlo,
)
from heisenberg_cmc.curvature import second_fundamental_form
from heisenberg_cmc.sphere import _f, _f_r

from conftest import sphere_point


@pytest.fixture
def cyl(spec):
    return CylinderSpec(spec, 0.3)


# ----------------------------------------------------------------- graph area


def test_radial_graph_area_matches_hemisphere(params, spec):
    area = graph_area(params, spec.R, slope=lambda r: _f_r(params, r, spec.R))
    assert area == pytest.approx(0.5 * sphere_area(spec), rel=1e-8)


def test_euclidean_hemisphere_area():
    params = ModelParams(1.0, 1e-9)
    area = graph_area(params, 1.0, slope=lambda r: _f_r(params, r, 1.0))
    assert abs(area - 2.0 * math.pi) <= 1e-4


def test_graph_area_needs_exactly_one_input(params):
    with pytest.raises(ContractError):
        graph_area(params, 1.0)
    with pytest.raises(ContractError):
        graph_area(params, 1.0, slope=lambda r: r, gradient=lambda x, y: (x, y))


def test_cross_term_via_left_translation_invariance(params):
    """Left translations are isometries; they turn a radial cap into a
    non-radial graph whose area must not change.  This exercises the
    rotational cross term of the 2D integrand."""
    sg = params.sigma
    R = 1.0

    def grad0(x, y):
        r = math.hypot(x, y)
        if r == 0.0:
            return (0.0, 0.0)
        fr = float(_f_r(params, r, R))
        return (fr * x / r, fr * y / r)

    area0 = graph_area(params, 0.35, gradient=grad0)
    a, b = 0.3, -0.2

    def grad_translated(X, Y):
        x, y = X - a, Y - b
        fx, fy = grad0(x, y)
        return (fx + sg * b, fy - sg * a)

    area1 = graph_area(params, 0.35, gradient=grad_translated, center=(a, b))
    assert area1 == pytest.approx(area0, rel=1e-9)


def test_radial_2d_paths_agree(params):
    def grad0(x, y):
        r = math.hypot(x, y)
        if r == 0.0:
            return (0.0, 0.0)
        fr = float(_f_r(params, r, 1.0))
        return (fr * x / r, fr * y / r)

    a_radial = graph_area(params, 0.6, slope=lambda r: _f_r(params, r, 1.0))
    a_2d = graph_area(params, 0.6, gradient=grad0)
    assert a_2d == pytest.approx(a_radial, rel=1e-8)


def test_scaled_area_converges_to_subriemannian_integral():
    sigma, R = 1.0, 1.0
    target = subriemannian_hemisphere_area(sigma, R)
    assert target == pytest.approx(math.pi**2 * sigma * R**3 / 2.0, rel=1e-12)
    dists = []
    for eps in (0.5, 0.25, 0.125):
        params = ModelParams(eps, sigma)
        area = graph_area(params, R, slope=lambda r: _f_r(params, r, R))
        dists.append(abs(eps * area - target))
    assert dists[0] > dists[1] > dists[2]
    assert dists[0] / dists[1] >= 2.0 and dists[1] / dists[2] >= 2.0


# ---------------------------------------------------------------- competitors


def test_zero_amplitude_competitor_is_the_sphere(spec, cyl, rng):
    comp = make_competitor(spec, cyl, rng).scaled(0.0)
    rep = deficit_report(comp)
    assert rep.symdiff == 0.0
    assert rep.deficit == 0.0
    assert rep.slack == 0.0


def test_competitor_preserves_volume(spec, cyl, rng):
    from scipy.integrate import quad

    for _ in range(5):
        comp = make_competitor(spec, cyl, rng)
        dv, _ = quad(lambda r: float(comp.height_change(r)) * r, 0.0, cyl.r_cut,
                     epsabs=1e-14, epsrel=1e-12, limit=200)
        assert abs(2.0 * math.pi * dv) <= 1e-10 * sphere_volume(spec)


def test_competitor_support_inside_cylinder(spec, cyl, rng):
    for _ in range(5):
        comp = make_competitor(spec, cyl, rng)
        for bump in (comp.add, comp.sub):
            lo, hi = bump.support
            assert 0.0 < lo and hi < cyl.r_cut
            rs = np.linspace(lo, hi, 200)
            perturbed = profile_height(spec, rs) + comp.height_change(rs)
            assert np.all(perturbed > cyl.t_cut)


def test_oversized_competitor_is_rejected(spec, cyl, rng):
    with pytest.raises(DomainError):
        make_competitor(spec, cyl, rng, amplitude=5.0)


def test_symdiff_quadrature_vs_monte_carlo(spec, cyl):
    rng = np.random.default_rng(2024)
    comp = make_competitor(spec, cyl, rng, amplitude=0.03)
    rep = deficit_report(comp)
    mc = symdiff_monte_carlo(comp, n=1_000_000, seed=99)
    assert mc == pytest.approx(rep.symdiff, rel=1e-2)


def test_deficit_nonnegative_over_random_suite(spec, cyl):
    rng = np.random.default_rng(7)
    for _ in range(8):
        rep = deficit_report(make_competitor(spec, cyl, rng))
        assert rep.deficit >= 0.0
        assert rep.slack >= 0.0
        assert rep.area_competitor >= rep.area_sphere


def test_cubic_bound_at_delta_zero(spec):
    cyl0 = CylinderSpec(spec, 0.0)
    rng = np.random.default_rng(17)
    for _ in range(5):
        rep = deficit_report(make_competitor(spec, cyl0, rng))
        assert rep.bound == pytest.approx(
            __import__("heisenberg_cmc.foliation", fromlist=["foliation_constants"])
            .foliation_constants(spec).D * rep.symdiff**3
        )
        assert rep.slack >= 0.0


def test_deficit_scales_quadratically(spec, cyl):
    rng = np.random.default_rng(11)
    comp = make_competitor(spec, cyl, rng)
    scales = np.geomspace(2e-4, 2e-3, 6)
    defs = [deficit_report(comp.scaled(s / comp.amp_add)).deficit for s in scales]
    exponent = float(np.polyfit(np.log(scales), np.log(defs), 1)[0])
    assert abs(exponent - 2.0) <= 0.1


def test_calibration_chain(spec, cyl):
    rng = np.random.default_rng(5)
    comp = make_competitor(spec, cyl, rng, amplitude=0.03)
    rep = deficit_report(comp)
    gain, chain_bound = calibration_gain(comp)
    assert gain >= 0.0
    assert rep.deficit >= chain_bound * (1.0 - 1e-9)
    assert chain_bound >= rep.bound  # the chain is the sharper intermediate bound


# ------------------------------------------------------------------ stability


def test_normal_components_closed_forms(spec, rng):
    for _ in range(30):
        q = sphere_point(spec, rng)
        n = outer_normal(spec, q)
        eps, tau = spec.params.epsilon, spec.params.tau
        # frame components of the right-invariant fields at q
        xhat = np.array([1.0, 0.0, -2.0 * tau * eps * q.y])
        yhat = np.array([0.0, 1.0, 2.0 * tau * eps * q.x])
        that = np.array([0.0, 0.0, 1.0])
        assert normal_component(spec, "x", q) == pytest.approx(float(xhat @ n.as_array()), abs=1e-12)
        assert normal_component(spec, "y", q) == pytest.approx(float(yhat @ n.as_array()), abs=1e-12)
        assert normal_component(spec, "t", q) == pytest.approx(float(that @ n.as_array()), abs=1e-12)


def test_normal_component_broadcasts_over_point_arrays(spec, rng):
    pts = [sphere_point(spec, rng) for _ in range(20)]
    xyt = tuple(np.array([getattr(q, a) for q in pts]) for a in "xyt")
    for which in ("x", "y", "t"):
        ref = [normal_component(spec, which, q) for q in pts]
        assert np.max(np.abs(normal_component(spec, which, xyt) - ref)) <= 1e-15
    with pytest.raises(ContractError):
        normal_component(spec, "z", xyt)


def test_vertical_hemisphere_is_northern(spec, rng):
    hemi = stable_hemispheres(spec)
    for _ in range(50):
        q = sphere_point(spec, rng)
        assert hemi.contains("t", q) == (q.t > 0.0)
    # vanishes exactly on the equator
    assert normal_component(spec, "t", Point(spec.R, 0.0, 0.0)) == 0.0


def test_hemispheres_have_positive_area(spec, rng):
    hemi = stable_hemispheres(spec)
    counts = {w: 0 for w in ("x", "y", "t")}
    for _ in range(200):
        q = sphere_point(spec, rng)
        for w in counts:
            counts[w] += hemi.contains(w, q)
    assert all(0 < c < 200 for c in counts.values())


def test_jacobi_potential_matches_curvature_contraction(spec, rng):
    for _ in range(15):
        q = sphere_point(spec, rng, hemisphere=+1)
        sd = second_fundamental_form(spec, q)
        h_sq = float(np.sum(sd.h * sd.h))
        n = outer_normal(spec, q)
        expect = h_sq + ricci(spec.params, n)
        assert float(jacobi_potential(spec, q.r)) == pytest.approx(expect, rel=1e-11)


@pytest.mark.parametrize("which", ["x", "y", "t"])
def test_jacobi_solutions(spec, which):
    r400 = jacobi_residual(spec, which, n=400)
    assert r400 <= 1e-3
    r800 = jacobi_residual(spec, which, n=800)
    assert r400 / r800 >= 2.0


def test_jacobi_euclidean_degeneration():
    # tau -> 0: the operator becomes Lap + 2/R^2 and the vertical component
    # becomes the classical first spherical harmonic
    spec = SphereSpec(ModelParams(1.0, 1e-12), 1.0)
    assert float(jacobi_potential(spec, 0.4)) == pytest.approx(2.0, rel=1e-10)
    assert jacobi_residual(spec, "t", n=400) <= 1e-3
    assert jacobi_residual(spec, "x", n=400) <= 1e-3


def test_jacobi_rejects_bad_field(spec):
    with pytest.raises(ContractError):
        jacobi_residual(spec, "z")
