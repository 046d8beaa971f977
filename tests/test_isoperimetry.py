import functools
import math
import warnings
from unittest import mock

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
    profile_height,
    ricci,
    outer_normal,
    sphere_area,
    sphere_volume,
)
from heisenberg_cmc import foliation, isoperimetry
from heisenberg_cmc.foliation import CylinderSpec, foliation_constants
from heisenberg_cmc.isoperimetry import (
    _jacobi_maxima,
    _jacobi_modes,
    calibration_gain,
    deficit_report,
    deficit_reports,
    jacobi_potential,
    jacobi_residual,
    make_competitor,
    make_competitors,
    normal_component,
    stable_hemispheres,
    subriemannian_hemisphere_area,
    symdiff_monte_carlo,
)
from heisenberg_cmc._numerics import _quad
from heisenberg_cmc.curvature import second_fundamental_form
from heisenberg_cmc.sphere import _pieces, graph_mean_curvature_fd

from conftest import SINGLE, _jacobi_residual_mesh, sphere_point


@pytest.fixture
def cyl(spec):
    return CylinderSpec(spec, 0.3)


# ------------------------------------------------------------- hemisphere area


def test_euclidean_hemisphere_area():
    assert abs(sphere_area(SphereSpec(ModelParams(1.0, 1e-9), 1.0)) / 2.0 - 2.0 * math.pi) <= 1e-4


def test_float_powers_past_the_largest_float_raise_numerics_error():
    """eps**6 and R**5 are Python float powers, which raise an untyped OverflowError past the
    largest float (eps above about 1.4e51, R above about 1.4e61): a typed NumericsError from
    each function that forms one, with no warning before it.  deficit_reports is the CLI's."""
    huge = ModelParams(1e60, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=r"^eps\^6 is not finite with eps = 1e\+60, sigma = 1\.0$"):
            graph_mean_curvature_fd(huge, lambda x: -x * x, np.array([0.5]), 1e-3)
        with pytest.raises(NumericsError, match=r"^a deficit constant is not finite with eps = 1\.0, "
                                                r"sigma = 1\.0, R = 1e\+62$"):
            foliation_constants(SphereSpec(ModelParams(1.0, 1.0), 1e62))


def test_scaled_area_converges_to_subriemannian_integral():
    sigma, R = 1.0, 1.0
    target = subriemannian_hemisphere_area(sigma, R)
    assert target == pytest.approx(math.pi**2 * sigma * R**3 / 2.0, rel=1e-12)
    dists = []
    for eps in (0.5, 0.25, 0.125):
        area = sphere_area(SphereSpec(ModelParams(eps, sigma), R)) / 2.0
        dists.append(abs(eps * area - target))
    assert dists[0] > dists[1] > dists[2]
    assert dists[0] / dists[1] >= 2.0 and dists[1] / dists[2] >= 2.0


@pytest.mark.parametrize("sigma, R", [(1.0, 1.0), (0.3, 0.6), (2.6, 2.2), (-0.7, 1.5),
                                      (1e-3, 40.0), (50.0, 1e-2)])
def test_subriemannian_hemisphere_area_matches_quadrature(sigma, R):
    """The closed form pi^2 sigma R^3 / 2 against the quadrature of its density
    sigma r^2 sqrt(r^2 + R^2 cos^2 phi) on r = R sin(phi)."""
    def density(phi, _):
        r = R * np.sin(phi)
        return sigma * r * r * np.sqrt(r * r + (R * np.cos(phi)) ** 2)

    oracle = 2.0 * math.pi * _quad(density, np.array([0.0]), np.array([0.5 * math.pi]),
                                   "sub-Riemannian area")[0]
    assert subriemannian_hemisphere_area(sigma, R) == pytest.approx(oracle, rel=1e-12)


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


def test_any_delta_above_zero_takes_the_linear_bound(spec):
    """delta = 0 is decided exactly, in the deficit reports as in `label_floor`: at delta =
    1e-15 R both take the linear bounds, where an absolute threshold of 1e-14 took the
    quadratic ones."""
    cyl = CylinderSpec(spec, 1e-15 * spec.R)
    consts = foliation_constants(spec)
    rep = deficit_report(make_competitor(spec, cyl, np.random.default_rng(17)))
    assert rep.bound == pytest.approx(math.sqrt(cyl.delta) * consts.C * rep.symdiff**2, rel=1e-14)
    k, f0 = foliation._k_f0(spec)
    assert foliation.label_floor(cyl, 0.1) == pytest.approx(
        math.sqrt(cyl.delta) * 0.1 / (spec.R * k + f0), rel=1e-14)


def test_deficit_scales_quadratically(spec, cyl):
    rng = np.random.default_rng(11)
    comp = make_competitor(spec, cyl, rng)
    scales = np.geomspace(2e-4, 2e-3, 6)
    defs = [deficit_report(comp.scaled(s / comp.amp_add)).deficit for s in scales]
    exponent = float(np.polyfit(np.log(scales), np.log(defs), 1)[0])
    assert abs(exponent - 2.0) <= 0.1


# the four specs (eps, sigma, R, delta / R) of the benchmark's isoperim workload
WORKLOAD_SPECS = [(1.0, 1.0, 1.0, 0.0), (0.7, 1.5, 1.5, 0.3), (1.5, 0.5, 0.8, 0.0),
                  (1.2, 2.5, 0.6, 0.3)]


def test_bump_mass_is_the_bump_integral_to_50_digits():
    """_MASS is the integral of exp(1 - 1/(1 - s^2)) over -1 < s < 1, correctly rounded."""
    with mpmath.workdps(50):
        mass = mpmath.quad(lambda s: mpmath.exp(1 - 1 / (1 - s * s)), [-1, 0, 1])
    assert isoperimetry._MASS == float(mass)


@pytest.mark.parametrize("eps,sigma,R,frac", WORKLOAD_SPECS)
def test_closed_form_symdiff_matches_50_digits_and_the_quadrature(eps, sigma, R, frac):
    """On 50 competitors a spec, the closed-form symmetric difference 2 pi _MASS (|a| c w summed
    over the two bumps) is within 2 ulp of its 50-digit value from the same floats, and within
    1e-13 of the batched quadrature of |height change| r that it replaced."""
    spec = SphereSpec(ModelParams(eps, sigma), R)
    comps = make_competitors(spec, CylinderSpec(spec, frac * R), np.random.default_rng(50), 50)
    got = [rep.symdiff for rep in deficit_reports(comps)]
    with mpmath.workdps(50):
        mass = mpmath.quad(lambda s: mpmath.exp(1 - 1 / (1 - s * s)), [-1, 0, 1])
        for sd, c in zip(got, comps):
            want = 2 * mpmath.pi * mass * sum(abs(mpmath.mpf(a)) * mpmath.mpf(b.center) * b.width
                                              for a, b in ((c.amp_add, c.add), (c.amp_sub, c.sub)))
            assert abs(sd - want) <= 2 * math.ulp(float(want))
    oracle = 2.0 * math.pi * isoperimetry._over_bumps(
        isoperimetry._bumps(comps), lambda r, amp, bump, width: np.abs(amp * bump[0]) * r,
        "symmetric difference")
    assert np.all(np.abs(np.array(got) - oracle) <= 1e-13 * oracle)


# ------------------------------------------------------- competitor suites

SUITE_SPECS = [(1.0, 1.0, 1.0, 0.3), (1.0, 1.0, 1.0, 0.0), (0.7, 1.5, 1.5, 0.45),
               (1.5, 0.5, 0.8, 0.0), (0.3, -1.0, 2.0, 0.5)]


def _draw_shape(rng, rc):
    """A competitor's draws in the documented order: the two centres, the two
    widths and the swap, ahead of its amplitude."""
    c1, c2, w1, w2 = (rng.uniform(*span) * rc for span in
                      ((0.16, 0.40), (0.60, 0.84), (0.05, 0.09), (0.05, 0.09)))
    if rng.uniform() < 0.5:
        c1, c2 = c2, c1
    return c1, c2, w1, w2


@pytest.mark.parametrize("eps,sigma,R,delta", SUITE_SPECS)
@pytest.mark.parametrize("n", [1, 2, 20])
def test_suite_draws_equal_sequential_draws(eps, sigma, R, delta, n):
    spec = SphereSpec(ModelParams(eps, sigma), R)
    cyl = CylinderSpec(spec, delta)
    batch = make_competitors(spec, cyl, np.random.default_rng(n), n)
    rng = np.random.default_rng(n)
    one_by_one = [make_competitor(spec, cyl, rng) for _ in range(n)]
    assert len(batch) == n
    for got, want in zip(batch, one_by_one):
        assert (got.add, got.sub, got.amp_add) == (want.add, want.sub, want.amp_add)
        assert abs(got.amp_sub - want.amp_sub) <= 1e-15 * abs(want.amp_sub)
    # the stream, replayed by hand
    rng = np.random.default_rng(n)
    for got in batch:
        c1, c2, w1, w2 = _draw_shape(rng, cyl.r_cut)
        head = float(profile_height(spec, min(c2 + w2, cyl.r_cut))) - cyl.t_cut
        amp = float(rng.uniform(0.01, 0.05)) * max(head, 0.1 * spec.R)
        assert (got.add.center, got.add.width, got.sub.center, got.sub.width, got.amp_add) == (
            c1, w1, c2, w2, amp)


@pytest.mark.parametrize("eps,sigma,R,delta", SUITE_SPECS)
@pytest.mark.parametrize("n", [1, 2, 20])
def test_suite_reports_equal_single_reports(eps, sigma, R, delta, n):
    """The suite also carries the exponent fit's tiny scaled copies."""
    spec = SphereSpec(ModelParams(eps, sigma), R)
    cyl = CylinderSpec(spec, delta)
    comps = make_competitors(spec, cyl, np.random.default_rng(3), n)
    comps += [comps[0].scaled(s) for s in (1e-2, 1e-3)]
    for got, comp in zip(deficit_reports(comps), comps):
        want = deficit_report(comp)
        for field in ("area_sphere", "area_competitor", "symdiff", "deficit", "bound", "slack"):
            g, w = getattr(got, field), getattr(want, field)
            assert abs(g - w) <= 1e-13 * abs(w), field


@pytest.mark.parametrize("eps,sigma,R,delta", SUITE_SPECS)
def test_single_report_symdiff_is_its_suite_row_bit_for_bit(eps, sigma, R, delta):
    """The closed form takes no batched sum, so one competitor's symmetric difference has the
    bits of its row in a suite (the quadrature's differed in the last bit)."""
    spec = SphereSpec(ModelParams(eps, sigma), R)
    comps = make_competitors(spec, CylinderSpec(spec, delta), np.random.default_rng(5), 40)
    comps += [comps[0].scaled(s) for s in (1e-2, 1e-3)]
    assert [rep.symdiff for rep in deficit_reports(comps)] == [
        deficit_report(c).symdiff for c in comps]


def test_suite_rejects_an_oversized_amplitude_with_the_single_message(spec, cyl):
    from scipy.integrate import quad

    with pytest.raises(DomainError) as single:
        make_competitor(spec, cyl, np.random.default_rng(8), amplitude=5.0)
    with pytest.raises(DomainError) as suite:
        make_competitors(spec, cyl, np.random.default_rng(8), 3, amplitude=5.0)
    assert str(suite.value) == str(single.value)

    # the message, rebuilt from the draws with scipy's masses
    rc = cyl.r_cut
    c1, c2, w1, w2 = _draw_shape(np.random.default_rng(8), rc)
    masses = [quad(lambda r: math.exp(1.0 - 1.0 / (1.0 - ((r - c) / w) ** 2)) * r, c - w, c + w,
                   epsabs=0.0, epsrel=1e-13)[0] for c, w in ((c1, w1), (c2, w2))]
    head = float(profile_height(spec, min(c2 + w2, rc))) - cyl.t_cut
    assert str(single.value) == (
        f"competitor rejected: removing amplitude {5.0 * masses[0] / masses[1]:.3e} exceeds the "
        f"cylinder head room {head:.3e} at the bump support")


def test_a_suite_shares_one_sphere_and_cylinder(spec, cyl, rng):
    comps = make_competitors(spec, cyl, rng, 2)
    other = CylinderSpec(spec, 0.0)
    comps.append(make_competitor(spec, other, rng))
    with pytest.raises(ContractError):
        deficit_reports(comps)
    assert deficit_reports([]) == [] and make_competitors(spec, cyl, rng, 0) == []


def test_bump_derivative_matches_the_value_by_differences():
    from heisenberg_cmc.isoperimetry import RadialBump

    bump = RadialBump(0.4, 0.1)
    r = np.linspace(0.31, 0.49, 37)
    h = 1e-6
    fd = (bump(r + h) - bump(r - h)) / (2.0 * h)
    assert np.allclose(bump.derivative(r), fd, rtol=1e-7, atol=1e-9)
    assert bump(0.2) == 0.0 and bump.derivative(0.6) == 0.0


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
        assert hemi["t"](q) == (q.t > 0.0)
    # vanishes exactly on the equator
    assert normal_component(spec, "t", Point(spec.R, 0.0, 0.0)) == 0.0


def test_hemispheres_have_positive_area(spec, rng):
    hemi = stable_hemispheres(spec)
    counts = {w: 0 for w in ("x", "y", "t")}
    for _ in range(200):
        q = sphere_point(spec, rng)
        for w in counts:
            counts[w] += hemi[w](q)
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
    r400 = _jacobi_residual_mesh(spec, which, n=400)
    assert r400 <= 1e-3
    r800 = _jacobi_residual_mesh(spec, which, n=800)
    assert r400 / r800 >= 2.0
    assert jacobi_residual(spec, which) <= 1e-12


def test_jacobi_euclidean_degeneration():
    # tau -> 0: the operator becomes Lap + 2/R^2 and the vertical component
    # becomes the classical first spherical harmonic
    spec = SphereSpec(ModelParams(1.0, 1e-12), 1.0)
    assert float(jacobi_potential(spec, 0.4)) == pytest.approx(2.0, rel=1e-10)
    assert jacobi_residual(spec, "t", n=400) <= 1e-3
    assert jacobi_residual(spec, "x", n=400) <= 1e-3


@pytest.mark.parametrize("eps, sigma, R", [
    (1.0, 1.0, 1.0), (1.5, 1.0, 1.0), (1.0, 1.0, 2.0), (0.7, 1.0, 1.0), (1.0, 4.0, 1.0),
])
def test_jacobi_y_repeats_x_when_n_divisible_by_4(eps, sigma, R):
    # g_y's mode is -i times g_x's, so `verify` runs 'x' and 't' only
    spec = SphereSpec(ModelParams(eps, sigma), R)
    assert jacobi_residual(spec, "x", n=400) == jacobi_residual(spec, "y", n=400)


def test_jacobi_y_matches_x_to_rounding(rng):
    # and elsewhere, negative sigma included: the maximum over the angles is
    # |L_1 G| for both, with no angle table to round
    for _ in range(20):
        eps, R = np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=2))
        sigma = rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
        spec = SphereSpec(ModelParams(eps, sigma), R)
        x, y = (jacobi_residual(spec, w, n=400) for w in "xy")
        assert x == y


def test_jacobi_rejects_bad_field(spec):
    with pytest.raises(ContractError):
        jacobi_residual(spec, "z")


@pytest.mark.parametrize("band, n", [(0.0, 400), (0.5, 400), (0.6, 400), (-1.0, 400),
                                     (math.nan, 400), (0.05, 0), (0.05, -3), (0.05, 10**13)])
def test_jacobi_residual_outside_its_band_and_mesh_raises_domain_error(spec, band, n):
    """band = 0 divided by zero (NaN), 0.6 left no radius (an untyped ValueError), -1 took
    negative radii (2.7e-13), n = 0 divided by zero (ZeroDivisionError) and n = 10**13, past
    `_MAX_SAMPLES`, made np.arange raise an untyped MemoryError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="0 < band < 1/2 and n >= 1"):
            jacobi_residual(spec, "x", n=n, band=band)
    assert jacobi_residual(spec, "x", n=1, band=0.49) < 1e-12  # one radius, next to the edges


@pytest.mark.parametrize("spec", SINGLE, ids=lambda s: f"{s.params.epsilon}-{s.params.sigma}-{s.R}")
def test_jacobi_pair_is_both_residuals_from_one_potential(spec):
    """`verify`'s one Jacobi pass gives (max |L_0 g_t|, max |L_1 G|): jacobi_residual's 't' and
    'x' values, bit for bit, from one potential."""
    calls, potential = [], isoperimetry._potential

    def counting(spec, r):
        calls.append(r.size)
        return potential(spec, r)

    with mock.patch.object(isoperimetry, "_potential", counting):
        pair = _jacobi_maxima(spec, n=400)
    assert len(calls) == 1
    assert tuple(map(repr, pair)) == (repr(jacobi_residual(spec, "t", n=400)),
                                      repr(jacobi_residual(spec, "x", n=400)))


@pytest.mark.parametrize("eps, r, got", [
    (1.0, -0.1, "-0.1"), (1.0, 1.5, "1.5"), (1.0, math.nan, "nan"),
    (1.0, np.array([0.5, 1.5]), "1.5"),
    (1e-60, 2.0, "2.0"),  # where the second fundamental form overflows too
])
def test_jacobi_potential_outside_the_sphere_is_a_domain_error(eps, r, got):
    """The public potential checks its radii before it runs the one-pass core: outside [0, R]
    (NaN too) a DomainError naming the first such radius, before any NumericsError of the
    curvature."""
    spec = SphereSpec(ModelParams(eps, 1.0), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"^radius must lie in \[0, R\] with R = 1\.0, "
                                              rf"got {got}$"):
            jacobi_potential(spec, r)


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
def test_jacobi_residual_finite_at_small_eps(eps):
    # the mesh's subtracted determinant g_rr g_tt - g_rt^2 went negative here
    spec = SphereSpec(ModelParams(eps, 1.0), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(math.isfinite(jacobi_residual(spec, w)) for w in "xyt")


@functools.lru_cache(maxsize=None)
def _mesh_at_400_and_800(eps, sigma, R, which):
    spec = SphereSpec(ModelParams(eps, sigma), R)
    return tuple(_jacobi_residual_mesh(spec, which, n=n) for n in (400, 800))


@pytest.mark.parametrize("n", [400, 800])
@pytest.mark.parametrize("which", ["x", "y", "t"])
@pytest.mark.parametrize("eps, sigma, R", [
    (1.0, 1.0, 1.0), (0.7, 1.0, 1.0), (0.3, 1.0, 1.0), (1.0, 4.0, 1.0), (1.0, 1.0, 0.5),
    (1.0, 1.0, 2.0), (1.0, -0.8, 2.0), (1.0, 0.0, 1.0), (3.0, -2.0, 0.7),
])
def test_jacobi_mode_reduction_matches_mesh(eps, sigma, R, which, n):
    """The modes on the meridian chart give L g on the radii of the R/n mesh as rounding, and
    the mesh converges to them: L g = 0, so its residual is all truncation error, and it falls
    3.35 to 3.97 times from R/400 to R/800 (one mesh pair per spec and field)."""
    spec = SphereSpec(ModelParams(eps, sigma), R)
    assert jacobi_residual(spec, which, n=n) <= 1e-10
    coarse, fine = _mesh_at_400_and_800(eps, sigma, R, which)
    assert coarse >= 3.0 * fine


@pytest.mark.parametrize("n", [1, 4, 5])
def test_jacobi_residual_on_a_coarse_mesh_stays_below_R(spec, n):
    """The radii stop below R for any n: at n = 4 the mesh reached 1.05 R, and at n = 1 it
    raised DomainError for its stencil, which the closed form does not have."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(jacobi_residual(spec, w, n=n) <= 1e-12 for w in "xyt")


def _mp_chart(eps, sigma, R, phi):
    """e, s, R, r, g, m and the potential |h|^2 + (4 <N, T>^2 - 2) tau^2 at the meridian angle
    phi, in mpmath from the closed-form h of `curvature` and <N, T> = eps^3 cos(phi) / m."""
    e, s, R, phi = (mpmath.mpf(v) for v in (eps, sigma, R, phi))
    r, g = R * mpmath.sin(phi), R * mpmath.cos(phi)
    m = mpmath.sqrt(e**6 + (s * r) ** 2)
    tau, H = s / e**4, 1 / (e * R)
    rt2 = (tau * e * r) ** 2
    h11, h12, h22 = H * (1 + 2 * rt2) / (1 + rt2), tau * rt2 / (1 + rt2), H / (1 + rt2)
    n_t = e**3 * g / (R * m)
    return e, s, R, r, g, m, h11**2 + 2 * h12**2 + h22**2 + (4 * n_t**2 - 2) * tau**2


@pytest.mark.parametrize("eps, sigma, R", [
    (1.0, 1.0, 1.0), (0.3, 1.0, 1.0), (1.0, 4.0, 1.0), (0.5, -2.0, 1.5), (1.0, 0.0, 1.0),
    (2.0, 0.7, 0.4), (1e-3, 1.0, 1.0),
])
def test_jacobi_modes_vanish_at_50_digits(eps, sigma, R):
    """L_0 g_t = 0 and L_1 G = 0 with the hand-written m'', q' and q'' of `_jacobi_modes`, run
    on 50-digit mpmath numbers: a slip in any of them leaves a residual of the size of the
    terms, (eps R)^-2 + tau^2 (P cancels tau^2 near the poles), where it is 1e-40 of that."""
    with mpmath.workdps(50):
        for phi in np.linspace(0.01, 0.5 * math.pi - 0.01, 9):
            chart = _mp_chart(eps, sigma, R, phi)
            e = chart[0]
            size = 1 / (e * R) ** 2 + (sigma / e**4) ** 2
            for res in _jacobi_modes(*chart):
                assert abs(res) <= mpmath.mpf(10) ** -40 * size


@pytest.mark.parametrize("which", ["x", "t"])
def test_jacobi_residual_where_tau_squared_overflows_raises_typed(which):
    """At eps = 1e-40 and R = 1e-200 the second fundamental form is finite, but tau = 1e160
    squared overflows, and so does H^2 = 1e480: NumericsError and no warning, where tau ** 2
    raised an untyped OverflowError after RuntimeWarnings from the stencil."""
    spec = SphereSpec(ModelParams(1e-40, 1.0), 1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="Jacobi potential is not finite with eps = 1e-40, sigma = 1.0, R = 1e-200"):
            jacobi_residual(spec, which)
        with pytest.raises(NumericsError, match="Jacobi potential"):
            jacobi_potential(spec, 0.5e-200)


@pytest.mark.parametrize("which", ["x", "y", "t"])
def test_jacobi_residual_where_eps_R_underflows_raises_typed(which):
    """eps R = 1e-340 underflows to 0, so H = 1/(eps R) is a NumericsError with no warning, where
    `curvature._shape` raised an untyped ZeroDivisionError."""
    spec = SphereSpec(ModelParams(1e-40, 1.0), 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="mean curvature 1/\\(eps R\\) is not finite with "
                                                "eps = 1e-40, sigma = 1.0, R = 1e-300"):
            jacobi_residual(spec, which)


class _TruthyZero(float):
    """0.0 that is true, so `_jacobi_modes` takes its sigma != 0 expression for m'' at sigma = 0."""

    def __bool__(self):
        return True


@pytest.mark.parametrize("eps", [1e-80, 1e-3, 1.0, 10.0])
@pytest.mark.parametrize("R", [1e-3, 1.0, 1e3, 1e150, 1e160])
def test_jacobi_modes_at_sigma_0_are_finite_or_typed(eps, R):
    """At sigma = 0, g^2 overflowed at R = 1e160 and 0 * inf made every mode NaN after two
    RuntimeWarnings, and at eps = 1e-80 the 't' mode's terms overflow.  Under -W error each mode
    is now finite or a NumericsError naming it; where the sigma != 0 expression for m'' is finite
    both modes are its, bit for bit."""
    spec = SphereSpec(ModelParams(eps, 0.0), R)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for which in "xyt":
            try:
                assert math.isfinite(jacobi_residual(spec, which))
            except NumericsError as exc:
                assert (eps, which) == (1e-80, "t")
                assert str(exc).startswith("the Jacobi residual of the 't' mode is not finite")
        r = np.linspace(0.05, 0.95, 19) * R
        g, m, _ = _pieces(spec.params, r, R)
        chart = (eps, 0.0, R, r, g, m, jacobi_potential(spec, r))
    with np.errstate(all="ignore"):
        guarded, plain = _jacobi_modes(*chart), _jacobi_modes(eps, _TruthyZero(0.0), *chart[2:])
    for new, old in zip(guarded, plain):
        if np.isfinite(old).all():
            assert new.tobytes() == old.tobytes()
        else:
            assert R == 1e160 or eps == 1e-80


def test_jacobi_residual_at_sigma_0_keeps_the_x_mode_where_t_overflows():
    """At eps = 1e-80 and sigma = 0, |h|^2 is about 1e160 and the 'x' mode's 7.8e145 is its
    rounding: the value stays, while the 't' mode raises."""
    spec = SphereSpec(ModelParams(1e-80, 0.0), 1.0)
    x_max = jacobi_residual(spec, "x")
    assert 1e145 < x_max < 1e146 and jacobi_residual(spec, "y") == x_max
    t_max, x_pair = _jacobi_maxima(spec, n=400)
    assert math.isnan(t_max) and x_pair == x_max


@pytest.mark.parametrize("which", ["x", "t"])
def test_jacobi_residual_where_the_profile_overflows_raises_typed(which):
    """At eps = 5e102 eps^3 is finite but the profile is not: NumericsError as profile_height
    raises it, where the potential's <N, T> warned of an overflow in multiply."""
    spec = SphereSpec(ModelParams(5e102, 1.0), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="profile height is not finite with eps = 5e"):
            jacobi_residual(spec, which)


def test_make_competitors_needs_the_cylinder_of_its_sphere(spec):
    other = SphereSpec(spec.params, 2.0 * spec.R)
    with pytest.raises(ContractError, match="cylinder was built for a different sphere"):
        make_competitors(spec, CylinderSpec(other, 0.3), np.random.default_rng(0), 2)
