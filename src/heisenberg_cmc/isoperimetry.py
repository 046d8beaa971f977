"""Quantitative isoperimetric checks around the spheres.

Competitors are volume-preserving radial perturbations of the upper
hemisphere graph supported strictly inside the calibration cylinder.  For
each one the area excess over the sphere is computed by quadrature and
compared against the explicit lower bounds

    excess >= sqrt(delta) * C * vol(symmetric difference)^2   (delta > 0),
    excess >= D * vol(symmetric difference)^3                 (delta = 0),

with the constants of `foliation_constants`.  The calibration chain that
proves the bounds is also checked directly: excess >= (2/(eps R)) * G
where G integrates 1 - R/u over the removed region.

The same module carries the stability machinery: the squared norm of the
second fundamental form plus the ambient Ricci term form the potential of
the Jacobi operator L = Lap + (|h|^2 + Ric(N)), and the normal components
of the right-invariant frame fields are discrete solutions of L g = 0,
verified on a finite-difference mesh of the upper graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import _QUAD_RTOL, _gauss_legendre, _quad
from .ambient import ModelParams, Point
from .curvature import _shape
from .errors import ContractError, DomainError, NumericsError
from .foliation import CylinderSpec, foliation_constants, leaf_label_grid
from .sphere import SphereSpec, _f, _f_r, _pieces, profile_height, sphere_area, sphere_volume

__all__ = [
    "graph_area",
    "subriemannian_hemisphere_area",
    "RadialBump",
    "Competitor",
    "make_competitor",
    "DeficitReport",
    "deficit_report",
    "symdiff_monte_carlo",
    "calibration_gain",
    "normal_component",
    "stable_hemispheres",
    "Hemispheres",
    "jacobi_potential",
    "jacobi_residual",
]


# ---------------------------------------------------------------- graph area


def graph_area(
    params: ModelParams,
    radius: float,
    slope=None,
    gradient=None,
    center: tuple[float, float] = (0.0, 0.0),
) -> float:
    """Riemannian area of a t-graph over a disk.

    Radial fast path (`slope` = callable f'(r), vectorized): integrates
    (2 pi / eps) sqrt(eps^6 + f'^2 + sigma^2 r^2) r dr with the substitution
    r = radius * sin(phi), which removes the square-root rim singularity of
    the sphere profile.  General path (`gradient` = callable
    (x, y) -> (f_x, f_y) on scalars): 2D quadrature of
    (1/eps) sqrt(eps^6 + |grad f|^2 + sigma^2 |z|^2 + 2 sigma (x f_y - y f_x))
    in polar coordinates about `center`, which includes the rotational
    cross term that vanishes for radial graphs.  It is Gauss-Legendre in
    the radius times the periodic trapezoid rule in the angle, n nodes
    each; the n = 128 value must lie within _QUAD_RTOL of the n = 64 one.
    """
    if (slope is None) == (gradient is None):
        raise ContractError("provide exactly one of slope= or gradient=")
    e, s = params.epsilon, params.sigma
    rad = float(radius)
    if slope is not None:

        def integrand(phi):
            r = rad * np.sin(phi)
            fp = np.asarray(slope(r), dtype=float)
            return np.sqrt(e**6 + fp * fp + s * s * r * r) * r * rad * np.cos(phi)

        return (2.0 * math.pi / e) * _quad(integrand, 0.0, 0.5 * math.pi, "radial graph area")

    cx, cy = center
    grad = np.frompyfunc(gradient, 2, 2)

    def polar_rule(n: int) -> float:
        x, w = _gauss_legendre(n)
        rho = (0.5 * rad * (1.0 + x))[:, None]
        ang = (2.0 * math.pi / n) * np.arange(n)
        xs = cx + rho * np.cos(ang)
        ys = cy + rho * np.sin(ang)
        fx, fy = (np.asarray(g, dtype=float) for g in grad(xs, ys))
        val = e**6 + fx * fx + fy * fy + s * s * (xs * xs + ys * ys) + 2.0 * s * (xs * fy - ys * fx)
        ring = np.sum(np.sqrt(val) * rho, axis=1)
        return 0.5 * rad * (2.0 * math.pi / n) * float(w @ ring)

    fine, coarse = polar_rule(128), polar_rule(64)
    if not (math.isfinite(fine) and abs(fine - coarse) <= _QUAD_RTOL * fine):
        raise NumericsError(f"2D graph-area quadrature did not converge ({fine} vs {coarse})")
    return fine / e


def subriemannian_hemisphere_area(sigma: float, R: float) -> float:
    """The sigma-only area integral of the limit-profile hemisphere.

    Integrates sqrt(f'^2 + sigma^2 r^2) over the disk for the limit
    profile (f' = -sigma r^2 / sqrt(R^2 - r^2)); this is the limit of
    eps * (Riemannian hemisphere area) as eps -> 0 and evaluates in closed
    form to pi^2 sigma R^3 / 2, which the tests pin.
    """

    def integrand(phi):
        r = R * np.sin(phi)
        return sigma * r * r * np.sqrt(r * r + (R * np.cos(phi)) ** 2)

    return 2.0 * math.pi * _quad(integrand, 0.0, 0.5 * math.pi, "sub-Riemannian area")


# --------------------------------------------------------------- competitors


@dataclass(frozen=True)
class RadialBump:
    """Smooth compactly supported radial bump exp(1 - 1/(1 - s^2)), s = (r-c)/w."""

    center: float
    width: float

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        s = (r - self.center) / self.width
        inside = np.abs(s) < 1.0
        s2 = np.where(inside, s * s, 0.0)
        out = np.where(inside, np.exp(1.0 - 1.0 / (1.0 - s2)), 0.0)
        return out

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        s = (r - self.center) / self.width
        inside = np.abs(s) < 1.0
        s_in = np.where(inside, s, 0.0)
        den = np.square(1.0 - s_in * s_in)
        out = np.where(
            inside,
            np.exp(1.0 - 1.0 / (1.0 - s_in * s_in)) * (-2.0 * s_in / den) / self.width,
            0.0,
        )
        return out

    @property
    def support(self) -> tuple[float, float]:
        return self.center - self.width, self.center + self.width


@dataclass(frozen=True)
class Competitor:
    """A volume-preserving two-bump perturbation of the upper hemisphere graph."""

    spec: SphereSpec
    cyl: CylinderSpec
    add: RadialBump
    amp_add: float
    sub: RadialBump
    amp_sub: float

    def height_change(self, r):
        return self.amp_add * self.add(r) - self.amp_sub * self.sub(r)

    def slope_change(self, r):
        return self.amp_add * self.add.derivative(r) - self.amp_sub * self.sub.derivative(r)

    def scaled(self, factor: float) -> "Competitor":
        """Same shape with both amplitudes multiplied by `factor`.

        Volume neutrality is preserved because the enclosed volume is
        linear in the height change.
        """
        return Competitor(self.spec, self.cyl, self.add, factor * self.amp_add,
                          self.sub, factor * self.amp_sub)


def _bump_mass(bump: RadialBump) -> float:
    return _quad(lambda r: bump(r) * r, *bump.support, "bump mass")


def _over_bumps(comp: Competitor, integrand, what: str) -> float:
    """Sum of the integrals of a vectorized integrand over the two bump supports."""
    return sum(_quad(integrand, *bump.support, what) for bump in (comp.add, comp.sub))


def make_competitor(
    spec: SphereSpec,
    cyl: CylinderSpec,
    rng: np.random.Generator,
    amplitude: float | None = None,
) -> Competitor:
    """Draw a random admissible competitor.

    Two disjoint radial bumps inside (0.06, 0.94) * r_cut; the added bump
    gets `amplitude` (or a random small multiple of the cylinder head
    room) and the removed bump's amplitude is amplitude * m_add / m_sub,
    with m the bumps' radial masses, so the enclosed volume matches the
    sphere's exactly: the volume is linear in the amplitudes and the bumps
    are disjoint.  Raises DomainError when the requested amplitude would
    push the graph out of the cylinder.
    """
    if cyl.spec != spec:
        raise ContractError("cylinder was built for a different sphere")
    rc = cyl.r_cut
    c1 = rng.uniform(0.16, 0.40) * rc
    c2 = rng.uniform(0.60, 0.84) * rc
    w1 = rng.uniform(0.05, 0.09) * rc
    w2 = rng.uniform(0.05, 0.09) * rc
    if rng.uniform() < 0.5:
        c1, c2 = c2, c1
    add, sub = RadialBump(c1, w1), RadialBump(c2, w2)

    # head room: how far the graph may move down before leaving the cylinder
    sub_lo, sub_hi = sub.support
    f_edge = float(profile_height(spec, min(max(sub_lo, sub_hi), rc)))
    head = f_edge - cyl.t_cut
    if amplitude is None:
        amplitude = float(rng.uniform(0.01, 0.05)) * max(head, 0.1 * spec.R)

    amp_sub = amplitude * _bump_mass(add) / _bump_mass(sub)
    comp = Competitor(spec, cyl, add, amplitude, sub, amp_sub)

    margin = 0.1 * head
    if amp_sub > head - margin:
        raise DomainError(
            f"competitor rejected: removing amplitude {amp_sub:.3e} exceeds the "
            f"cylinder head room {head:.3e} at the bump support"
        )
    dv = 2.0 * math.pi * _over_bumps(comp, lambda r: comp.height_change(r) * r, "volume change")
    if abs(dv) > 1e-10 * sphere_volume(spec):
        raise NumericsError(f"volume compensation failed: residual {dv:.3e}")
    return comp


@dataclass(frozen=True)
class DeficitReport:
    """Area excess of a competitor against its explicit lower bound."""

    area_sphere: float
    area_competitor: float
    symdiff: float
    deficit: float
    bound: float
    slack: float


def _area_excess(comp: Competitor) -> float:
    """Area difference of the perturbed and unperturbed upper graphs.

    Written as a stabilized difference of the two integrands so that the
    value stays accurate for tiny amplitudes (quadratic in the amplitude).
    """
    params = comp.spec.params
    e, s = params.epsilon, params.sigma
    R = comp.spec.R

    def integrand(r):
        fr = _f_r(params, r, R)
        dfr = comp.slope_change(r)
        w2 = e**6 + fr * fr + s * s * r * r
        wt2 = e**6 + (fr + dfr) ** 2 + s * s * r * r
        num = 2.0 * fr * dfr + dfr * dfr
        return num / (np.sqrt(wt2) + np.sqrt(w2)) * r

    return (2.0 * math.pi / e) * _over_bumps(comp, integrand, "area excess")


def _symdiff_volume(comp: Competitor) -> float:
    return 2.0 * math.pi * _over_bumps(
        comp, lambda r: np.abs(comp.height_change(r)) * r, "symmetric difference")


def deficit_report(comp: Competitor) -> DeficitReport:
    """Compute excess, symmetric difference, and the applicable bound."""
    consts = foliation_constants(comp.spec)
    excess = _area_excess(comp)
    sd = _symdiff_volume(comp)
    if comp.cyl.delta < 1e-14:
        bound = consts.D * sd**3
    else:
        bound = math.sqrt(comp.cyl.delta) * consts.C * sd**2
    a_r = sphere_area(comp.spec)
    return DeficitReport(
        area_sphere=a_r,
        area_competitor=a_r + excess,
        symdiff=sd,
        deficit=excess,
        bound=bound,
        slack=excess - bound,
    )


def symdiff_monte_carlo(comp: Competitor, n: int = 1_000_000, seed: int = 20240501) -> float:
    """Monte-Carlo volume of the symmetric difference, the oracle for the
    quadrature value: rejection sampling in the bounding box of the
    perturbed region."""
    params = comp.spec.params
    R = comp.spec.R
    lo = min(comp.add.support[0], comp.sub.support[0])
    hi = max(comp.add.support[1], comp.sub.support[1])
    rs = np.linspace(lo, hi, 2001)
    f_vals = _f(params, rs, R)
    df_vals = comp.height_change(rs)
    t_lo = float(np.min(np.minimum(f_vals, f_vals + df_vals))) - 1e-12
    t_hi = float(np.max(np.maximum(f_vals, f_vals + df_vals))) + 1e-12
    rng = np.random.default_rng(seed)
    x = rng.uniform(-hi, hi, size=n)
    y = rng.uniform(-hi, hi, size=n)
    t = rng.uniform(t_lo, t_hi, size=n)
    r = np.hypot(x, y)
    ok = (r >= lo) & (r <= hi)
    f_here = np.where(ok, _f(params, np.clip(r, 0.0, R), R), 0.0)
    df_here = np.where(ok, comp.height_change(r), 0.0)
    lo_t = np.minimum(f_here, f_here + df_here)
    hi_t = np.maximum(f_here, f_here + df_here)
    hit = ok & (t > lo_t) & (t <= hi_t)
    box = (2.0 * hi) ** 2 * (t_hi - t_lo)
    return box * float(np.count_nonzero(hit)) / n


def calibration_gain(comp: Competitor, n_r: int = 48, n_t: int = 24) -> tuple[float, float]:
    """(G, (2/eps R) G): the calibration integral over the removed region.

    G integrates 1 - R/u over the set between the perturbed and original
    graphs where material was removed; it is nonnegative and
    (2/(eps R)) G is a lower bound for the area excess.
    """
    params = comp.spec.params
    R = comp.spec.R
    lo, hi = comp.sub.support
    xr, wr = _gauss_legendre(n_r)
    xt, wt = _gauss_legendre(n_t)
    rs = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xr
    wr = 0.5 * (hi - lo) * wr
    f_here = _f(params, rs, R)
    depth = -comp.height_change(rs)  # >= 0 on the removed support
    depth = np.maximum(depth, 0.0)
    # t-nodes between f - depth and f for every radial node
    tmid = f_here[:, None] - 0.5 * depth[:, None] * (1.0 - xt[None, :])
    wts = 0.5 * depth[:, None] * wt[None, :]
    labels = leaf_label_grid(comp.cyl, np.broadcast_to(rs[:, None], tmid.shape), tmid)
    integrand = 1.0 - R / labels
    gain = 2.0 * math.pi * float(np.sum(np.sum(integrand * wts, axis=1) * wr * rs))
    e = params.epsilon
    return gain, 2.0 * gain / (e * R)


# ----------------------------------------------------------------- stability


def normal_component(spec: SphereSpec, which: str, point):
    """Inner product of a right-invariant frame field with the sphere normal.

    which = 'x', 'y', or 't'.  Closed forms (x - y p)/R, (y + x p)/R, and
    sgn(t) sqrt(R^2-r^2) / (w(r) R); each solves the Jacobi equation on the
    sphere.  `point` is a Point, which gives a float, or a triple (x, y, t)
    of broadcastable arrays, which gives an array.
    """
    if isinstance(point, Point):
        return float(normal_component(spec, which, (point.x, point.y, point.t)))
    if which not in ("x", "y", "t"):
        raise ContractError(f"which must be 'x', 'y' or 't', got {which!r}")
    x, y, t = (np.asarray(v, dtype=float) for v in point)
    R = spec.R
    sg = np.sign(t)
    gap, w, p = _pieces(spec.params, np.hypot(x, y), R)
    p = p * sg
    if which == "x":
        return (x - y * p) / R
    if which == "y":
        return (y + x * p) / R
    return sg * gap / (w * R)


@dataclass(frozen=True)
class Hemispheres:
    """Sign domains of the three right-invariant normal components."""

    spec: SphereSpec

    def contains(self, which: str, point: Point) -> bool:
        return normal_component(self.spec, which, point) > 0.0


def stable_hemispheres(spec: SphereSpec) -> Hemispheres:
    """The three hemispheres on which the sphere is stable; the one for the
    vertical field is exactly the northern hemisphere {t > 0}."""
    return Hemispheres(spec)


def jacobi_potential(spec: SphereSpec, r):
    """|h|^2 + Ric(N) on the upper graph as a function of the radius.

    |h|^2 from the closed-form second fundamental form; the Ricci term is
    -2 tau^2 + 4 tau^2 <N, T>^2 (cross-checked against the curvature
    contraction in the tests).
    """
    h = _shape(spec, r)[0]
    theta_n = normal_component(spec, "t", (r, 0.0, _f(spec.params, r, spec.R)))  # <N, T>
    return np.sum(h * h, axis=(-2, -1)) + (4.0 * theta_n * theta_n - 2.0) * spec.params.tau ** 2


def jacobi_residual(
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
