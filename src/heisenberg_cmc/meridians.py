"""The geodesic meridian foliation of the spheres.

The sphere family foliates R^3 minus the origin, so its outward unit
normal N is a field on that set.  Its self-derivative nabla_N N is
tangent to each sphere and vanishes exactly on the center axis and the
equatorial plane; the normalized, sign-corrected field

    M = sgn(t) * nabla_N N / |nabla_N N|
      = (x lam - y mu) X + (y lam + x mu) Y - nu T,
    lam = sgn(t) sqrt(R^2-r^2) / (r R),   mu = sigma r / (R m(r)),   nu = eps^3 r / (R m(r)),

with m(r) = hypot(eps^3, sigma r) = eps^3 w(r), extends smoothly across the equator and
satisfies nabla_M M = -(H / w(r)^2) N, so its integral curves are intrinsic geodesics of the
sphere running from the north to the south pole.  They have a closed form in the angle phi
with r = R sin(phi), which `meridian_curve` samples; `integrate_meridian` integrates the field by
Runge-Kutta as its independent oracle.  Both evaluate the field through the one closed form
`_meridian`, and both place points on the sphere through the one chart `_chart`, in which the
sphere is a circle and phi is the polar angle: the integrator retracts each step onto the
sphere there.

The limit field is the horizontal field tangent to the sub-Riemannian limit
sphere (eps -> 0 at fixed sigma, after scaling by eps), which satisfies the
characteristic horizontal-geodesic equation nabla_M M = (2/R) J(M).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._numerics import _MAX_SAMPLES, _divide, _require_finite, _unit
from .ambient import ModelParams, Point, TangentVector, _Record, christoffel_frame
from .errors import DomainError, NumericsError
from .sphere import (
    _TINY,
    SphereSpec,
    _f,
    _gap,
    _kernel,
    _leaf,
    _mass,
    _normal_components,
    _on_sphere_or_raise,
    _pansu_leaf,
    _pieces,
    _profile,
    _radius_of,
)

__all__ = [
    "MeridianCurve",
    "meridian_field",
    "meridian_curve",
    "integrate_meridian",
    "meridian_geodesic_residual",
    "pansu_meridian_field",
    "pansu_geodesic_residual",
]


class MeridianCurve(_Record):
    """A sampled meridian of the sphere R: arclength grid s, points (n, 3) in coordinates and
    unit velocities (n, 3), the field's frame coefficients."""

    __slots__ = ("R", "s", "points", "velocities")

    def __len__(self) -> int:
        return len(self.s)

    def point(self, i: int) -> Point:
        return Point.from_array(self.points[i])


def _require_off_axis(point: Point) -> None:
    if point.r == 0.0:
        raise DomainError("operation undefined on the center axis z = 0")


def _meridian(params: ModelParams, x, y, r, t, R, g, m):
    """M's frame coefficients (x lam - y mu, y lam + x mu, -nu) at points (x, y, t) of radius r on
    the leaf R, g, m(r), broadcasting; c = r/(R m) = mu/sigma = nu/eps^3 is finite at sigma = 0.
    lam = g/(r R) takes r R, which overflows at R = 1e155, in units of R (`_unit`)."""
    # one point is signed on Python floats, as `_normal_components` signs it, so that g/(r R)
    # overflows without a warning (a float64 warns) and the caller's typed error comes first
    sg = np.sign(t) if isinstance(t, np.ndarray) else 1.0 if t > 0.0 else -1.0 if t < 0.0 else t - t
    e, c, u = params.epsilon, r / (R * m), _unit(R)
    lam, mu = _divide(sg * (g / u), (r / u) * (R / u)) / u, params.sigma * c
    return x * lam - y * mu, y * lam + x * mu, -(e * e * e * c)


def meridian_field(params: ModelParams, point: Point) -> TangentVector:
    """The unit meridian field M, smooth across the equator.

    Equals sgn(t) * nabla_N N / |nabla_N N| away from the equatorial
    plane; the closed form `_meridian` is regular there too.
    """
    _require_off_axis(point)
    R, g, m = _leaf(params, point.r, point.t)
    # m(r) or R m(r) below the normal floats (eps^3 subnormal at sigma = 0) has lost its digits,
    # and an r R that underflows to 0 raises, as a curve's does
    v = (_meridian(params, point.x, point.y, point.r, point.t, R, g, m)
         if min(m, R * m) >= _TINY and point.r * R else (math.nan,) * 3)
    return TangentVector.from_array(_require_finite(v, params, "the meridian field at {}", point))


# ------------------------------------------------------------- closed form


def _check_meridian_input(spec: SphereSpec, start: Point, lengths) -> None:
    """NumericsError where eps R underflows to 0 or a step's dphi = step/(eps R) is not finite,
    before a step divides by it; DomainError unless each (name, length) given is positive and
    finite and the start is off the poles; ContractError unless the start is on the sphere."""
    e_R = spec.params.epsilon * spec.R
    if e_R == 0.0:  # dphi/ds = 1/(eps R)
        _require_finite(math.inf, spec.params, "1/(eps R)", R=spec.R)
    for name, value in lengths:
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be positive and finite, got {value!r}")
        if name == "step" and value is not None and not math.isfinite(value / e_R):
            _require_finite(math.inf, spec.params, "1/(eps R)", R=spec.R)  # eps R subnormal
    _on_sphere_or_raise(spec, start)
    if start.r <= 1e-6 * spec.R:
        raise DomainError("start must be off the poles")


def _curve(params: ModelParams, R: float, points: np.ndarray, r, g, m, step) -> MeridianCurve:
    """The curve through `points` (n, 3) at radii r, with g and m(r) there, `step` apart: velocities
    are the meridian field there, and one exact south-pole sample is appended one step after the
    last.  NumericsError where m(r), R m(r) or r R is below the normal floats (m(r) and R m(r)
    have lost their digits there); an r R past the largest float passes, as the field and the
    residual take r R and r^2 in units of R."""
    x, y, t = points.T
    with np.errstate(over="ignore"):
        tiny = not np.all(np.minimum(np.minimum(m, R * m), r * R) >= _TINY)
    if tiny:
        _require_finite(math.nan, params, "the meridian field", R=R)
    vels = np.column_stack(_meridian(params, x, y, r, t, R, g, m))
    points = np.vstack([points, [0.0, 0.0, -float(_f(params, 0.0, R))]])
    vels = np.vstack([vels, vels[-1]])
    return MeridianCurve(R=R, s=step * np.arange(len(points)), points=points, velocities=vels)


def _chart(params: ModelParams, R: float, r: float, t: float) -> tuple[float, float]:
    """Polar angle and radius of (r, t) in the chart (r, t / fos(min(r, R))),
    fos = f / sqrt(R^2 - r^2), in which the sphere R is the circle of radius R
    and the meridian angle phi (r = R sin(phi)) is the polar angle."""
    u = t / float(_profile(params, min(r, R), R)[1])
    return math.atan2(r, u), math.hypot(r, u)


def _curves(spec: SphereSpec, start: Point, steps) -> list[MeridianCurve]:
    """`meridian_curve` at each of `steps` from the one start, checked and charted once, in one
    closed-form pass over the concatenated phi grids; a numpy ufunc's value does not depend on an
    element's position, so each curve has the bits of its own call."""
    params, R = spec.params, spec.R
    _check_meridian_input(spec, start, [("step", step) for step in steps])
    m0 = _mass(params, start.r)
    if min(m0, R * m0, start.r * R) < _TINY:  # `_curve`'s rule, before the chart divides by fos
        _require_finite(math.nan, params, "the meridian field", R=R)
    phi0 = _chart(params, R, start.r, start.t)[0]
    grids = []
    for step in steps:
        dphi = step / (params.epsilon * R)
        count = (math.pi - phi0) / dphi  # inf where dphi is subnormal
        if not count < _MAX_SAMPLES:  # before int() and np.arange
            n = int(count) + 1 if math.isfinite(count) else count
            raise DomainError(f"step = {step!r} asks for {n:.3g} samples, more than an array holds")
        phi = phi0 + dphi * np.arange(int(count) + 1)
        grids.append(phi[phi < math.pi])
    phi = np.concatenate(grids)
    c, r = R * np.cos(phi), R * np.sin(phi)
    g, m, p = _pieces(params, r, R)
    # t = f(r) at the rounded r, not R cos(phi) f/sqrt(R^2 - r^2): the two agree to
    # rounding, but near the rim, where f is steep, only f(r) keeps |t| = f(r)
    with np.errstate(over="ignore", invalid="ignore"):  # f past the floats raises, as in `_height`
        t = np.sign(c) * (g * _kernel(g, m, params.sigma, p)[0])
    _require_finite(t, params, "the profile height", R=R)
    twist = np.arctan2(m, abs(params.sigma) * c)
    theta = math.atan2(start.y, start.x) + math.copysign(1.0, params.sigma) * (twist - twist[0])
    points = np.column_stack((r * np.cos(theta), r * np.sin(theta), t))
    ends = [0, *itertools.accumulate(map(len, grids))]
    return [_curve(params, R, points[a:b], r[a:b], g[a:b], m[a:b], step)
            for a, b, step in zip(ends, ends[1:], steps)]


def meridian_curve(spec: SphereSpec, start: Point, step: float) -> MeridianCurve:
    """The meridian through `start`, sampled in closed form every `step` of arclength.

    With r = R sin(phi) the meridian field gives dphi/ds = 1/(eps R) and
    dtheta/dphi = sigma r / m(r), so the samples are phi_k = phi0 + k step/(eps R)
    while phi_k < pi, at r = R sin(phi), t = sgn(cos(phi)) f(r; R) and
    theta = theta0 + sgn(sigma) [Theta(phi) - Theta(phi0)] with
    Theta = atan2(m(r), |sigma| R cos(phi)).  On the north hemisphere that is
    arcsin(m(r)/m(R)) up to a constant, and the twist from pole to pole is
    2 arctan(sigma R/eps^3).  The velocities are the meridian field at the samples,
    and one exact south-pole sample is appended one step after the last.
    """
    return _curves(spec, start, [step])[0]


# ------------------------------------------------------------- integration


def _rk4_velocity(params: ModelParams, R: float, q: np.ndarray) -> np.ndarray:
    """Coordinate velocity of the meridian field frozen on the sphere R at the
    point q = (x, y, t): the X and Y coefficients of `_meridian` over eps, and the
    t-component -r m(r) / (eps R), in which the sigma terms cancel."""
    x, y, t = q.tolist()
    r = abs(complex(x, y))
    g, m, _ = _pieces(params, r, R)
    if min(m, R * m, r * R) < _TINY:  # `_curve`'s rule, before any step; NaN is the step guard's
        _require_finite(math.nan, params, "the meridian field", R=R)
    m_x, m_y, _ = _meridian(params, x, y, r, t, R, g, m)
    e = params.epsilon
    return np.array([m_x / e, m_y / e, -r * m / (e * R)])


def integrate_meridian(
    spec: SphereSpec,
    start: Point,
    step: float | None = None,
    max_len: float | None = None,
    pole_radius: float | None = None,
) -> MeridianCurve:
    """Integrate the meridian field on the sphere from `start` to the south pole.

    Fixed-step classical Runge-Kutta in arclength (the field is unit).  After
    every step the state is put back on the sphere in closed form, in the
    chart of `meridian_curve`: phi = atan2(r, t / fos(min(r, R))) with
    fos = f / sqrt(R^2 - r^2), then r = R sin(phi), t = sgn(cos phi) f(r)
    and (x, y) scaled to that r.  This is a smooth retraction, so the
    method keeps its fourth order and the samples stay on the sphere to
    rounding at any scale.  The default step is pi eps R / 4096, a 4096th
    of the pole-to-pole length.  Integration stops once the curve is within
    `pole_radius` of the south pole, and one exact pole sample is appended.
    A step that lands farther from the sphere, measured in the chart, than
    a unit-speed step travels there (step / eps) or that leaves the finite
    numbers, and a curve that has not reached the pole after `max_len` (by
    default 2 pi eps R, twice the pole-to-pole length), raise NumericsError.
    """
    params, R = spec.params, spec.R
    _check_meridian_input(spec, start, [("step", step), ("max_len", max_len),
                                        ("pole_radius", pole_radius)])
    e = params.epsilon
    h = step if step is not None else math.pi * e * R / 4096.0
    # the radial approach speed near the poles is 1/eps, so the capture
    # disk must not be smaller than one step's radial travel
    pole_r = pole_radius if pole_radius is not None else max(1e-3 * R, 3.0 * h / e)
    if max_len is None:
        max_len = 2.0 * math.pi * e * R
    q = np.array([start.x, start.y, start.t])
    pts = [q]
    # a state that runs away turns non-finite quietly, and the step guard stops it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(int(max_len / h) + 1):
            k1 = _rk4_velocity(params, R, q)
            k2 = _rk4_velocity(params, R, q + 0.5 * h * k1)
            k3 = _rk4_velocity(params, R, q + 0.5 * h * k2)
            k4 = _rk4_velocity(params, R, q + h * k3)
            x, y, t = (q + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)).tolist()
            r = abs(complex(x, y))
            phi, rho = _chart(params, R, r, t)
            if not abs(rho - R) <= h / e:  # NaN fails too
                raise NumericsError(f"meridian step {len(pts)} strayed more than step/eps from "
                                    f"the sphere or left the finite numbers at eps = {e!r}, "
                                    f"step = {h!r}")
            r_new = R * math.sin(phi)
            t_new = math.copysign(float(_f(params, r_new, R)), math.cos(phi))
            scale = r_new / r if r > 0.0 else 0.0
            q = np.array([x * scale, y * scale, t_new])
            pts.append(q)
            if abs(complex(q[0], q[1])) < pole_r and q[2] < 0.0:
                break
        else:
            raise NumericsError(f"meridian did not reach the south pole within max_len = "
                                f"{max_len!r} at eps = {e!r}, step = {h!r}")

    points = np.array(pts)
    r = _radius_of(points[:, 0], points[:, 1])
    return _curve(params, R, points, r, *_pieces(params, r, R)[:2], h)


def _geodesic_residual(spec: SphereSpec, points: np.ndarray, velocities: np.ndarray,
                       r: np.ndarray) -> np.ndarray:
    """eps R (nabla_M M + (H / w^2) N) in closed form at (k, 3) sphere points off the axis, of radii
    r, where the meridian field is `velocities` (k, 3); the stencil `meridian_geodesic_residual` is
    its oracle.  In phi (r = R sin phi): r' = sgn(t) g, theta' = sigma r/m, lam' = -R/r^2 (r^2 in
    units of R, `_unit`, as it overflows at R = 1e155), and
    c = r/(R m) = mu/sigma = nu/eps^3 has c' = (eps^3/m)^2 r'/(R m).  eps R Gamma(v, v) =
    2 theta' (v_Y, -v_X, 0) and eps R H/w^2 = (eps^3/m)^2, so the residual is, with each term in
    (eps^3, sigma) and of size 1 off the poles, (r'/r) (v_X, v_Y, 0) + theta' (v_Y, -v_X, 0) +
    (x lam' - y mu', y lam' + x mu', -nu') + (eps^3/m)^2 N, N the sphere's normal.
    """
    params, R, e = spec.params, spec.R, spec.params.epsilon
    x, y, t = points.T
    g, m, u = _gap(r, R), _mass(params, r), _unit(R)
    k2, dr = (e * e * e / m) ** 2, np.sign(t) * g
    a, dtheta, dc = dr / r, params.sigma * r / m, k2 * dr / (R * m)
    dlam = -(R / u) / ((r / u) * (r / u)) / u
    vx, vy, dmu = velocities[:, 0], velocities[:, 1], params.sigma * dc
    dv = np.column_stack((a * vx + dtheta * vy + x * dlam - y * dmu,
                          a * vy - dtheta * vx + y * dlam + x * dmu, -e * e * e * dc))
    return dv + k2[:, None] * _normal_components(params, x, y, t, R, g, m)


def meridian_geodesic_residual(spec: SphereSpec, curve: MeridianCurve,
                               r_min_frac: float = 0.1) -> float:
    """Max residual of nabla_M M + (H / w(r)^2) N along a sampled curve, as integrate_meridian's;
    the oracle of the closed form `_geodesic_residual`, which the CLI reports.

    The derivative of the velocity's frame components is taken by 4th-order finite
    differences in arclength and corrected with the connection table; samples with
    r < r_min_frac * R are skipped because the polar frame coefficients degenerate there.
    Each sample's normal N is the foliation normal of its own leaf, not of the sphere R,
    so samples off the sphere raise the residual.
    """
    params, R = spec.params, spec.R
    h = curve.s[1] - curve.s[0]
    m = curve.velocities
    n = len(curve.s)
    if n < 6:
        raise DomainError("curve too short for the residual stencil")
    i = np.arange(2, n - 3)
    x, y, t = curve.points[i].T
    r = _radius_of(x, y)
    keep = r >= r_min_frac * R
    i, x, y, t, r = i[keep], x[keep], y[keep], t[keep], r[keep]
    dm = (m[i - 2] - 8.0 * m[i - 1] + 8.0 * m[i + 1] - m[i + 2]) / (12.0 * h)
    conv = dm + np.einsum("ni,nj,ijk->nk", m[i], m[i], christoffel_frame(params))
    w2 = 1.0 + (params.tau * params.epsilon * r) ** 2
    normals = _normal_components(params, x, y, t, *_leaf(params, r, t))
    resid = conv + (spec.H / w2)[:, None] * normals
    return float(np.max(np.linalg.norm(resid, axis=1), initial=0.0))


# ------------------------------------------------------------- limit fields


def _pansu_field(sigma: float, x, y, t, r) -> np.ndarray:
    """Array core of pansu_meridian_field: coefficients (..., 3) at points off the axis, r = |z|."""
    x, y, t, r = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, t, r)))
    if np.any(r == 0.0):
        raise DomainError("operation undefined on the center axis z = 0")
    R, g = _pansu_leaf(sigma, r, t)
    u = _unit(R)  # r R in units of R, as in `_meridian`
    lam = np.sign(t) * (g / u) / ((r / u) * (R / u)) / u
    mu = 1.0 / R
    return np.stack([x * lam - y * mu, y * lam + x * mu, np.zeros_like(lam)], axis=-1)


def pansu_meridian_field(sigma: float, point: Point) -> TangentVector:
    """Scaled limit of the meridian field: horizontal, tangent to the
    sub-Riemannian limit sphere through the point.

    Coefficients are on the eps-independent horizontal frame
    (eps X, eps Y); the vertical coefficient is exactly zero.
    """
    return TangentVector.from_array(
        _pansu_field(sigma, point.x, point.y, point.t, _radius_of(point.x, point.y)))


def pansu_geodesic_residual(sigma: float, R: float, r: float, theta: float = 0.7) -> float:
    """Residual of nabla_M M = (2/R) J(M) for the scaled horizontal field.

    Evaluated on the limit sphere of parameter R at radius r (northern
    hemisphere) using exact partial derivatives of the coefficient
    functions; the connection terms cancel because the field is
    horizontal, so nabla_M M has components (M m1, M m2) on the
    horizontal frame.
    """
    if not (0.0 < r < R):
        raise DomainError(f"need 0 < r < R, got r = {r}, R = {R}")
    x, y = r * math.cos(theta), r * math.sin(theta)
    gap = math.sqrt(R * R - r * r)
    lam = gap / (r * R)
    dlam = -R / (r * r * gap)
    mu = 1.0 / R
    m1 = x * lam - y * mu
    m2 = y * lam + x * mu
    d1m1 = lam + x * x * dlam / r
    d2m1 = x * y * dlam / r - mu
    d1m2 = x * y * dlam / r + mu
    d2m2 = lam + y * y * dlam / r
    conv1 = m1 * d1m1 + m2 * d2m1
    conv2 = m1 * d1m2 + m2 * d2m2
    return math.hypot(conv1 + (2.0 / R) * m2, conv2 - (2.0 / R) * m1)
