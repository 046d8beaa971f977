"""The rotationally symmetric constant-mean-curvature spheres.

For each R > 0 the sphere is the set |t| = f(|z|; R) with profile

    f(r; R) = (eps^2 / 2 tau) [ w(R)^2 arctan(p) + w(r)^2 p ],
    w(r)    = sqrt(1 + tau^2 eps^2 r^2),
    p(r; R) = tau eps sqrt(R^2 - r^2) / w(r),

mean curvature H = 1/(eps R), and eps*H*R = 1.  The family foliates
R^3 minus the origin, which defines the radius field R(r, t) and the
outward foliation normal used throughout the package.

The profile formula: in g = sqrt(R^2 - r^2), f and Pansu's sub-Riemannian profile
(sigma/2)[R^2 acos(r/R) + r g] are one function, evaluated by `_kernel` alone,

    F(g; m, s, q) = (g/2) [ m (1 + atanc q) + s g arctan q ],  s g = m q,  F'(g) = m + s g arctan q,

f at m = eps^3 w(r), s = sigma, q = p and Pansu's at m = sigma r, s = sigma, q = g/r
(atanc q = arctan(q)/q; so f is Pansu's profile at radii hypot(r, c), hypot(R, c),
c = eps^3/|sigma|).  F is finite through tau = 0 (F = m g) and on Pansu's axis (q = inf);
f_r = -eps^3 r w(r)/g and f_R = R F'/g.  Both radius solves are one Newton in g on
F(g) = |t| (`_gap_solve`).  All profile helpers broadcast over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import _newton, _quad
from .ambient import ModelParams, Point, TangentVector
from .errors import ContractError, DomainError

__all__ = [
    "SphereSpec",
    "ProfileQuantities",
    "RadiusField",
    "profile_height",
    "profile_height_r",
    "profile_height_R",
    "profile_quantities",
    "radius_field",
    "sphere_through",
    "outer_normal",
    "foliation_normal",
    "sphere_area",
    "sphere_volume",
    "euclidean_profile",
    "pansu_profile",
    "pansu_radius",
    "graph_mean_curvature_fd",
]

_DOMAIN_RTOL = 1e-12


@dataclass(frozen=True)
class SphereSpec:
    """One sphere of the family: parameters plus its radius parameter R."""

    params: ModelParams
    R: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise DomainError(f"R must be positive and finite, got {self.R!r}")

    @property
    def H(self) -> float:
        """Mean curvature; eps * H * R = 1."""
        return 1.0 / (self.params.epsilon * self.R)


@dataclass(frozen=True)
class ProfileQuantities:
    """Pointwise profile data at radius r on the sphere of parameter R."""

    omega_r: float
    p: float
    ell: float
    rho: float


@dataclass(frozen=True)
class RadiusField:
    """Radius R(r, t) of the sphere through (r, t) and its partials."""

    value: float
    R_r: float
    R_t: float


# ----------------------------------------------------------------- internals


def _omega(params: ModelParams, r):
    te = params.tau * params.epsilon
    return np.sqrt(1.0 + np.square(te * np.asarray(r, dtype=float)))


def _atanc(p, atan_p=None):
    """arctan(p)/p, continuous with value 1 at p = 0; `atan_p` is arctan(p)
    when the caller has it already.  Below |p| = 1e-8 the series 1 - p^2/3 rounds to 1."""
    p = np.asarray(p, dtype=float)
    small = np.abs(p) < 1e-8
    safe = np.where(small, 1.0, p)
    atan_safe = np.arctan(safe) if atan_p is None else atan_p  # masked where small
    return np.where(small, 1.0, atan_safe / safe)


def _ell(p):
    return 1.0 / (1.0 + p * np.arctan(p))


def _gap(r, R):
    """R^2 - r^2 clamped at 0 (tiny negatives from roundoff are clipped)."""
    r = np.asarray(r, dtype=float)
    R = np.asarray(R, dtype=float)
    return np.maximum(R * R - r * r, 0.0)


def _pieces(params: ModelParams, r, R):
    """sqrt(R^2 - r^2), w(r) and p(r; R), which the profile kernels share."""
    sq = np.sqrt(_gap(r, R))
    w = _omega(params, r)
    return sq, w, params.tau * params.epsilon * sq / w


def _p_north(params: ModelParams, r, R):
    return _pieces(params, r, R)[2]


def _kernel(g, m, s, q):
    """F/g and F'(g) of the profile formula F(g; m, s, q) (module docstring)."""
    a = np.arctan(q)
    sga = s * g * a
    return 0.5 * (m * (1.0 + _atanc(q, a)) + sga), m + sga


def _profile(params: ModelParams, r, R):
    """sqrt(R^2 - r^2) and the kernel's F/g and F' for f(r; R): m = eps^3 w(r), q = p(r; R)."""
    g, w, p = _pieces(params, r, R)
    return (g, *_kernel(g, params.epsilon**3 * w, params.sigma, p))


def _f_over_sqrt(params: ModelParams, r, R):
    """f / sqrt(R^2 - r^2), smooth and positive up to r = R and tau = 0."""
    return _profile(params, r, R)[1]


def _f(params: ModelParams, r, R):
    g, f_over_g, _ = _profile(params, r, R)
    return g * f_over_g


def _f_r(params: ModelParams, r, R):
    e = params.epsilon
    return -(e**3) * np.asarray(r, dtype=float) * _omega(params, r) / np.sqrt(_gap(r, R))


def _f_R(params: ModelParams, r, R):
    g, _, dF = _profile(params, r, R)
    return np.asarray(R, dtype=float) * dF / g


def _check_profile_domain(R: float, r, *, closed: bool) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    hi = R * (1.0 + _DOMAIN_RTOL) if closed else R * (1.0 - 1e-15)
    if np.any(r < 0.0) or np.any(r > hi) or not np.all(np.isfinite(r)):
        kind = "[0, R]" if closed else "[0, R)"
        raise DomainError(f"radius must lie in {kind} with R = {R}, got {r!r}")
    return r


def _scalar_or_array(r_in, value):
    if np.isscalar(r_in) or (isinstance(r_in, np.ndarray) and r_in.ndim == 0):
        return float(value)
    return value


# ------------------------------------------------------------------- profile


def profile_height(spec: SphereSpec, r):
    """Height f(r; R) of the upper hemisphere graph; f(R; R) = 0."""
    rr = _check_profile_domain(spec.R, r, closed=True)
    return _scalar_or_array(r, _f(spec.params, rr, spec.R))


def profile_height_r(spec: SphereSpec, r):
    """Radial derivative of the profile; negative on (0, R), -inf at r -> R."""
    rr = _check_profile_domain(spec.R, r, closed=False)
    return _scalar_or_array(r, _f_r(spec.params, rr, spec.R))


def profile_height_R(spec: SphereSpec, r):
    """Derivative of the profile in the sphere parameter R; positive on [0, R)."""
    rr = _check_profile_domain(spec.R, r, closed=False)
    return _scalar_or_array(r, _f_R(spec.params, rr, spec.R))


def profile_quantities(spec: SphereSpec, r: float, hemisphere: int = +1) -> ProfileQuantities:
    """Pointwise profile data; `hemisphere` (+1 north, -1 south) signs p."""
    rr = float(_check_profile_domain(spec.R, r, closed=True))
    if hemisphere not in (+1, -1):
        raise ContractError(f"hemisphere must be +1 or -1, got {hemisphere!r}")
    p = hemisphere * float(_p_north(spec.params, rr, spec.R))
    return ProfileQuantities(
        omega_r=float(_omega(spec.params, rr)),
        p=p,
        ell=float(_ell(p)),
        rho=spec.params.tau * spec.params.epsilon * rr,
    )


# -------------------------------------------------------------- radius field


def _gap_solve(m, s: float, t, what: str):
    """g >= 0 with F(g; m, s, s g/m) = |t| (module docstring), broadcasting m and t.

    Newton in g: F is increasing and convex, F >= m g and F >= (pi/4) s g^2, so the start
    g0 = min(|t|/m, sqrt(4|t|/(pi s))) is above the root (the root itself at s = 0), and the
    iterates descend onto it inside [0, g0], stopping on `_newton`'s 4-ulp step or bracket
    rule.  m = 0 (Pansu's axis) or near the least float gives q = inf: arctan(inf) = pi/2.
    """
    shape = np.broadcast_shapes(np.shape(m), np.shape(t))
    m, t = (np.atleast_1d(np.broadcast_to(np.asarray(v, dtype=float), shape)) for v in (m, t))
    t = np.abs(t)

    def residual(g):
        f_over_g, dF = _kernel(g, m, s, s * g / m)
        return g * f_over_g - t, dF, False

    with np.errstate(divide="ignore", over="ignore"):  # m = 0 or tiny, or s tiny: g0 or q = inf
        g = t / m
        if s > 0.0:  # at s = 0 the second bound is 0/0 where t = 0
            g = np.minimum(g, np.sqrt(4.0 * t / (math.pi * s)))
        return _newton(residual, g, 0.0, g, t == 0.0, what).reshape(shape)


def _radius_gap(params: ModelParams, r, t):
    """g with f(r; R) = |t| and m = eps^3 w(r), broadcasting r and t; f is even in sigma."""
    m = params.epsilon**3 * _omega(params, r)
    return _gap_solve(m, abs(params.sigma), t, "radius solve"), m


def _radius_solve(params: ModelParams, r, t):
    """R >= r with f(r; R) = |t|, broadcasting r and t (`_radius_gap`)."""
    return np.hypot(r, _radius_gap(params, r, t)[0])


def radius_field(params: ModelParams, r: float, t: float) -> RadiusField:
    """Radius of the sphere through (r, t) plus its partial derivatives.

    R_r = r ell(p) / R and R_t = sgn(t) sqrt(R^2-r^2) ell(p) / (eps^3 R w(r)),
    both continuous across the equator plane t = 0 (where R = r, R_r = 1,
    R_t = 0); sqrt(R^2 - r^2), eps^3 w(r) and |p| come from the solve.
    """
    if r == 0.0 and t == 0.0:
        raise DomainError("the radius field is undefined at the origin")
    if r < 0.0:
        raise DomainError(f"r must be nonnegative, got {r!r}")
    g, m = (float(v) for v in _radius_gap(params, r, t))
    R = float(np.hypot(r, g))
    ell = float(_ell(abs(params.sigma) * g / m))
    R_r = r * ell / R
    R_t = math.copysign(1.0, t) * g * ell / (m * R) if t != 0.0 else 0.0
    return RadiusField(value=R, R_r=R_r, R_t=R_t)


def sphere_through(params: ModelParams, point: Point) -> SphereSpec:
    """The member of the family passing through `point` (not the origin)."""
    return SphereSpec(params, radius_field(params, point.r, point.t).value)


# ------------------------------------------------------------------- normals


_hypot = np.frompyfunc(math.hypot, 2, 1)


def _radius_of(x, y):
    """|z| elementwise by math.hypot, as Point.r and the meridian integrator
    compute it (np.hypot differs from it in the last bit)."""
    return np.asarray(_hypot(x, y), dtype=float)


def _normal_components(params: ModelParams, x, y, r, t, R) -> np.ndarray:
    """Outward unit normal at (x, y, t), with r = |z|, on the leaf R, vectorized.

    Arrays (or scalars) in, frame coefficients (..., 3) out.
    """
    x, y, r, t, R = (np.asarray(v, dtype=float) for v in (x, y, r, t, R))
    sg = np.sign(t)
    gap, w, p = _pieces(params, r, R)
    p, q = sg * p, sg * gap / w  # q = p / (tau * eps), finite for all tau
    out = np.empty(p.shape + (3,))
    out[..., 0] = (x + y * p) / R
    out[..., 1] = (y - x * p) / R
    out[..., 2] = q / R
    return out


def _on_sphere_or_raise(spec: SphereSpec, point: Point, tol: float = 1e-8) -> None:
    """ContractError unless |t| is within tol * max(1, R, f(r)) of f(r), so
    relative in t where the profile is tall."""
    r = point.r
    if r > spec.R * (1.0 + _DOMAIN_RTOL) + tol:
        raise ContractError(f"point with |z| = {r} is not on the sphere R = {spec.R}")
    f_here = float(_f(spec.params, min(r, spec.R), spec.R))
    miss = abs(abs(point.t) - f_here)
    if miss > tol * max(1.0, spec.R, f_here):
        raise ContractError(f"point is off the sphere: | |t| - f | = {miss:.3e}")


def outer_normal(spec: SphereSpec, point: Point, tol: float = 1e-8) -> TangentVector:
    """Outward unit normal of the sphere at a point on it.

    Well defined at the poles (where it is +/- T) and on the equator
    (where it is radial).  Points farther than `tol` from the sphere are
    rejected.
    """
    _on_sphere_or_raise(spec, point, tol)
    return TangentVector.from_array(
        _normal_components(spec.params, point.x, point.y, point.r, point.t, spec.R))


def foliation_normal(params: ModelParams, point: Point) -> TangentVector:
    """Outward unit normal of the sphere family at any point except the origin."""
    if point.r == 0.0 and point.t == 0.0:
        raise DomainError("the foliation normal is undefined at the origin")
    r = point.r
    R = _radius_solve(params, r, point.t)
    return TangentVector.from_array(_normal_components(params, point.x, point.y, r, point.t, R))


# ------------------------------------------------------------- area / volume


def sphere_area(spec: SphereSpec) -> float:
    """Riemannian area of the full sphere (both hemisphere graphs).

    Integrates (1/eps) sqrt(eps^6 + f_r^2 + sigma^2 r^2) over the disk; the
    square-root rim singularity of f_r is removed exactly by r = R sin(phi),
    under which the integrand density becomes
    r * sqrt(eps^6 R^2 cos^2(phi) + eps^6 r^2 w(r)^2 + sigma^2 r^2 R^2 cos^2(phi)).
    """
    e, s = spec.params.epsilon, spec.params.sigma
    R = spec.R

    def integrand(phi):
        r = R * np.sin(phi)
        w2 = 1.0 + (spec.params.tau * e * r) ** 2
        c2 = (R * np.cos(phi)) ** 2
        return r * np.sqrt(e**6 * c2 + e**6 * r * r * w2 + s * s * r * r * c2)

    return (4.0 * math.pi / e) * _quad(integrand, 0.0, 0.5 * math.pi, "sphere area")


def sphere_volume(spec: SphereSpec) -> float:
    """Lebesgue volume enclosed by the sphere."""
    R = spec.R

    def integrand(phi):
        r = R * np.sin(phi)
        return _f(spec.params, r, R) * r * R * np.cos(phi)

    return 4.0 * math.pi * _quad(integrand, 0.0, 0.5 * math.pi, "sphere volume")


# ------------------------------------------------------------ limit profiles


def euclidean_profile(R: float, r):
    """Limit profile sqrt(R^2 - r^2) (tau -> 0 at eps = 1)."""
    rr = _check_profile_domain(R, r, closed=True)
    return _scalar_or_array(r, np.sqrt(_gap(rr, R)))


def pansu_profile(sigma: float, R: float, r):
    """Sub-Riemannian limit profile (sigma/2)[R^2 acos(r/R) + r sqrt(R^2-r^2)] (`_kernel`)."""
    rr = _check_profile_domain(R, r, closed=True)
    g = np.sqrt(_gap(rr, R))
    with np.errstate(divide="ignore", over="ignore"):  # r = 0 or near the least float: q = inf
        q = g / rr
    return _scalar_or_array(r, g * _kernel(g, sigma * rr, sigma, q)[0])


def pansu_radius(sigma: float, r, t):
    """Radius of the limit-profile sphere through (r, t); inverse of pansu_profile by `_gap_solve`.

    Broadcasts over arrays of r and t; R = r on the plane t = 0.
    """
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    rr = np.asarray(r, dtype=float)
    tt = np.asarray(t, dtype=float)
    if (np.any(rr < 0.0) or np.any((rr == 0.0) & (tt == 0.0))
            or not (np.all(np.isfinite(rr)) and np.all(np.isfinite(tt)))):
        raise DomainError(f"invalid point (r, t) = ({r}, {t})")
    R = np.hypot(rr, _gap_solve(sigma * rr, sigma, tt, "pansu radius solve"))
    return float(R) if R.ndim == 0 else R


# ----------------------------------------------------- finite-difference CMC


def graph_mean_curvature_fd(params: ModelParams, f, r, step: float):
    """Mean curvature of the radial graph t = f(r) by finite differences.

    Returns -(1/2 eps) * (1/r) * d/dr [ r f'(r) / sqrt(eps^6 + f'^2 + sigma^2 r^2) ]
    using only evaluations of `f` (4th-order central differences for both
    derivative levels).  This is the independent oracle for the constancy
    of the mean curvature on the sphere graphs, where the value must be
    1/(eps R).
    """
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
