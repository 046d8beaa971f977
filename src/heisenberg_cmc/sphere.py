"""The rotationally symmetric constant-mean-curvature spheres.

For each R > 0 the sphere is the set |t| = f(|z|; R) with profile

    f(r; R) = (eps^2 / 2 tau) [ w(R)^2 arctan(p) + w(r)^2 p ],
    w(r)    = sqrt(1 + tau^2 eps^2 r^2),
    p(r; R) = tau eps sqrt(R^2 - r^2) / w(r),

mean curvature H = 1/(eps R), and eps*H*R = 1.  The family foliates
R^3 minus the origin, which defines the radius field R(r, t) and the
outward foliation normal used throughout the package.

Numerically everything is written in forms that stay finite through
tau = 0 (Euclidean degeneration):

    f   = sqrt(R^2-r^2) * (eps^3 / 2 w(r)) [ w(R)^2 atanc(p) + w(r)^2 ],
    f_r = -eps^3 r w(r) / sqrt(R^2 - r^2),
    f_R =  eps^3 R w(r) / (sqrt(R^2 - r^2) * ell(p)),

with atanc(p) = arctan(p)/p and ell(p) = 1/(1 + p arctan p).  All profile
helpers broadcast over numpy arrays.
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


def _atanc(p):
    """arctan(p)/p, continuous with value 1 at p = 0."""
    p = np.asarray(p, dtype=float)
    small = np.abs(p) < 1e-8
    safe = np.where(small, 1.0, p)
    out = np.where(small, 1.0 - p * p / 3.0, np.arctan(safe) / safe)
    return out


def _ell(p):
    p = np.asarray(p, dtype=float)
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


def _fos(params: ModelParams, R, w, p):
    """f / sqrt(R^2 - r^2) from w(r) and p(r; R), smooth and positive up to r = R and tau = 0."""
    e = params.epsilon
    wR2 = 1.0 + np.square(params.tau * e * np.asarray(R, dtype=float))
    return (e**3 / (2.0 * w)) * (wR2 * _atanc(p) + w * w)


def _f_over_sqrt(params: ModelParams, r, R):
    return _fos(params, R, *_pieces(params, r, R)[1:])


def _f(params: ModelParams, r, R):
    sq, w, p = _pieces(params, r, R)
    return sq * _fos(params, R, w, p)


def _f_r(params: ModelParams, r, R):
    e = params.epsilon
    return -(e**3) * np.asarray(r, dtype=float) * _omega(params, r) / np.sqrt(_gap(r, R))


def _f_R(params: ModelParams, r, R):
    sq, w, p = _pieces(params, r, R)
    return params.epsilon**3 * np.asarray(R, dtype=float) * w / (sq * _ell(p))


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


def _radius_solve(params: ModelParams, r, t):
    """Solve f(r; R) = |t| for R >= r, vectorized.

    Safeguarded Newton in w = R^2 - r^2 on g(w) = f^2 - t^2, which is
    increasing and smooth with g'(w) = eps^3 w(r) fos(w) / ell(p) bounded
    away from 0.  The root stays bracketed by [0, hi], hi = (|t|/eps^3)^2,
    because f >= eps^3 sqrt(w); at sigma = 0 that bound is an equality and
    hi is the root.  The iteration starts from Pansu's sphere, the eps -> 0
    limit: at min(hi, R_P^2 - r^2) with R_P = pansu_radius(|sigma|, r, |t|)
    (the profile is even in sigma), or at hi where sigma = 0 or the Pansu gap
    is not positive.  It stops when |g| <= 1e-13 t^2, a relative test on f.
    """
    e = params.epsilon
    shape = np.broadcast_shapes(np.shape(r), np.shape(t))
    r, t = (np.atleast_1d(np.broadcast_to(np.asarray(v, dtype=float), shape)) for v in (r, t))
    t = np.abs(t)
    hi = (t / e**3) ** 2
    start = hi
    if params.sigma != 0.0:
        gap = _pansu_radius_solve(abs(params.sigma), r, t) ** 2 - r * r
        start = np.where(gap > 0.0, np.minimum(hi, gap), hi)
    tol = 1e-13 * t * t

    def residual(w):
        R = np.sqrt(r * r + w)
        _, w_r, p = _pieces(params, r, R)
        fos = _fos(params, R, w_r, p)
        g = w * fos * fos - t * t
        return g, e**3 * w_r * fos / _ell(p), np.abs(g) <= tol

    w = _newton(residual, start, 0.0, hi, t == 0.0, "radius solve")
    return np.sqrt(r * r + w).reshape(shape)


def radius_field(params: ModelParams, r: float, t: float) -> RadiusField:
    """Radius of the sphere through (r, t) plus its partial derivatives.

    R_r = r ell(p) / R and R_t = sgn(t) sqrt(R^2-r^2) ell(p) / (eps^3 R w(r)),
    both continuous across the equator plane t = 0 (where R = r, R_r = 1,
    R_t = 0).
    """
    if r == 0.0 and t == 0.0:
        raise DomainError("the radius field is undefined at the origin")
    if r < 0.0:
        raise DomainError(f"r must be nonnegative, got {r!r}")
    R = float(_radius_solve(params, r, t))
    gap, w, p = (float(v) for v in _pieces(params, r, R))
    ell = float(_ell(p))
    R_r = r * ell / R
    R_t = math.copysign(1.0, t) * gap * ell / (params.epsilon**3 * R * w) if t != 0.0 else 0.0
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
    """ContractError unless the point lies within `tol` of the sphere."""
    r = point.r
    if r > spec.R * (1.0 + _DOMAIN_RTOL) + tol:
        raise ContractError(f"point with |z| = {r} is not on the sphere R = {spec.R}")
    miss = abs(abs(point.t) - float(_f(spec.params, min(r, spec.R), spec.R)))
    if miss > tol * max(1.0, spec.R):
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
    """Sub-Riemannian limit profile (sigma/2)[R^2 arccos(r/R) + r sqrt(R^2-r^2)]."""
    rr = _check_profile_domain(R, r, closed=True)
    ratio = np.clip(np.asarray(rr, dtype=float) / R, 0.0, 1.0)
    val = 0.5 * sigma * (R * R * np.arccos(ratio) + rr * np.sqrt(_gap(rr, R)))
    return _scalar_or_array(r, val)


def _pansu_radius_solve(sigma: float, r, t):
    """Solve pansu_profile(sigma, R, r) = |t| for R >= r, vectorized.

    Newton in g = sqrt(R^2 - r^2) on F(g) = (sigma/2)[R^2 arccos(r/R) + r g],
    with F'(g) = sigma (g arccos(r/R) + r), smooth up to g = 0.  F is
    increasing and convex, and F(g) >= sigma r g and F(g) >= (pi/4) sigma g^2,
    so the start min(|t|/(sigma r), sqrt(4|t|/(pi sigma))) lies above the
    root and brackets it with g = 0; the iterates descend onto the root, and a
    step that would reach g <= 0 halves g instead.  arccos(r/R) is taken as
    arctan2(g, r), which stays accurate near the rim.
    """
    shape = np.broadcast_shapes(np.shape(r), np.shape(t))
    r, t = (np.atleast_1d(np.broadcast_to(np.asarray(v, dtype=float), shape)) for v in (r, t))
    t = np.abs(t)
    with np.errstate(divide="ignore", over="ignore"):  # r = 0 or tiny: the other bound holds
        g = np.minimum(t / (sigma * r), np.sqrt(4.0 * t / (math.pi * sigma)))

    def residual(g):
        a = np.arctan2(g, r)
        return 0.5 * sigma * ((r * r + g * g) * a + r * g) - t, sigma * (g * a + r), False

    g = _newton(residual, g, 0.0, g, t == 0.0, "pansu radius solve")
    R = np.where(t == 0.0, r, np.sqrt(r * r + g * g))
    return R.reshape(shape)


def pansu_radius(sigma: float, r, t):
    """Radius of the limit-profile sphere through (r, t); inverse of pansu_profile.

    Broadcasts over arrays of r and t; R = r on the plane t = 0.
    """
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    rr = np.asarray(r, dtype=float)
    tt = np.asarray(t, dtype=float)
    if (np.any(rr < 0.0) or np.any((rr == 0.0) & (tt == 0.0))
            or not (np.all(np.isfinite(rr)) and np.all(np.isfinite(tt)))):
        raise DomainError(f"invalid point (r, t) = ({r}, {t})")
    R = _pansu_radius_solve(sigma, rr, tt)
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
