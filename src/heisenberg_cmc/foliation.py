"""The calibration foliation of a vertical half-cylinder.

For a sphere of parameter R and 0 <= delta < R, the half-cylinder is

    C = { (z, t) : |z| < R,  t > t_cut },   r_cut = R - delta,
    t_cut = f(r_cut; R).

It is foliated by leaves of a continuous label u: above the upper
hemisphere graph the leaves are its vertical translates,
u(z, t) = f(|z|; R) - t + R <= R; below the graph (inside the enclosed
region) the label is the unique lam > R with

    F(|z|, t, lam) = f(|z|; lam) - f(r_cut; lam) + t_cut - t = 0,

whose leaves are vertical translates of the larger spheres' graphs.  F
falls from f(|z|; R) - t > 0 at lam = R to t_cut - t < 0 as lam -> inf.
It is solved in the chord y = sqrt(lam^2 - |z|^2) - sqrt(lam^2 - r_cut^2),
where the root has an a-priori bracket (`_label_below`).  The downhill
unit gradient V = -grad(u)/|grad(u)| is continuous on C, equals the
outward sphere normal on the sphere itself, and has
(1/2) div V = H_lam <= 1/(eps R) with H_lam = 1/(eps lam) for lam > R.
The growth of the label along vertical segments below the graph carries
the explicit lower bounds used by the quantitative isoperimetric
inequality; `vertical_label_bound` checks them pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import _ULP, _newton
from .ambient import ModelParams, Point, TangentVector
from .errors import DomainError, NumericsError
from .sphere import SphereSpec, _f, _f_r, _kernel, _omega, _radius_of, profile_height

__all__ = [
    "CylinderSpec",
    "FoliationConstants",
    "VerticalBound",
    "foliation_constants",
    "leaf_equation",
    "leaf_label",
    "leaf_label_grid",
    "point_on_leaf",
    "calibration_field",
    "calibration_divergence",
    "label_floor",
    "vertical_label_bound",
]


@dataclass(frozen=True)
class CylinderSpec:
    """Vertical half-cylinder over the disk of radius R, cut at height t_cut."""

    spec: SphereSpec
    delta: float
    r_cut: float = 0.0
    t_cut: float = 0.0

    def __post_init__(self) -> None:
        R = self.spec.R
        if not (0.0 <= self.delta < R):
            raise DomainError(f"delta must lie in [0, R), got {self.delta!r}")
        object.__setattr__(self, "r_cut", R - self.delta)
        object.__setattr__(self, "t_cut", float(profile_height(self.spec, self.r_cut)))

    @property
    def params(self) -> ModelParams:
        return self.spec.params

    @property
    def R(self) -> float:
        return self.spec.R

    def contains(self, r: float, t: float) -> bool:
        return 0.0 <= r < self.R and t > self.t_cut


@dataclass(frozen=True)
class FoliationConstants:
    """Explicit constants of the quantitative isoperimetric bounds."""

    k: float
    C: float
    D: float


@dataclass(frozen=True)
class VerticalBound:
    """Leaf label below the graph at depth t, with its lower-bound check."""

    label: float
    deficit: float  # 1 - R/label = 1 - eps R H_label
    floor: float  # the applicable quadratic/linear lower bound
    satisfied: bool


def foliation_constants(spec: SphereSpec) -> FoliationConstants:
    """k = eps^3 w(R) sqrt(R) and the two deficit constants built from it."""
    e = spec.params.epsilon
    R = spec.R
    k = e**3 * float(_omega(spec.params, R)) * math.sqrt(R)
    f0 = float(profile_height(spec, 0.0))
    c = 1.0 / (4.0 * math.pi * e * R**3 * (R * k + f0))
    d = 1.0 / (12.0 * e * math.pi**2 * R**5 * (4.0 * R * k * k + f0 * f0))
    return FoliationConstants(k=k, C=c, D=d)


def leaf_equation(cyl: CylinderSpec, r: float, t: float, lam: float) -> float:
    """F(r, t, lam) whose zero in lam > R labels the leaf through (r, t).

    Positive as lam -> R+ (value f(r;R) - t), negative as lam -> infinity
    (value t_cut - t), and strictly decreasing in lam.
    """
    if not (0.0 <= r < cyl.r_cut):
        raise DomainError(f"need 0 <= r < r_cut = {cyl.r_cut}, got {r!r}")
    if not (cyl.t_cut < t < float(profile_height(cyl.spec, r))):
        raise DomainError(f"t = {t!r} outside (t_cut, f(r; R))")
    if not lam > cyl.R:
        raise DomainError(f"need lam > R = {cyl.R}, got {lam!r}")
    return float(_f(cyl.params, r, lam) - _f(cyl.params, cyl.r_cut, lam) + cyl.t_cut - t)


def _chord(cyl: CylinderSpec, r: np.ndarray, y):
    """(s_r, s_cut) and lam at the chord y = s_r - s_cut, s_rho = sqrt(lam^2 - rho^2), from
    Delta = (r_cut - r)(r_cut + r) = y (s_r + s_cut); lam^2 - rho^2 is never formed."""
    k = (cyl.r_cut - r) * (cyl.r_cut + r) / y
    s = np.stack((0.5 * (k + y), np.maximum(0.5 * (k - y), 0.0)))
    return s, np.sqrt(s[0] * s[0] + r * r)


def _leaf_terms(cyl: CylinderSpec, r: np.ndarray, w: np.ndarray, y):
    """(s_r, s_cut), (f(r; lam), f(r_cut; lam)) and dF/dy at the chord y; `w` stacks w(r), w(r_cut).
    f(rho; lam) = s_rho F/g and F' from `sphere._kernel` at g = s_rho, m = eps^3 w, q = p_rho;
    dF/dy = (s_r F'_cut - s_cut F'_r)/y, finite as s_cut -> 0; F_lam = -lam y dF/dy/(s_r s_cut)."""
    params = cyl.params
    s = _chord(cyl, r, y)[0]
    p = params.tau * params.epsilon * s / w
    f_over_s, dF = _kernel(s, params.epsilon**3 * w, params.sigma, p)
    return s, s * f_over_s, (s[0] * dF[1] - s[1] * dF[0]) / y


def _label_below(cyl: CylinderSpec, r: np.ndarray, t: np.ndarray):
    """Root lam > R of the leaf equation below the graph; also its chord and w(r), w(r_cut).

    Newton in the chord y (`_chord`), which falls from y_max at lam = R to 0 as lam -> inf.
    D(y) = f(r; lam) - f(r_cut; lam) is eps^3 times the integral of w over [s_cut, s_r] and
    w rises, so the root of D(y) = t - t_cut lies in [(t - t_cut)/(eps^3 w(r_cut)),
    (t - t_cut)/(eps^3 w(r))] and below y_max; at sigma = 0 that bracket is the root.  D is
    convex in y, so its slope at y = 0, eps^3 (2/3)(w_r^2 + w_r w_cut + w_cut^2)/(w_r + w_cut),
    gives a start above the root, and Newton descends without overshooting.  A point has
    converged when |F| is at the rounding level of its terms (far above one ulp of lam at
    deep points).  Labels are at least the float after R, within one ulp of the root when
    the point sits a rounding error below the graph.  NumericsError where lam^2 overflows.
    """
    R, r_cut = cyl.R, cyl.r_cut
    w = _omega(cyl.params, np.stack((r, np.full_like(r, r_cut))))
    rise = (t - cyl.t_cut) / cyl.params.epsilon**3
    both_R = np.sqrt((R - r) * (R + r)) + math.sqrt((R - r_cut) * (R + r_cut))  # s_r + s_cut at R
    hi = np.minimum(rise / w[0], (r_cut - r) * (r_cut + r) / both_R)  # and below y at lam = R
    lo = np.minimum(rise / w[1], hi)
    start = np.clip(1.5 * rise * (w[0] + w[1]) / (w[0] * w[0] + w[0] * w[1] + w[1] * w[1]), lo, hi)
    t_size = abs(cyl.t_cut) + np.abs(t)

    def residual(y):
        _, f, dF = _leaf_terms(cyl, r, w, y)
        F = f[0] - f[1] + cyl.t_cut - t
        scale = np.abs(f[0]) + np.abs(f[1]) + t_size
        return F, dF, np.abs(F) <= 16.0 * _ULP * scale

    with np.errstate(over="ignore"):  # lam^2 = s_r^2 + r^2 out of range: raised on below
        y = _newton(residual, start, lo, hi, np.zeros(r.shape, dtype=bool), "leaf label solve")
        lam = _chord(cyl, r, y)[1]
    if not np.all(np.isfinite(lam)):
        i = np.flatnonzero(~np.isfinite(lam))[0]
        raise NumericsError(
            f"the leaf label's square overflows at (r, t) = {float(r[i]), float(t[i])} with "
            f"eps = {cyl.params.epsilon!r}, sigma = {cyl.params.sigma!r}, R = {R!r}")
    return np.maximum(lam, np.nextafter(R, np.inf)), y, w


def _labels(cyl: CylinderSpec, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Leaf labels of 1-d arrays of cylinder points, both branches."""
    depth = _f(cyl.params, r, cyl.R) - t
    out = depth + cyl.R
    below = depth > 0.0
    if np.any(below):
        out[below] = _label_below(cyl, r[below], t[below])[0]
    return out


def leaf_label_grid(cyl: CylinderSpec, r, t) -> np.ndarray:
    """Leaf label u on arrays of cylinder points (vectorized)."""
    r, t = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    shape = r.shape
    r, t = r.ravel(), t.ravel()
    if np.any(r < 0.0) or np.any(r >= cyl.R) or np.any(t <= cyl.t_cut):
        raise DomainError("points must lie inside the half-cylinder")
    return _labels(cyl, r, t).reshape(shape)


def leaf_label(cyl: CylinderSpec, point: Point) -> float:
    """Leaf label u at a cylinder point; u = R exactly on the sphere,
    u > R strictly inside the enclosed region, u < R above the graph."""
    r = point.r
    if not cyl.contains(r, point.t):
        raise DomainError(f"point (r, t) = ({r}, {point.t}) is outside the half-cylinder")
    return float(_labels(cyl, np.array([r]), np.array([point.t]))[0])


def point_on_leaf(cyl: CylinderSpec, r: float, lam: float) -> Point:
    """A point of the leaf with label lam on the vertical line at radius r."""
    if not (0.0 <= r < cyl.r_cut):
        raise DomainError(f"need 0 <= r < r_cut, got {r!r}")
    params = cyl.params
    if lam > cyl.R:
        t = float(_f(params, r, lam) - _f(params, cyl.r_cut, lam) + cyl.t_cut)
    else:
        t = float(_f(params, r, cyl.R)) + (cyl.R - lam)
    return Point(r, 0.0, t)


def _field(cyl: CylinderSpec, x, y, t, above=None):
    """V as frame coefficients (n, 3) at 1-d arrays of points, and the mask of
    the points where it is taken: inside the half-cylinder and, where
    `above` is given, on its side of the sphere (t >= f(|z|; R) is above).
    Rows outside the mask are NaN.

    The label's gradient (u_r, u_t) is (f_r(r; R), -1) above the graph and, by the leaf
    equation, the leaf normal (f_r(r; lam), -1) over |F_lam| below it; V drops the length.
    """
    params, R = cyl.params, cyl.R
    e, s = params.epsilon, params.sigma
    r = _radius_of(x, y)
    ok = (r < R) & (t > cyl.t_cut)
    depth = np.zeros_like(r)
    depth[ok] = _f(params, r[ok], R) - t[ok]
    if above is not None:
        ok &= (depth <= 0.0) == above
    up, down = ok & (depth <= 0.0), ok & (depth > 0.0)
    u_r, u_t = np.zeros_like(r), np.full_like(r, -1.0)
    u_r[up] = _f_r(params, r[up], R)
    _, chord, w = _label_below(cyl, r[down], t[down])
    (s_r, _), _, dF = _leaf_terms(cyl, r[down], w, chord)
    if not np.all(dF > 0.0):  # F_lam = -lam y dF/dy / (s_r s_cut) < 0, unless rounding swallowed it
        i = np.flatnonzero(down)[~(dF > 0.0)][0]
        raise NumericsError(
            f"the leaf equation's lam-derivative is lost to rounding at (x, y, t) = "
            f"({float(x[i])!r}, {float(y[i])!r}, {float(t[i])!r}) "
            f"with eps = {e!r}, sigma = {s!r}, R = {R!r}")
    u_r[down] = -(e**3) * r[down] * w[0] / s_r  # f_r(r; lam)
    r_safe = np.where(r > 0.0, r, 1.0)  # x = y = 0 where r = 0
    g = np.stack(((u_r * x / r_safe + s * y * u_t) / e,
                  (u_r * y / r_safe - s * x * u_t) / e,
                  e * e * u_t), axis=-1)
    v = -g / np.sqrt(np.sum(g * g, axis=-1))[:, None]
    v[~ok] = np.nan
    return v, ok


def calibration_field(cyl: CylinderSpec, point: Point) -> TangentVector:
    """Unit field V = -grad(u)/|grad(u)|, continuous on the half-cylinder;
    on the sphere V equals the outward normal."""
    v, ok = _field(cyl, *point.as_array()[:, None])
    if not ok[0]:
        raise DomainError("point is outside the half-cylinder")
    return TangentVector.from_array(v[0])


def _divergence(cyl: CylinderSpec, x, y, t, h: float):
    """(div V, label, mask) at 1-d arrays of points, by central differences
    of V's coordinate components with step h.  The mask keeps the points
    farther than 3h from the sphere whose stencil stays inside the
    half-cylinder on their own side of the sphere; the rest are NaN.
    """
    params, R = cyl.params, cyl.R
    e, s = params.epsilon, params.sigma
    r = _radius_of(x, y)
    f_here = _f(params, np.minimum(r, R), R)
    steps = h * np.concatenate((np.eye(3), -np.eye(3)))
    px, py, pt = (np.stack((x, y, t), axis=-1)[:, None, :] + steps).reshape(-1, 3).T
    v, ok = _field(cyl, px, py, pt, np.repeat(t >= f_here, 6))
    ok = ok.reshape(-1, 6).all(axis=1) & (np.abs(t - f_here) > 3.0 * h)
    # coordinate components of V; the i-th is differenced along the i-th axis
    coords = np.stack((v[:, 0] / e, v[:, 1] / e,
                       s * (py * v[:, 0] - px * v[:, 1]) / e + e * e * v[:, 2]), axis=-1)
    coords = coords.reshape(-1, 6, 3)
    div = sum((coords[:, i, i] - coords[:, i + 3, i]) / (2.0 * h) for i in range(3))
    lam = np.full_like(r, np.nan)
    lam[ok] = _labels(cyl, r[ok], t[ok])
    return np.where(ok, div, np.nan), lam, ok


def calibration_divergence(
    cyl: CylinderSpec,
    point: Point,
    step: float | None = None,
) -> tuple[float, float]:
    """(div V, H_label) at a cylinder point off the sphere.

    The divergence is the coordinate divergence of V's coordinate
    components by central differences (the Riemannian volume is the
    Lebesgue measure, so the two divergences agree); H_label is
    1/(eps*label) on the inside leaves and 1/(eps*R) on and above the
    sphere.  The stencil must not cross the sphere or leave the cylinder.
    NumericsError where the leaf equation is lost to rounding, as deep
    inside a sphere with eps^3 R far above the depth.
    """
    h = step if step is not None else 1e-5 * cyl.R
    try:
        div, lam, ok = _divergence(cyl, *point.as_array()[:, None], h)
    except NumericsError as exc:
        raise NumericsError(f"calibration divergence at {point}: {exc}") from None
    if not ok[0]:
        raise DomainError("stencil meets the sphere or leaves the half-cylinder")
    return float(div[0]), 1.0 / (cyl.params.epsilon * max(float(lam[0]), cyl.R))


def label_floor(cyl: CylinderSpec, depth):
    """Lower bound on 1 - R/label at `depth` below the graph (broadcasts).

    Quadratic for delta = 0, depth^2 / (4 R k^2 + f(0;R)^2); linear for
    delta > 0, sqrt(delta) * depth / (R k + f(0;R)).
    """
    k = foliation_constants(cyl.spec).k
    f0 = float(profile_height(cyl.spec, 0.0))
    if cyl.delta < 1e-14:
        return depth * depth / (4.0 * cyl.R * k**2 + f0 * f0)
    return math.sqrt(cyl.delta) * depth / (cyl.R * k + f0)


def vertical_label_bound(cyl: CylinderSpec, r: float, depth: float) -> VerticalBound:
    """Label g(depth) = u(r, f(r;R) - depth) with its explicit lower bound
    `label_floor`."""
    f_here = float(_f(cyl.params, r, cyl.R))
    if not (0.0 <= depth < f_here - cyl.t_cut):
        raise DomainError(f"depth must lie in [0, f(r;R) - t_cut), got {depth!r}")
    if not (0.0 <= r < cyl.r_cut):
        raise DomainError(f"need 0 <= r < r_cut, got {r!r}")
    t = f_here - depth
    g = leaf_label(cyl, Point(r, 0.0, t)) if depth > 0.0 else cyl.R
    floor = label_floor(cyl, depth)
    deficit = 1.0 - cyl.R / g
    return VerticalBound(
        label=g,
        deficit=deficit,
        floor=floor,
        satisfied=bool(deficit + 1e-12 >= floor),
    )
