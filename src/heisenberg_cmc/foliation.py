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
unit gradient V = -grad(u)/|grad(u)| is the outward unit normal of the
leaf through each point, the family's closed form (`_field`, as for
`foliation_normal`).  It is continuous on C, equals the outward sphere
normal on the sphere itself, and has
(1/2) div V = H_lam <= 1/(eps R) with H_lam = 1/(eps lam) for lam > R.
The growth of the label along vertical segments below the graph carries
the explicit lower bounds used by the quantitative isoperimetric
inequality; `vertical_label_bound` checks them pointwise.
"""

from __future__ import annotations

import math

import numpy as np

from ._numerics import _ULP, _divide, _newton, _power, _require_finite, _unit
from .ambient import ModelParams, Point, TangentVector, _Record
from .errors import DomainError, NumericsError
from .sphere import (SphereSpec, _f, _gap, _height, _kernel, _mass, _normal_components, _radius_of,
                     _Stack, profile_height)

__all__ = [
    "CylinderSpec",
    "FoliationConstants",
    "VerticalBound",
    "foliation_constants",
    "leaf_label",
    "leaf_label_grid",
    "calibration_field",
    "calibration_divergence",
    "label_floor",
    "vertical_label_bound",
]


class CylinderSpec(_Record):
    """Half-cylinder over the disk of radius R above t_cut = f(r_cut; R), r_cut = R - delta."""

    __slots__ = ("spec", "delta", "r_cut", "t_cut")

    def __init__(self, spec: SphereSpec, delta: float) -> None:
        if not (0.0 <= delta < spec.R):
            raise DomainError(f"delta must lie in [0, R), got {delta!r}")
        delta = float(delta)
        _Record.__init__(self, spec, delta, spec.R - delta, float(_height(spec, spec.R - delta)))

    @property
    def params(self) -> ModelParams:
        return self.spec.params

    @property
    def R(self) -> float:
        return self.spec.R

    def contains(self, r: float, t: float) -> bool:
        return 0.0 <= r < self.R and t > self.t_cut


class FoliationConstants(_Record):
    """Explicit constants k, C, D (floats) of the quantitative isoperimetric bounds."""

    __slots__ = ("k", "C", "D")


class VerticalBound(_Record):
    """Leaf label below the graph at depth t, with its lower-bound check: the deficit
    1 - R/label = 1 - eps R H_label, the applicable quadratic/linear floor and whether it holds."""

    __slots__ = ("label", "deficit", "floor", "satisfied")


def _k_f0(spec: SphereSpec, f0: float | None = None) -> tuple[float, float]:
    """k = m(R) sqrt(R) = eps^3 w(R) sqrt(R) and f(0; R), which build every deficit constant; a
    caller that holds f(0; R) passes it as `f0`."""
    k = _mass(spec.params, spec.R) * math.sqrt(spec.R)
    return k, float(profile_height(spec, 0.0)) if f0 is None else f0


def foliation_constants(spec: SphereSpec) -> FoliationConstants:
    """k = m(R) sqrt(R) and the two deficit constants built from it and f(0; R)."""
    e, R = spec.params.epsilon, spec.R
    k, f0 = _k_f0(spec)
    # R^3, R^5 overflow above R ~ 5.6e102, 1.4e61; D overflows below R ~ 3.7e-45 at eps = sigma = 1
    R3, R5 = (_power(R, n, spec.params, "a deficit constant", R=R) for n in (3, 5))
    c = _divide(1.0, 4.0 * math.pi * e * R3 * (R * k + f0))
    d = _divide(1.0, 12.0 * e * math.pi**2 * R5 * (4.0 * R * k * k + f0 * f0))
    _require_finite((c, d), spec.params, "a deficit constant", R=R)
    return FoliationConstants(k=k, C=c, D=d)


def _chord_at(cyl: CylinderSpec, r: np.ndarray, lam):
    """The chord y = s_r - s_cut at the label lam (`_chord`), (r_cut - r)(r_cut + r)/(s_r + s_cut),
    in units of R (`_unit`)."""
    u = _unit(cyl.R)
    r, r_cut, lam = r / u, cyl.r_cut / u, lam / u
    both = np.sqrt((lam - r) * (lam + r)) + np.sqrt((lam - r_cut) * (lam + r_cut))
    return (r_cut - r) * (r_cut + r) / both * u


def _chord(cyl: CylinderSpec, r: np.ndarray, y):
    """(s_r, s_cut) at the chord y = s_r - s_cut, s_rho = sqrt(lam^2 - rho^2), from
    Delta = (r_cut - r)(r_cut + r) = y (s_r + s_cut) in units of R (`_unit`); lam^2 - rho^2 is
    never formed, and lam = sqrt(s_r^2 + r^2)."""
    u = _unit(cyl.R)
    r, r_cut = r / u, cyl.r_cut / u
    k = (r_cut - r) * (r_cut + r) / (y / u) * u
    return 0.5 * (k + y), np.maximum(0.5 * (k - y), 0.0)


def _leaf_terms(cyl: CylinderSpec, r: np.ndarray, m: np.ndarray, y):
    """(s_r, s_cut), (f(r; lam), f(r_cut; lam)) and dF/dy at the chord y; `m` stacks m(r), m(r_cut).
    dF/dy = (s_r F'_cut - s_cut F'_r)/y, finite as s_cut -> 0; F_lam = -lam y dF/dy/(s_r s_cut)."""
    s, sigma = np.stack(_chord(cyl, r, y)), cyl.params.sigma
    f_over_s, dF = _kernel(s, m, sigma, _divide(sigma * s, m))  # m(0) = 0 where eps^3 underflows
    return s, s * f_over_s, (s[0] * dF[1] - s[1] * dF[0]) / y


def _residual(cyl: CylinderSpec, r: np.ndarray, t: np.ndarray, m: np.ndarray, y):
    """F = f(r; lam) - f(r_cut; lam) + t_cut - t and dF/dy at the chord y, and whether |F| is at
    the rounding level of its terms, 16 ulp of their size, where `_label_below` stops."""
    _, (f_r, f_cut), dF = _leaf_terms(cyl, r, m, y)
    F = f_r - f_cut + cyl.t_cut - t
    scale = np.abs(f_r) + np.abs(f_cut) + (abs(cyl.t_cut) + np.abs(t))
    return F, dF, np.abs(F) <= 16.0 * _ULP * scale


def _label_below(cyl: CylinderSpec, r: np.ndarray, t: np.ndarray):
    """Root lam > R of the leaf equation below the graph; also its chord and m(r), m(r_cut).

    Newton in the chord y (`_chord`), which falls from y_max at lam = R to 0 as lam -> inf.
    D(y) = f(r; lam) - f(r_cut; lam) is the integral of m over [s_cut, s_r] and m rises, so
    the root of D(y) = t - t_cut lies in [(t - t_cut)/m(r_cut), (t - t_cut)/m(r)] and below
    y_max; at sigma = 0 that bracket is the root.  D is convex in y: its tangent at y_max bounds
    the label (`_label_bound`), and its slope at y = 0, (2/3)(m_r^2 + m_r m_cut + m_cut^2)/(m_r +
    m_cut), gives a start above the root, from which Newton descends without overshooting (in
    u = m_r/m_cut, so a rise of the least float rounds onto the low end).  A point has converged
    when |F| is at the rounding level of its terms (far above one ulp of lam at deep points).
    Labels are at least the float after R, within one ulp of the root when the point sits a
    rounding error below the graph.  NumericsError where lam^2 overflows.  `cyl`'s r_cut and
    t_cut may be arrays like r (`_labels`).
    """
    R, r_cut = cyl.R, cyl.r_cut
    m = _mass(cyl.params, np.stack((r, np.full_like(r, r_cut))))
    u = m[0] / m[1]
    rise = (t - cyl.t_cut) / m[1]
    hi = np.minimum(_divide(rise, u), _chord_at(cyl, r, R))  # below y at lam = R; m(0) may be 0
    lo = np.minimum(rise, hi)
    start = np.clip(rise * (1.5 * (u + 1.0) / (u * u + u + 1.0)), lo, hi)
    with np.errstate(over="ignore"):  # lam^2 = s_r^2 + r^2 out of range: raised on below
        y = _newton(lambda y: _residual(cyl, r, t, m, y), start, lo, hi,
                    np.zeros(r.shape, dtype=bool), "leaf label solve")
        unit = _unit(R)
        s_r, r_u = _chord(cyl, r, y)[0] / unit, r / unit
        lam = np.sqrt(s_r * s_r + r_u * r_u) * unit
    i = np.flatnonzero(~np.isfinite(lam))[:1]  # the first label lost, if one is
    _require_finite(lam, cyl.params, "the leaf label at (r, t) = ({}, {})", *r[i], *t[i], R=R)
    return np.maximum(lam, np.nextafter(R, np.inf)), y, m


def _points(cyl: CylinderSpec, r: np.ndarray, t: np.ndarray, mask):
    """The points `mask` picks from t's shape: their cylinders' flat columns (a float stays one)."""
    vs = (cyl.params.epsilon, cyl.params.sigma, cyl.R, cyl.r_cut, cyl.t_cut, r)
    e, s, R, r_cut, t_cut, r = (np.broadcast_to(v, t.shape)[mask] if np.ndim(v) else v for v in vs)
    return _Stack(params=_Stack(epsilon=e, sigma=s), R=R, r_cut=r_cut, t_cut=t_cut), r, t[mask]


def _labels(cyl: CylinderSpec, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Leaf labels of cylinder points, both branches, of t's shape: r, r_cut, t_cut, R, eps and
    sigma (floats, or a `_Stack`'s columns for the cylinders of one or more spheres) broadcast to
    it, as (c, n, 1) radii to (c, n, n) heights; the points below the graph go to one solve."""
    if (r < 0.0).any() or (r >= cyl.R).any() or (t <= cyl.t_cut).any():
        raise DomainError("points must lie inside the half-cylinder")
    depth = _f(cyl.params, r, cyl.R) - t
    out = depth + cyl.R
    if np.any(below := depth > 0.0):
        out[below] = _label_below(*_points(cyl, r, t, below))[0]
    return out


def _label_bound(cyl: CylinderSpec, r: np.ndarray, t: np.ndarray, f: np.ndarray):
    """A lower bound on each label, one Newton step from the sphere, and an allowance for its
    rounding in 1 - R/label, at points inside the cylinder (unchecked); r, f = f(r; R) and `cyl`
    broadcast to t's shape, as in `_labels`.
    D(y) = f(r; lam) - f(r_cut; lam) is convex in the chord y (`_label_below`), so the label's
    chord is at most y = y_max - q, q = depth/D', where D's tangent at y_max (lam = R) meets
    t - t_cut.  As 1 - R/lam moves by at most 1/y a unit of y, the allowance is y's error over y:
    32 ulp of y_max and of f(r; R)/D', and 128 ulp of q S/D', S = s_r (m_r + m_cut + 2 |sigma|
    (s_r + s_cut))/y_max >= the size of the terms of D'.  On and above the graph it is the label
    (masked stores); the full-size passes write into five buffers (`out=`)."""
    depth = f - t
    m = _mass(cyl.params, np.stack((r, np.full_like(r, cyl.r_cut))))
    with np.errstate(all="ignore"):  # allowance inf or NaN where D' or y is not positive
        s, _, slope = _leaf_terms(cyl, r, m, y_max := _chord_at(cyl, r, cyl.R))
        a = np.where((0.0 < slope) & (slope < np.inf), 32.0 * _ULP * (y_max + f / slope), np.inf)
        size = s[0] * (m[0] + m[1] + 2.0 * np.abs(cyl.params.sigma) * (s[0] + s[1])) / y_max
        y = y_max - (q := depth / slope)
        r_u, lam = r / (u := _unit(cyl.R)), y / u  # y in units of R, then the label in its buffer
        s_r = np.divide((cyl.r_cut / u - r_u) * (cyl.r_cut / u + r_u), lam)  # `_chord`'s s_r
        np.multiply(np.add(s_r, lam, out=s_r), 0.5, out=s_r)
        np.sqrt(np.add(np.multiply(s_r, s_r, out=lam), r_u * r_u, out=lam), out=lam)
        lam *= u  # as in `_label_below`, in units of R
        allowance = np.add(np.multiply(q, 128.0 * _ULP * size / slope, out=q), a, out=q)
        allowance /= np.maximum(y, 0.0, out=y)
    np.add(depth, cyl.R, out=lam, where=(on := ~(depth > 0.0)))
    np.copyto(allowance, 0.0, where=on)
    return lam, allowance


def leaf_label_grid(cyl: CylinderSpec, r, t) -> np.ndarray:
    """Leaf label u on arrays of cylinder points (vectorized)."""
    r, t = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    return _labels(cyl, r.ravel(), t.ravel()).reshape(r.shape)


def leaf_label(cyl: CylinderSpec, point: Point) -> float:
    """Leaf label u at a cylinder point; u = R exactly on the sphere,
    u > R strictly inside the enclosed region, u < R above the graph."""
    r = point.r
    if not cyl.contains(r, point.t):
        raise DomainError(f"point (r, t) = ({r}, {point.t}) is outside the half-cylinder")
    return float(_labels(cyl, np.array([r]), np.array([point.t]))[0])


def _field(cyl: CylinderSpec, x, y, t, above=None):
    """V as frame coefficients (n, 3) at 1-d arrays of points, the leaf parameter lam (R on and
    above the graph) and the mask of the points where they are taken: inside the half-cylinder
    and, where `above` is given, on its side of the sphere (t >= f(|z|; R) is above).  Rows
    outside the mask are NaN.

    V is the outward unit normal of the leaf through the point, an upper hemisphere's graph
    shifted down (`sphere._normal_components` with t > 0): on and above the graph the sphere R's,
    g = sqrt(R^2 - r^2), and below it the sphere lam's, g = s_r and m(r) from the label solve.
    """
    params, R = cyl.params, cyl.R
    r = _radius_of(x, y)
    ok = (r < R) & (t > cyl.t_cut)
    depth = np.zeros_like(r)
    depth[ok] = _f(params, r[ok], R) - t[ok]
    if above is not None:
        ok &= (depth <= 0.0) == above
    up, down = ok & (depth <= 0.0), ok & (depth > 0.0)
    lam, g, m = np.full_like(r, R), np.ones_like(r), np.ones_like(r)  # rows off `ok` are NaN'd
    g[up], m[up] = _gap(r[up], R), _mass(params, r[up])
    lam[down], chord, m_below = _label_below(cyl, r[down], t[down])
    s, _, dF = _leaf_terms(cyl, r[down], m_below, chord)
    g[down], m[down] = s[0], m_below[0]
    if not np.all(dF > 0.0):  # F_lam = -lam y dF/dy / (s_r s_cut) < 0, unless rounding swallowed it
        i = np.flatnonzero(down)[~(dF > 0.0)][0]
        raise NumericsError(
            f"the leaf equation's lam-derivative is lost to rounding at (x, y, t) = "
            f"({float(x[i])!r}, {float(y[i])!r}, {float(t[i])!r}) "
            f"with eps = {params.epsilon!r}, sigma = {params.sigma!r}, R = {R!r}")
    v = _normal_components(params, x, y, np.ones_like(r), lam, g, m)
    v[~ok], lam[~ok] = np.nan, np.nan
    return v, lam, ok


def calibration_field(cyl: CylinderSpec, point: Point) -> TangentVector:
    """Unit field V = -grad(u)/|grad(u)|, continuous on the half-cylinder: the closed-form outward
    normal of the leaf through the point (`_field`), so on the sphere the outward normal, and
    sgn(t) T = T on the axis."""
    v, _, ok = _field(cyl, *point.as_array()[:, None])
    if not ok[0]:
        raise DomainError("point is outside the half-cylinder")
    return TangentVector.from_array(v[0])


def _divergence(cyl: CylinderSpec, x, y, t, h: float):
    """(div V, label, mask) at 1-d arrays of points, by central differences of V's coordinate
    components with step h.  The label is the leaf parameter lam (R on and above the graph) that
    `_field` solves for at the point itself, a 7th stencil row placed last, so that a stencil
    point's lost derivative is the error reported.  The mask keeps the points farther than 3h from
    the sphere whose stencil stays inside the half-cylinder on their own side of the sphere; the
    rest are NaN."""
    params, R = cyl.params, cyl.R
    e, s = params.epsilon, params.sigma
    r = _radius_of(x, y)
    f_here = _f(params, np.minimum(r, R), R)
    steps = h * np.concatenate((np.eye(3), -np.eye(3), np.zeros((1, 3))))
    px, py, pt = (np.stack((x, y, t), axis=-1)[:, None, :] + steps).reshape(-1, 3).T
    v, lam, ok = _field(cyl, px, py, pt, np.repeat(t >= f_here, 7))
    ok = ok.reshape(-1, 7).all(axis=1) & (np.abs(t - f_here) > 3.0 * h)
    # coordinate components of V; the i-th is differenced along the i-th axis
    coords = np.stack((v[:, 0] / e, v[:, 1] / e,
                       s * (py * v[:, 0] - px * v[:, 1]) / e + e * e * v[:, 2]), axis=-1)
    coords = coords.reshape(-1, 7, 3)
    div = sum((coords[:, i, i] - coords[:, i + 3, i]) / (2.0 * h) for i in range(3))
    return np.where(ok, div, np.nan), np.where(ok, lam[6::7], np.nan), ok


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
    return float(div[0]), 1.0 / (cyl.params.epsilon * float(lam[0]))


def label_floor(cyl: CylinderSpec, depth):
    """Lower bound on 1 - R/label at `depth` below the graph (broadcasts).

    Quadratic for delta = 0, depth^2 / (4 R k^2 + f(0;R)^2); linear for
    delta > 0, sqrt(delta) * depth / (R k + f(0;R)).  NumericsError where it is not finite, as
    where f(0;R) underflows to 0.
    """
    return _floor(cyl.spec, cyl.delta, depth, *_k_f0(cyl.spec))


def _floor(spec: SphereSpec, delta: float, depth, k: float, f0: float):
    """`label_floor` of the cylinder (spec, delta) from the sphere's k and f(0; R) (`_k_f0`),
    which a caller may hold."""
    # depth, R and f(0;R) in units of u, k in its square root; the quadratic floor's u is f(0;R),
    # so that its terms stay near 1 (R m(R) <= (1 + 4/pi) f0) where eps^3 = 1e-240 at sigma = 0
    u = _unit(f0 if delta == 0.0 else spec.R)
    d, R, k, f0 = depth / u, spec.R / u, k / math.sqrt(u), f0 / u
    if delta == 0.0:
        floor = _divide(d * d, 4.0 * R * k**2 + f0 * f0)
    else:
        floor = _divide(math.sqrt(delta / u) * d, R * k + f0 / math.sqrt(u))
    return _require_finite(floor, spec.params, "the label floor", R=spec.R)


def _check_calibration(spheres, deltas=(0.0, 0.3), n: int = 40) -> float:
    """`verify`'s calibration check: the worst shortfall of 1 - R/label below the label floor on an
    n x n grid under the sphere in each cylinder of a SphereSpec or of each `_Stack` member, the
    rows of a radius column at depths frac_j (f(r; R) - t_cut), j < n.  One `_height` pass over the
    radii of every cylinder, 0 first, and r_cut gives f(r; R), f(0; R) and t_cut.  Then 27
    cylinders a block: r (cylinders, n, 1) and R, eps, sigma, r_cut, t_cut as a `_Stack`'s
    (cylinders, 1, 1) columns (one sphere's floats), so that a block's (cylinders, n, groups)
    arrays stay under glibc's 128 KiB mmap threshold.  A column's heights fall with depth, so the
    guard on normal heights reads its ends.

    Each column's rows fall in depth groups s..e, e = min(3s // 2, n - 1), rows 0 and 1 alone.  A
    group is certified where the label bound (`_label_bound`) at its shallowest row s clears the
    floor at its deepest row e by the allowance at s.  Then each of its rows has a slack >= 0 and
    cannot be the worst: the label grows with depth, as F falls in lam and in t; `_floor` grows
    with depth under rounding too, its operations being monotone; and the allowance covers the
    bound at s, whatever floor is subtracted from it.  The group's slack is row s's against the
    floor at e, so the depth-0 group keeps its slack of exactly 0.  Why 1.5: at delta = 0 the
    floor is quadratic in the depth and 1 - R/label is at least 2.37 floors on the check's grids,
    so the test holds while e/s < sqrt(2.37).  The rows of the other groups are bounded point by
    point, and the points that their bound does not settle are solved, in one `_labels` call over a
    flat subset."""
    members, worst, fracs = getattr(spheres, "members", [spheres]), [], np.linspace(0.0, 0.999, n)
    starts = [0]
    while (s := 3 * starts[-1] // 2 + 1) < n:
        starts.append(s)
    ends = [min(3 * s // 2, n - 1) for s in starts]
    cuts = [(spec, float(delta)) for spec in members for delta in deltas if delta < spec.R]
    cyls = _Stack(members=[spec for spec, _ in cuts], shape=(-1, 1, 1))
    cyls.r_cut = np.reshape([spec.R - delta for spec, delta in cuts], (-1, 1, 1))
    r_all = np.linspace(0.0, 0.995 * cyls.r_cut[:, 0, 0], n, axis=-1)[..., None]
    f_all = _height(cyls, np.concatenate((r_all, cyls.r_cut), axis=1))
    for lo in range(0, len(cuts), 27):
        hi = lo + 27
        block = _Stack(members=cyls.members[lo:hi], shape=(-1, 1, 1), r_cut=cyls.r_cut[lo:hi])
        rs, f_rs, block.t_cut = r_all[lo:hi], f_all[lo:hi, :n], f_all[lo:hi, n:]
        ts, depths = f_rs - fracs[starts] * (span := f_rs - block.t_cut), fracs[ends] * span
        deepest, floors = f_rs[..., 0] - depths[..., -1], []
        normal = np.minimum(ts[..., 0], deepest).min(axis=1) >= np.finfo(float).tiny
        for (spec, delta), ok, depth, f in zip(cuts[lo:hi], normal, depths, f_rs):
            if not ok:  # f is subnormal, a height rounds onto t_cut
                p = spec.params
                raise NumericsError(f"the calibration grid's heights are not normal floats with "
                                    f"eps = {p.epsilon!r}, sigma = {p.sigma!r}, R = {spec.R!r}")
            floors.append(_floor(spec, delta, depth, *_k_f0(spec, float(f[0, 0]))))
        lam, allowance = _label_bound(block, rs, ts, f_rs)
        slack = np.subtract(1.0, slack := np.divide(block.R, lam), out=slack)
        slack -= np.array(floors)
        if (open_ := ~(slack >= allowance)).any():  # NaN decides nothing
            rows = np.repeat(open_, np.diff([*starts, n]), axis=-1)  # the open groups' rows
            depths = fracs * span
            floor = np.array([_floor(spec, delta, d, *_k_f0(spec, float(f[0, 0])))
                              for (spec, delta), d, f in zip(cuts[lo:hi], depths, f_rs)])[rows]
            cyl, r, t = _points(block, rs, f_rs - depths, rows)
            lam, allowance = _label_bound(cyl, r, t, np.broadcast_to(f_rs, rows.shape)[rows])
            each = (1.0 - cyl.R / lam) - floor
            if (unsettled := ~(each >= allowance)).any():
                cyl, r, t = _points(cyl, r, t, unsettled)
                each[unsettled] = (1.0 - cyl.R / _labels(cyl, r, t)) - floor[unsettled]
            worst.append(float(-each.min()))
            slack[open_] = np.inf
        worst += (-slack.min(axis=(1, 2))).tolist()
    return max(worst)


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
