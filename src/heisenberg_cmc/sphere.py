"""The rotationally symmetric constant-mean-curvature spheres.

For each R > 0 the sphere is the set |t| = f(|z|; R) with profile

    f(r; R) = (1 / 2 sigma) [ m(R)^2 arctan(p) + m(r)^2 p ],
    m(r)    = hypot(eps^3, sigma r) = eps^3 w(r),   w(r) = sqrt(1 + tau^2 eps^2 r^2),
    p(r; R) = sigma g / m(r),   g = sqrt(R^2 - r^2) = sqrt(R - r) sqrt(R + r),

mean curvature H = 1/(eps R), and eps*H*R = 1.  w and tau = sigma/eps^4 overflow as eps -> 0,
m and p do not: this layer takes (eps^3, sigma) alone.  The family foliates R^3 minus the
origin, which defines the radius field R(r, t) and the outward foliation normal used throughout
the package.  With b = sigma R/eps^3, the area is 2 pi R^2 [eps^2 (1 + atanc b) + (sigma R/eps)
arctan b] and the volume 2 pi eps^3 R^3 J(|b|), J(b) = 3/8 + 1/(8 b^2) + arctan(b) (3b + 2/b -
1/b^3)/8, or its series below |b| = 0.1.

The profile formula: in g, f and Pansu's sub-Riemannian profile (sigma/2)[R^2 acos(r/R) + r g]
are one function, evaluated by `_kernel` alone,

    F(g; m, s, q) = (g/2) [ m (1 + atanc q) + s g arctan q ],  s g = m q,  F'(g) = m + s g arctan q,

f at m = m(r), s = sigma, q = p and Pansu's at m = sigma r, s = sigma, q = g/r (atanc q =
arctan(q)/q; so f is Pansu's profile at radii hypot(r, c), hypot(R, c), c = eps^3/|sigma|).
F is finite through sigma = 0 (F = m g) and on Pansu's axis (q = inf); f_r = -r m(r)/g and
f_R = R F'/g.  F = (m^2/2s) phi(q), phi(q) = q + (1 + q^2) arctan q, so both radius solves are
one Newton in g on phi(q) = 2 s |t|/m^2 from next to its root (`_gap_solve`, `_start`), and all
profile helpers broadcast over numpy arrays.  Their spec type is `_Stack`: k spheres as (k, 1)
columns, one sphere as that sphere's own floats, or a cylinder's columns.

One point stays on Python floats, by the same expressions.  numpy stays where a float raises
or rounds differently: `_numerics._divide` where a divisor can be 0 (m = 0 on the axis where
eps^3 underflows) and np.arctan (math.atan misses the last bit on 0.08% of inputs); hypot is
libm's (`_hypot`).  eps^3 is e*e*e, which overflows to inf where eps**3 would raise.  A value lost
to the floats raises `_numerics._require_finite`'s NumericsError, the package's one policy for it.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from ._numerics import _divide, _newton, _power, _require_finite
from .ambient import ModelParams, Point, TangentVector, _Record, _set
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
_TINY, _FLOAT_MAX = float(np.finfo(float).tiny), float(np.finfo(float).max)
# J(b) = int_0^(pi/2) sin^3 sqrt(1 + b^2 sin^2) dphi = 2/3 + 4b^2/15 - ...: b^16 to b^0 terms
_J_SERIES = (-6 / 1615, 16 / 3315, -14 / 2145, 4 / 429, -10 / 693, 8 / 315, -2 / 35, 4 / 15, 2 / 3)


class SphereSpec(_Record):
    """One sphere of the family: parameters plus its radius parameter R."""

    __slots__ = ("params", "R")

    def __init__(self, params: ModelParams, R: float) -> None:
        if not (math.isfinite(R) and R > 0.0):
            raise DomainError(f"R must be positive and finite, got {R!r}")
        _set(self, "params", params)
        _set(self, "R", float(R))

    @property
    def H(self) -> float:
        """Mean curvature; eps * H * R = 1.  NumericsError where eps R underflows."""
        return _require_finite(_divide(1.0, self.params.epsilon * self.R), self.params,
                               "the mean curvature 1/(eps R)", R=self.R)


class ProfileQuantities(_Record):
    """Pointwise profile data at radius r on the sphere of parameter R: floats."""

    __slots__ = ("omega_r", "p", "ell", "rho")


class RadiusField(_Record):
    """Radius R(r, t) of the sphere through (r, t) and its partials."""

    __slots__ = ("value", "R_r", "R_t")

    def __init__(self, value: float, R_r: float, R_t: float) -> None:
        _set(self, "value", value)
        _set(self, "R_r", R_r)
        _set(self, "R_t", R_t)


class _Stack(SimpleNamespace):
    """The array core's spec type.  `_Stack(members=specs)` is k spheres as one: an attribute is the
    (k, 1) column of the members' own floats, each worked out once, and `params` the stack of their
    ModelParams; members that are all one object give its own value, so one sphere stays its floats,
    which broadcast alike and which errors print.  `shape=(-1, 1, 1)` makes the columns (k, 1, 1).
    Given columns, as `_Stack(R=..., r_cut=...)`, a stack is those columns."""

    shape = (-1, 1)

    def __getattr__(self, name: str):
        if name == "members":  # a stack of columns has none
            raise AttributeError(name)
        values = [getattr(m, name) for m in self.members]
        col = (values[0] if all(m is self.members[0] for m in self.members)
               else _Stack(members=values, shape=self.shape) if name == "params"
               else np.reshape(values, self.shape))
        setattr(self, name, col)
        return col


# ----------------------------------------------------------------- internals


def _arctan(q):
    """np.arctan, a float on a float (math.atan differs from it in the last bit)."""
    a = np.arctan(q)
    return a if isinstance(a, np.ndarray) else float(a)


def _hypot(a, b):
    """libm's hypot: np.hypot on arrays, abs(complex) on floats (3x faster), inf on overflow."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.hypot(a, b)
    try:
        return abs(complex(a, b))
    except OverflowError:
        return math.inf


def _mass(params: ModelParams, r):
    """m(r) = eps^3 w(r) = hypot(eps^3, sigma r); NumericsError where eps^3 (eps above about
    5.6e102) or m(r) overflows.  A float takes abs(complex), as `_hypot` does, inlined."""
    e = params.epsilon
    e3, sr = _require_finite(e * e * e, params, "eps^3"), params.sigma * r
    if isinstance(sr, np.ndarray):
        with np.errstate(over="ignore"):
            return _require_finite(np.hypot(e3, sr), params, "m(r)")
    try:
        return abs(complex(e3, sr))
    except OverflowError:
        return _require_finite(math.inf, params, "m(r)")


def _atanc(p, atan_p=None):
    """arctan(p)/p, continuous with value 1 at p = 0; `atan_p` is arctan(p)
    when the caller has it already.  Below |p| = 1e-8 the series 1 - p^2/3 rounds to 1."""
    if not isinstance(p, np.ndarray):
        return 1.0 if abs(p) < 1e-8 else (_arctan(p) if atan_p is None else atan_p) / p
    small, safe = np.abs(p) < 1e-8, p.copy()  # masked stores, a third of np.where's cost
    safe[small] = 1.0
    out = (np.arctan(safe) if atan_p is None else atan_p) / safe  # atan_p is masked where small
    out[small] = 1.0
    return out


def _ell(p, atan_p=None):
    return 1.0 / (1.0 + p * (_arctan(p) if atan_p is None else atan_p))


def _gap(r, R):
    """g = sqrt(R^2 - r^2) as sqrt(R - r) sqrt(R + r), which squares neither; R - r is
    clamped at 0 (tiny negatives from roundoff are clipped)."""
    d = R - r
    sq, d = (np.sqrt, np.maximum(d, 0.0)) if isinstance(d, np.ndarray) else (math.sqrt, max(d, 0.0))
    return sq(d) * sq(R + r)


def _pieces(params: ModelParams, r, R):
    """g, m(r) and p(r; R) = g (sigma/m), which the profile kernels share."""
    g, m = _gap(r, R), _mass(params, r)
    return g, m, g * _divide(params.sigma, m)


def _kernel(g, m, s, q, atan_q=None):
    """F/g and F'(g) of the profile formula F(g; m, s, q) (module docstring); `atan_q` is
    arctan(q) when the caller has it already."""
    a = _arctan(q) if atan_q is None else atan_q
    sga = s * g * a
    return 0.5 * (m * (1.0 + _atanc(q, a)) + sga), m + sga


def _profile(params: ModelParams, r, R):
    """g and the kernel's F/g and F' for f(r; R): m = m(r), q = p(r; R)."""
    g, m, p = _pieces(params, r, R)
    return (g, *_kernel(g, m, params.sigma, p))


def _f(params: ModelParams, r, R):
    g, f_over_g, _ = _profile(params, r, R)
    return g * f_over_g


def _f_r(params: ModelParams, r, R):
    return -np.asarray(r, dtype=float) * _mass(params, r) / _gap(r, R)


def _check_profile_domain(R: float, r, *, closed: bool) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    # the largest float where R (1 + 1e-12) overflows, or R is NaN (min keeps its first argument)
    hi = min(_FLOAT_MAX, R * (1.0 + _DOMAIN_RTOL) if closed else R * (1.0 - 1e-15))
    if not (ok := (r >= 0.0) & (r <= hi)).all():  # one mask: NaN and +-inf fail both ways
        kind, first = "[0, R]" if closed else "[0, R)", float(r.flat[np.argmin(ok)])
        raise DomainError(f"radius must lie in {kind} with R = {R}, got {first!r}")
    return r


def _check_point(r, t, what: str) -> None:
    """DomainError unless (r, t) is finite, with r >= 0, and not the origin.  Arrays are checked
    by one mask, and their first bad point alone by Python comparisons, so both raise alike."""
    if isinstance(r, np.ndarray) or isinstance(t, np.ndarray):
        r, t = np.broadcast_arrays(r, t)
        bad = ~(np.isfinite(r) & np.isfinite(t) & (r >= 0.0) & ((r != 0.0) | (t != 0.0)))
        if bad.any():
            i = np.flatnonzero(bad)[0]
            _check_point(float(r.flat[i]), float(t.flat[i]), what)
    elif not (math.isfinite(r) and math.isfinite(t)):
        raise DomainError(f"{what} needs a finite point, got (r, t) = ({r!r}, {t!r})")
    elif r < 0.0:
        raise DomainError(f"{what} needs r >= 0, got (r, t) = ({r!r}, {t!r})")
    elif r == 0.0 and t == 0.0:
        raise DomainError(f"{what} is undefined at the origin")


def _scalar_or_array(r_in, value):
    if np.isscalar(r_in) or (isinstance(r_in, np.ndarray) and r_in.ndim == 0):
        return float(value)
    return value


# ------------------------------------------------------------------- profile


def profile_height(spec: SphereSpec, r):
    """Height f(r; R) of the upper hemisphere graph; f(R; R) = 0.  NumericsError where f
    overflows, as where 2 eps^3 does (eps from about 4.5e102)."""
    return _scalar_or_array(r, _height(spec, _check_profile_domain(spec.R, r, closed=True)))


def _height(spec: SphereSpec, r):
    """`profile_height` on radii in [0, R], which a `_Stack`'s (k, 1) columns broadcast."""
    with np.errstate(over="ignore"):
        f = _f(spec.params, r, spec.R)
    return _require_finite(f, spec.params, "the profile height", R=spec.R)


def profile_height_r(spec: SphereSpec, r):
    """Radial derivative of the profile; negative on (0, R), -inf at r -> R."""
    rr = _check_profile_domain(spec.R, r, closed=False)
    return _scalar_or_array(r, _f_r(spec.params, rr, spec.R))


def profile_height_R(spec: SphereSpec, r):
    """Derivative of the profile in the sphere parameter R; positive on [0, R).  NumericsError
    where it or the profile (`profile_height`) is not finite."""
    rr = _check_profile_domain(spec.R, r, closed=False)
    with np.errstate(over="ignore"):
        g, f_over_g, dF = _profile(spec.params, rr, spec.R)
        f, f_R = g * f_over_g, np.asarray(spec.R, dtype=float) * dF / g  # f_R = R F'/g
    _require_finite(f, spec.params, "the profile height", R=spec.R)
    return _scalar_or_array(r, _require_finite(f_R, spec.params, "f_R", R=spec.R))


def profile_quantities(spec: SphereSpec, r: float, hemisphere: int = +1) -> ProfileQuantities:
    """Pointwise profile data; `hemisphere` (+1 north, -1 south) signs p.  NumericsError where
    one is not finite, as where eps^3 underflows."""
    rr = float(_check_profile_domain(spec.R, r, closed=True))
    if hemisphere not in (+1, -1):
        raise ContractError(f"hemisphere must be +1 or -1, got {hemisphere!r}")
    _, m, p = _pieces(spec.params, rr, spec.R)
    p, e = hemisphere * float(p), spec.params.epsilon
    q = (_divide(m, e * e * e), p, _ell(p), _divide(spec.params.sigma * rr, e * e * e))
    q = _require_finite(q, spec.params, "a profile quantity at r = {!r}", rr, R=spec.R)
    return ProfileQuantities(*q)


# -------------------------------------------------------------- radius field


def _phi_inv_left(u):
    """phi^-1(y)/(y/2) at u = lam^4 <= 1 (`_start`): minimax rational of type (4, 4), 2.03e-9 in
    relative error, lifted by it and 2e-13; Horner's rule rounds alike on floats and arrays."""
    return ((((0.30529210674554813 * u + 4.534830060762813) * u + 9.959001919882727) * u
             + 5.9938371489564535) * u + 1.00000000000028) / (
        (((0.8064010980938657 * u + 7.15900100805366) * u + 12.438771455384144) * u
         + 6.534215993593159) * u + 1.0)


def _phi_inv_right(k):
    """phi^-1(y)/sqrt(2y/pi) at k = 1/lam <= 1: type (4, 5), 8.6e-10, lifted likewise."""
    return ((((-0.025180660760327975 * k + 0.3043480180128456) * k - 0.3648040060639155) * k
             + 0.0781683170815527) * k + 1.0000000000002212) / (
        ((((0.027834109344314996 * k - 0.0028136701526406066) * k + 0.22560308430223527) * k
          - 0.056374591648617155) * k + 0.07816816676462643) * k + 1.0)


def _start(a, b):
    """Newton's start from the root's upper bounds a = |t|/m and b = sqrt(4|t|/(pi s)): their lesser
    times phi^-1(y)/min(y/2, sqrt(2y/pi)) (y = 8 lam^2/pi, lam = a/b) by `_phi_inv_*`, clipped at 1,
    so 2e-13 to 4.1e-9 above the root; the lesser itself where it is not a normal float."""
    if isinstance(a, np.ndarray):
        left, lo = a <= b, np.fmin(a, b)
        k = np.where(left, a / b, b / a)
        rho = np.where(left, _phi_inv_left(k * k * (k * k)), _phi_inv_right(k))
        return np.where(lo >= _TINY, lo * np.fmin(rho, 1.0), lo)
    left = a <= b
    lo = a if left else b
    if not lo >= _TINY:
        return lo
    k = lo / (b if left else a)
    rho = _phi_inv_left(k * k * (k * k)) if left else _phi_inv_right(k)
    return lo * (rho if rho < 1.0 else 1.0)


_kept = (None, None)  # the last single-point root of `_gap_solve`, keyed by its (m, s, |t|)


def _gap_solve(m, s: float, t, what: str):
    """g >= 0 with F(g; m, s, s g/m) = |t| (module docstring), broadcasting m and t.

    Newton in g: F is increasing and convex, F >= m g and F >= (pi/4) s g^2, so a = |t|/m and
    b = sqrt(4|t|/(pi s)) are above the root (a is it at s = 0, b at m = 0), and `_start` takes
    min(a, b) to within 4.1e-9 above it by phi(q) = 2 s |t|/m^2.  The iterates descend onto the
    root inside [0, start] in 2 passes, stopping on `_newton`'s 4-ulp step or bracket rule.  m = 0
    (Pansu's axis) or near the least float gives q = inf: arctan(inf) = pi/2 (a float m = 0
    divides by `_divide`).  Where 4|t|/(pi s) is not a normal float, b is sqrt(|t|) sqrt(4/(pi s)).
    One point (neither m nor t an array) stays on Python floats, start and residual, which
    overflow without a warning, and `_newton` solves it on them.  Its last root is kept in `_kept`
    by (m, s, |t|), and returned for that key at m != 0; arrays and errors never touch it.
    """
    def residual(g):
        f_over_g, dF = _kernel(g, m, s, s * g / m if divides else _divide(s * g, m))
        return g * f_over_g - t, dF, False

    global _kept
    key = None  # a single point's (m, s, |t|)
    divides = True  # arrays divide by 0 under the Newton core's errstate, floats only by numpy's
    if isinstance(m, np.ndarray) or isinstance(t, np.ndarray):
        m, t = np.broadcast_arrays(np.asarray(m, dtype=float), np.abs(t, dtype=float))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            g = t / m  # inf where m = 0 or tiny, 0/0 where t = 0 too, which fmin drops
            if s > 0.0:  # at s = 0 the second bound is 0/0 where t = 0
                b = 4.0 * t / (c := math.pi * s)
                normal = (b >= _TINY) & (b < np.inf)
                g = _start(g, np.where(normal, np.sqrt(b), np.sqrt(t) * math.sqrt(4.0 / c)))
    else:
        m, s, t = float(m), float(s), abs(float(t))
        kept, root = _kept  # one read of one tuple: a key and its root
        if kept == (key := (m, s, t)) and m:  # -0.0 == 0.0, yet their solves differ
            return root
        divides = m != 0.0
        g = t / m if divides else math.inf
        if s > 0.0:
            b = 4.0 * t / (c := math.pi * s)
            g = _start(g, math.sqrt(b) if _TINY <= b < math.inf else math.sqrt(t) * math.sqrt(4.0 / c))
    root = _newton(residual, g, 0.0, g, t == 0.0, what)
    if key:
        _kept = key, root
    return root


def _leaf(params: ModelParams, r, t):
    """R >= r with f(r; R) = |t|, g = sqrt(R^2 - r^2) and m(r), broadcasting r and t; f is even
    in sigma.  The one source of g off a sphere: `_gap` of R loses it once g^2 < ulp(r^2).
    NumericsError where m(r) overflows (`_mass`)."""
    m = _mass(params, r)
    g = _gap_solve(m, abs(params.sigma), t, "radius solve")
    return _hypot(r, g), g, m


def radius_field(params: ModelParams, r: float, t: float) -> RadiusField:
    """Radius of the sphere through (r, t) plus its partial derivatives.

    R_r = r ell(p) / R and R_t = sgn(t) g / (R F'), F' = m(r)/ell(p) from `_kernel`, finite where
    m(r) = 0 (the axis once eps^3 underflows), both continuous across the equator plane t = 0
    (where R = r, R_r = 1, R_t = 0); g = sqrt(R^2 - r^2), m(r) and |p| come from the solve.
    """
    _check_point(r, t, "the radius field")
    R, g, m = _leaf(params, r, t)
    s = abs(params.sigma)
    a = _arctan(p := _divide(s * g, m))  # once, for ell(p) and F'
    R_r = _divide(r * _ell(p, a), R)  # R is 0 where it underflows next to the origin
    R_t = _divide(math.copysign(g, t), R * _kernel(g, m, s, p, a)[1]) if t != 0.0 else 0.0
    _require_finite((R_r, R_t), params, "the radius field at (r, t) = ({!r}, {!r})", r, t)
    return RadiusField(value=R, R_r=R_r, R_t=R_t)


# ------------------------------------------------------------------- normals


_radius_of = np.hypot  # |z| elementwise by libm's hypot, as Point.r and the integrator take it


def _normal_components(params: ModelParams, x, y, t, R, g, m):
    """Outward unit normal at (x, y, t) on the leaf R, g, m(r) (`_leaf`, or `_pieces` on a sphere):
    frame coefficients (..., 3) for arrays, three floats for floats (signed as np.sign signs t), and
    sgn(t) T on the axis, where p and eps^3/m fail once eps^3 underflows: one point returns it at
    once, arrays put it where x = y = 0 after the formula ran there under its own errstate."""
    sg = np.sign(t) if isinstance(t, np.ndarray) else 1.0 if t > 0.0 else -1.0 if t < 0.0 else t - t
    if not isinstance(x, np.ndarray) and x == 0.0 and y == 0.0:
        return 0.0, 0.0, sg
    e = params.epsilon
    p, q = sg * g * _divide(params.sigma, m), sg * g * _divide(e * e * e, m)  # q = eps^3 g/m
    if not isinstance(p, np.ndarray):
        return (x + y * p) / R, (y - x * p) / R, q / R
    with np.errstate(invalid="ignore"):  # 0 inf on the axis, where m = 0
        n = np.stack(((x + y * p) / R, (y - x * p) / R, q / R), axis=-1)
    axis = np.logical_and(x == 0.0, y == 0.0)[..., None]
    return np.where(axis, np.stack(np.broadcast_arrays(0.0, 0.0, sg), axis=-1), n)


def _on_sphere_or_raise(spec: SphereSpec, point: Point, tol: float = 1e-8) -> None:
    """ContractError unless |t| is within tol * max(1, R, f(r)) of f(r), so relative in t where
    the profile is tall (a NaN miss fails too); `_height`'s NumericsError where f is not finite."""
    r = point.r
    if r > spec.R * (1.0 + _DOMAIN_RTOL) + tol:
        raise ContractError(f"point with |z| = {r} is not on the sphere R = {spec.R}")
    f_here = float(_height(spec, min(r, spec.R)))
    miss = abs(abs(point.t) - f_here)
    if not miss <= tol * max(1.0, spec.R, f_here):
        raise ContractError(f"point is off the sphere: | |t| - f | = {miss:.3e}")


def outer_normal(spec: SphereSpec, point: Point, tol: float = 1e-8) -> TangentVector:
    """Outward unit normal of the sphere at a point on it.

    Well defined at the poles (where it is +/- T) and on the equator
    (where it is radial).  Points farther than `tol` from the sphere are
    rejected.  NumericsError where it is not finite, as next to the axis
    where eps^3 underflows.
    """
    _on_sphere_or_raise(spec, point, tol)
    g, m, _ = _pieces(spec.params, point.r, spec.R)
    n = _normal_components(spec.params, point.x, point.y, point.t, spec.R, g, m)
    return TangentVector.from_array(
        _require_finite(n, spec.params, "the outer normal at {}", point, R=spec.R))


def foliation_normal(params: ModelParams, point: Point) -> TangentVector:
    """Outward unit normal of the sphere family at any point except the origin."""
    r, t = point.r, point.t
    _check_point(r, t, "the foliation normal")
    R, g, m = _leaf(params, r, t)  # R is 0 where it underflows next to the origin
    n = _normal_components(params, point.x, point.y, t, R, g, m) if R else (math.nan,) * 3
    return TangentVector.from_array(_require_finite(n, params, "the foliation normal at {}", point))


# ------------------------------------------------------------- area / volume


def sphere_area(spec: SphereSpec) -> float:
    """Riemannian area of the full sphere, 2 pi R^2 [eps^2 (1 + atanc b) + (sigma R/eps) arctan b]
    with b = sigma R/eps^3 (2 pi eps^2 R^2 [1 + w(R)^2 atanc b]); NumericsError where not finite."""
    e, s, R = spec.params.epsilon, spec.params.sigma, spec.R
    b = _divide(s * R, e * e * e)
    a = _arctan(b)
    area = 2.0 * math.pi * R * R * (e * e * (1.0 + _atanc(b, a)) + s * R / e * a)
    return _require_finite(area, spec.params, "the area", R=R)


def sphere_volume(spec: SphereSpec) -> float:
    """Lebesgue volume enclosed by the sphere, 2 pi eps^3 R^3 J(|b|), b = sigma R/eps^3, with
    J(b) = 3/8 + 1/(8 b^2) + arctan(b) (3b + 2/b - 1/b^3)/8, and below |b| = 0.1 (where that
    cancels, by up to 6e-13 near b = 0.01) its even series through b^16 (`_J_SERIES`); above,
    2 pi |sigma| R^4 J(|b|)/|b|, finite at b = inf.  NumericsError where it is not finite."""
    e, s, R = spec.params.epsilon, spec.params.sigma, spec.R
    b = abs(_divide(s * R, e * e * e))
    J, b2 = 0.0, b * b
    if b < 0.1:
        for c in _J_SERIES:
            J = J * b2 + c
        volume = 2.0 * math.pi * (e * R) * (e * R) * (e * R) * J
    else:
        J_b = (3.0 / b + 1.0 / (b2 * b) + _arctan(b) * (3.0 + (2.0 - 1.0 / b2) / b2)) / 8.0
        volume = 2.0 * math.pi * abs(s) * R * R * R * R * J_b
    return _require_finite(volume, spec.params, "the volume", R=R)


# ------------------------------------------------------------ limit profiles


def euclidean_profile(R: float, r):
    """Limit profile sqrt(R^2 - r^2) (sigma -> 0 at eps = 1)."""
    rr = _check_profile_domain(R, r, closed=True)
    return _scalar_or_array(r, _gap(rr, R))


def pansu_profile(sigma: float, R: float, r):
    """Sub-Riemannian limit profile (sigma/2)[R^2 acos(r/R) + r sqrt(R^2-r^2)] (`_kernel`)."""
    rr = _check_profile_domain(R, r, closed=True)
    g = _gap(rr, R)  # > 0 at r = 0, so q = g/r is inf there, never 0/0
    return _scalar_or_array(r, g * _kernel(g, sigma * rr, sigma, _divide(g, rr))[0])


def _pansu_leaf(sigma: float, r, t):
    """R and g of the limit-profile sphere through (r, t); DomainError unless sigma > 0."""
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    _check_point(r, t, "pansu_radius")
    g = _gap_solve(sigma * r + 0.0, sigma, t, "pansu radius solve")  # m = -0.0 would make q -inf
    return _hypot(r, g), g


def pansu_radius(sigma: float, r, t):
    """Radius of the limit-profile sphere through (r, t); inverse of pansu_profile by `_gap_solve`.

    Broadcasts over arrays of r and t; R = r on the plane t = 0.
    """
    if not (isinstance(r, (float, int)) and isinstance(t, (float, int))):
        r, t = np.asarray(r, dtype=float), np.asarray(t, dtype=float)
    R = _pansu_leaf(sigma, r, t)[0]
    return R if isinstance(R, np.ndarray) else float(R)


# ----------------------------------------------------- finite-difference CMC


def graph_mean_curvature_fd(params: ModelParams, f, r, step: float):
    """Mean curvature of the radial graph t = f(r) by finite differences.

    Returns -(1/2 eps) * (1/r) * d/dr [ r f'(r) / sqrt(eps^6 + f'^2 + sigma^2 r^2) ]
    using only evaluations of `f` (4th-order central differences for both
    derivative levels).  This is the independent oracle for the constancy
    of the mean curvature on the sphere graphs, where the value must be
    1/(eps R).  `f` is called once, on one 1-d array of the 16 r.size
    stencil points r + a step + b step, a and b in {-2, -1, 1, 2}, laid
    out as an array of shape (4, 4) + r.shape.  params and step may be a
    `_Stack`'s (k, 1) columns for r of shape (k, n).  `f` and the stencil run with numpy's
    errors ignored; NumericsError where eps^6 (eps above 1.4e51) or the result is not finite.
    """
    e, s = params.epsilon, params.sigma
    e6 = _power(e, 6, params, "eps^6")
    r = np.asarray(r, dtype=float)
    h = step
    x = np.stack((r - 2 * h, r - h, r + h, r + 2 * h))  # where the flux is differenced
    points = np.stack((x - 2 * h, x - h, x + h, x + 2 * h), axis=1)  # where f is differenced
    with np.errstate(all="ignore"):
        fx = np.reshape(f(points.ravel()), points.shape)
        fp = (fx[:, 0] - 8.0 * fx[:, 1] + 8.0 * fx[:, 2] - fx[:, 3]) / (12.0 * h)
        flux = x * fp / np.sqrt(e6 + fp * fp + s * s * x * x)
        div = (flux[0] - 8.0 * flux[1] + 8.0 * flux[2] - flux[3]) / (12.0 * h)
        return _require_finite(-(0.5 / e) * div / r, params, "the finite-difference mean curvature")
