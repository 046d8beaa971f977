"""Second fundamental form and the umbilicity correction of the spheres.

On the sphere of parameter R, away from the poles, the adapted tangent
frame (X1, X2) is orthonormal with X1 horizontal.  In that frame the
second fundamental form is the closed 2x2 matrix

    h = 1/(1+rho^2) [[H (1+2 rho^2), tau rho^2], [tau rho^2, H]],

rho = tau*eps*r, with principal curvatures H +/- rho^2/(1+rho^2) *
sqrt(H^2+tau^2) and principal directions rotated from (X1, X2) by the
r-independent angle arctan(tau / (H + sqrt(H^2+tau^2))).

The corrected operator adds a rotated rank-one vertical term to h,

    k = h + (2 tau^2 / sqrt(H^2+tau^2)) q (theta x theta) q^{-1},

with q the rotation by the same angle; its trace-free part vanishes
identically on the spheres, which is what the tests pin down.  A
finite-difference shape operator (differentiating the foliation normal)
serves as the independent oracle for all closed forms here.
"""

from __future__ import annotations

import math

import numpy as np

from ._numerics import _each, _require_finite, _unit
from .ambient import Point, TangentVector, _Record, christoffel_frame, vector_to_coordinates
from .errors import ContractError, DomainError
from .sphere import (_TINY, SphereSpec, _mass, _on_sphere_or_raise, _pieces, foliation_normal,
                     outer_normal)

__all__ = [
    "TangentFrame",
    "ShapeData",
    "CorrectedShapeData",
    "principal_angle",
    "tangent_frame",
    "second_fundamental_form",
    "shape_operator_fd",
    "assemble_corrected_shape",
    "corrected_shape",
]


class TangentFrame(_Record):
    """Adapted orthonormal tangent frame at a non-pole sphere point: TangentVectors X1, X2 and
    the float coefficients a, b, c, p."""

    __slots__ = ("X1", "X2", "a", "b", "c", "p")


class ShapeData(_Record):
    """Second fundamental form in the adapted frame (h, 2x2 symmetric), plus eigendata: floats
    kappa1, kappa2, beta and the principal directions K1, K2 (TangentVectors, None at a pole)."""

    __slots__ = ("h", "kappa1", "kappa2", "beta", "K1", "K2")


class CorrectedShapeData(_Record):
    """The corrected operator k, its trace-free part k0 (arrays), the rotation angle alpha and
    k0_norm, a float, or an array when h holds several points."""

    __slots__ = ("k", "k0", "alpha", "k0_norm")


def principal_angle(H: float, tau: float) -> float:
    """Rotation angle of the principal directions relative to (X1, X2).

    Equals (1/2) arctan(tau/H), written in the form
    arctan(tau / (H + hypot(H, tau))) which lies in (-pi/4, pi/4).
    """
    if H <= 0.0:
        raise DomainError(f"the rotation angle needs H > 0, got {H!r}")
    return math.atan(tau / (H + math.hypot(H, tau)))


def _frame_coefficients(spec: SphereSpec, r, t):
    """a, b, c and the hemisphere-signed p of the adapted frame at radii r and heights t on the
    sphere, broadcasting.  a and b are infinite at the poles, where the frame is undefined; c
    vanishes there.  b takes r R, which underflows at R = 1e-200, in units of R (`_unit`)."""
    params, R, e = spec.params, spec.R, spec.params.epsilon
    r = np.asarray(r, dtype=float)
    sg = np.where(np.asarray(t) >= 0.0, 1.0, -1.0)
    gap, m_r, p = _pieces(params, r, R)
    m_R, u = _mass(params, R), _unit(R)
    with np.errstate(divide="ignore"):
        a = m_r / (r * m_R)
        b = sg * (e * e * e) * (gap / u) / ((r / u) * (R / u) * m_R) / u
    return a, b, r * m_R / (R * m_r), sg * p


def _frame_vectors(x, y, a, b, c, p):
    """X1 and X2 as frame coefficients (..., 3) from the frame coefficients."""
    u, v = y - x * p, x + y * p
    return (np.stack((-a * u, a * v, np.zeros_like(u)), axis=-1),
            np.stack((-b * v, -b * u, c * np.ones_like(u)), axis=-1))


def tangent_frame(spec: SphereSpec, point: Point) -> TangentFrame:
    """The adapted orthonormal frame (X1 horizontal, X2) at a sphere point.

    Undefined at the poles.  Signs are fixed so that X1 points along the
    positive-rotation direction (-y, x) and (X1, X2, outward normal) is
    positively oriented.
    """
    _on_sphere_or_raise(spec, point)
    if point.r <= 1e-12 * spec.R:
        raise DomainError("the adapted tangent frame is undefined at the poles")
    # m(r) below the normal floats (eps^3 subnormal at sigma = 0) has lost its digits
    abcp = (tuple(map(float, _frame_coefficients(spec, point.r, point.t)))
            if _mass(spec.params, point.r) >= _TINY else (math.nan,) * 4)
    a, b, c, p = _require_finite(abcp, spec.params, "the tangent frame at {}", point, R=spec.R)
    x1, x2 = map(TangentVector.from_array, _frame_vectors(point.x, point.y, a, b, c, p))
    return TangentFrame(X1=x1, X2=x2, a=a, b=b, c=c, p=p)


def _shape(spec: SphereSpec, r):
    """h (..., 2, 2) in the adapted frame and the principal curvatures
    kappa1, kappa2 at radii r, broadcasting (a `sphere._Stack`'s (k, 1)
    columns too).  NumericsError where they are not finite, as where
    tau rho^2 overflows at tiny eps."""
    params, H, tau = spec.params, spec.H, spec.params.tau
    with np.errstate(over="ignore", invalid="ignore"):
        rho = tau * params.epsilon * np.asarray(r, dtype=float)
        den = 1.0 + rho * rho
        off = tau * rho * rho / den
        h = np.stack((np.stack((H * (1.0 + 2.0 * rho * rho) / den, off), axis=-1),
                      np.stack((off, H / den), axis=-1)), axis=-2)
        spread = (rho * rho / den) * _each(math.hypot, H, tau)
    lead = np.shape(spread)[:1]  # a stack's axis stays, so that the message names its sphere
    both = np.concatenate((h.reshape(*lead, -1), np.reshape(spread, (*lead, -1))), axis=-1)
    _require_finite(both, params, "the second fundamental form", R=spec.R)
    return h, H + spread, H - spread


def second_fundamental_form(spec: SphereSpec, point: Point) -> ShapeData:
    """Closed-form second fundamental form at a sphere point.

    At the poles the limit h = H * Id is returned and the principal
    directions are undefined (K1 = K2 = None).
    """
    _on_sphere_or_raise(spec, point)
    h, kappa1, kappa2 = _shape(spec, point.r)
    beta = principal_angle(spec.H, spec.params.tau)
    k1 = k2 = None
    if point.r > 1e-12 * spec.R:
        fr = tangent_frame(spec, point)
        cb, sb = math.cos(beta), math.sin(beta)
        k1 = cb * fr.X1 + sb * fr.X2
        k2 = -sb * fr.X1 + cb * fr.X2
    return ShapeData(h=h, kappa1=float(kappa1), kappa2=float(kappa2), beta=beta, K1=k1, K2=k2)


def shape_operator_fd(
    spec: SphereSpec,
    point: Point,
    v: TangentVector,
    step: float = 1e-5,
) -> TangentVector:
    """Finite-difference shape operator: the derivative of the foliation
    normal along the tangent vector v, connection-corrected and projected
    back to the tangent plane.

    This is the independent oracle for the closed forms above; it never
    consults them.
    """
    _on_sphere_or_raise(spec, point)
    n0 = outer_normal(spec, point)
    if abs(v.dot(n0)) > 1e-8 * max(1.0, v.norm()):
        raise ContractError("shape_operator_fd requires a tangent vector")
    vn = v.norm()
    if vn == 0.0:
        return TangentVector(0.0, 0.0, 0.0)
    u = v * (1.0 / vn)
    params = spec.params
    ucoords = vector_to_coordinates(params, point, u)
    s = step * max(1.0, np.max(np.abs(point.as_array())))
    if s == 0.0:
        raise ContractError("degenerate step")
    pa = point.as_array()
    np_plus = foliation_normal(params, Point.from_array(pa + s * ucoords)).as_array()
    np_minus = foliation_normal(params, Point.from_array(pa - s * ucoords)).as_array()
    dn = (np_plus - np_minus) / (2.0 * s)
    gamma = christoffel_frame(params)
    corr = np.einsum("i,j,ijk->k", u.as_array(), n0.as_array(), gamma)
    res = TangentVector.from_array(dn + corr)
    res = res - res.dot(n0) * n0
    return vn * res


def assemble_corrected_shape(H: float, tau: float, h, theta2) -> CorrectedShapeData:
    """Assemble k = h + (2 tau^2/sqrt(H^2+tau^2)) q (theta x theta) q^{-1}.

    `h` is the 2x2 second fundamental form in the adapted frame and
    `theta2` the vertical component of X2 (that of X1 vanishes by
    construction); both broadcast, h over (..., 2, 2) and theta2 over
    (...), and k0_norm is a float for one point.  H and tau may be a
    `sphere._Stack`'s (k, 1) columns for theta2 of shape (k, n).  Exposed
    separately so negative controls can inject a perturbed h.
    """
    alpha = _each(principal_angle, H, tau)
    q2 = np.stack((-_each(math.sin, alpha), _each(math.cos, alpha)), axis=-1)  # q on the 2nd axis
    theta2 = np.asarray(theta2, dtype=float)
    vert = ((2.0 * tau * (tau / _each(math.hypot, H, tau))) * theta2 * theta2)[..., None, None]
    k = np.asarray(h, dtype=float) + vert * (q2[..., :, None] * q2[..., None, :])
    k0 = k - 0.5 * np.trace(k, axis1=-2, axis2=-1)[..., None, None] * np.eye(2)
    with np.errstate(over="ignore"):  # an entry past about 1.3e154 squares to inf: taken below
        k0_norm = np.sqrt(np.sum(k0 * k0, axis=(-2, -1)))
    if not np.isfinite(k0_norm).all():  # again in units of a power of four, where it overflowed
        u = _unit(np.max(np.abs(k0), axis=(-2, -1), keepdims=True))
        scaled = u[..., 0, 0] * np.sqrt(np.sum((k0 / u) ** 2, axis=(-2, -1)))
        k0_norm = np.where(np.isfinite(k0_norm), k0_norm, scaled)
    return CorrectedShapeData(k=k, k0=k0, alpha=alpha,
                              k0_norm=float(k0_norm) if k0_norm.ndim == 0 else k0_norm)


def corrected_shape(spec: SphereSpec, point: Point) -> CorrectedShapeData:
    """The corrected operator at a non-pole sphere point (trace-free part ~ 0)."""
    frame = tangent_frame(spec, point)
    return assemble_corrected_shape(spec.H, spec.params.tau, _shape(spec, point.r)[0], frame.c)
