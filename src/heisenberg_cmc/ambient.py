"""Left-invariant geometry of the ambient group.

The space is C x R ~ R^3 with coordinates (x, y, t).  For parameters
eps > 0 and sigma (twist), the orthonormal left-invariant frame is

    X = (1/eps) (d_x + sigma*y d_t),
    Y = (1/eps) (d_y - sigma*x d_t),
    T = eps^2 d_t,

with tau = sigma / eps^4, so that [X, Y] = -2*tau*T and [X, T] = [Y, T] = 0.  tau
overflows as eps -> 0, so only curvature reads it (here, `curvature`, `jacobi_potential`,
`meridian_geodesic_residual`); the profile layer (`sphere`) takes eps^3 and sigma alone.
The metric makes (X, Y, T) orthonormal; its volume is the Lebesgue measure of R^3 for every
(eps, sigma).  sigma -> 0 at eps = 1 degenerates to flat Euclidean space; tau = 0 is admitted
here even though the group is then abelian, so that limit regimes can be evaluated.

Tangent vectors are stored as coefficients on (X, Y, T); in that basis the
metric is the identity and the Levi-Civita connection reduces to the
constant table `christoffel_frame`.  Curvature operations act on
constant-coefficient frame fields, which is all the rest of the package
needs (curvature is tensorial).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from ._numerics import _pow
from .errors import ContractError, DomainError

__all__ = [
    "ModelParams",
    "Point",
    "TangentVector",
    "frame_in_coordinates",
    "vector_to_coordinates",
    "vertical_component",
    "horizontal_rotation",
    "christoffel_frame",
    "covariant_derivative",
    "curvature_operator",
    "ricci",
]


_set = object.__setattr__  # how a record's own __init__ sets each field, once


class _Record:
    """A frozen record: its fields are the `__slots__`, set once by `__init__`; this one takes them
    by position or by name, and a record that validates or derives a field writes its own with
    `_set`.  repr, == (between records of one class) and hash run over the fields in order, as a
    frozen dataclass's, but no code is generated for a class; assigning or deleting raises
    AttributeError, and copy and pickle rebuild a record from its fields."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = property(operator.attrgetter(*cls.__slots__))  # a tuple: 2 fields or more
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        try:  # the fields after the positional ones by name, in order; another name stays behind
            values = args + tuple(map(kwargs.pop, self.__slots__[len(args):])) if kwargs else args
        except KeyError:
            values = ()
        if len(values) != len(self.__slots__) or kwargs:
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(self.__slots__)}")
        for put, value in zip(self._setters, values):
            put(self, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._values

    def __setstate__(self, state: tuple) -> None:
        for put, value in zip(self._setters, state):
            put(self, value)


class ModelParams(_Record):
    """Metric family (eps, sigma) of Python floats, eps > 0 and sigma finite; tau = sigma/eps^4."""

    __slots__ = ("epsilon", "sigma")

    def __init__(self, epsilon: float, sigma: float) -> None:
        if not (math.isfinite(epsilon) and epsilon > 0.0):
            raise DomainError(f"epsilon must be positive and finite, got {epsilon!r}")
        if not math.isfinite(sigma):
            raise DomainError(f"sigma must be finite, got {sigma!r}")
        _set(self, "epsilon", float(epsilon))
        _set(self, "sigma", float(sigma))

    @property
    def tau(self) -> float:
        """sigma/eps^4 for curvature; 0 where eps^4 overflows, DomainError where not finite."""
        try:
            tau = self.sigma / self.epsilon**4
        except (OverflowError, ZeroDivisionError):  # eps**4 overflows, or underflows to 0
            tau = 0.0 if self.epsilon > 1.0 or not self.sigma else math.inf
        if abs(tau) < math.inf:
            return tau
        raise DomainError(f"tau = sigma/eps^4 is not a finite float with "
                          f"eps = {self.epsilon!r}, sigma = {self.sigma!r}")

    @classmethod
    def from_tau(cls, epsilon: float, tau: float) -> "ModelParams":
        """Alternate constructor from (eps, tau); stores sigma = tau*eps^4, DomainError (sigma must
        be finite) where that is not a finite float."""
        return cls(epsilon, tau * _pow(epsilon, 4))


class Point(_Record):
    """A point (x, y, t) of C x R."""

    __slots__ = ("x", "y", "t")

    def __init__(self, x: float, y: float, t: float) -> None:
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "t", t)

    @property
    def r(self) -> float:
        return abs(complex(self.x, self.y))  # libm's hypot, as np.hypot (math.hypot is not)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.t], dtype=float)

    @classmethod
    def from_array(cls, a) -> "Point":
        return cls(float(a[0]), float(a[1]), float(a[2]))


class TangentVector(_Record):
    """Coefficients of a tangent vector on the orthonormal frame (X, Y, T)."""

    __slots__ = ("aX", "aY", "aT")

    def __init__(self, aX: float, aY: float, aT: float) -> None:
        _set(self, "aX", aX)
        _set(self, "aY", aY)
        _set(self, "aT", aT)

    def as_array(self) -> np.ndarray:
        return np.array([self.aX, self.aY, self.aT], dtype=float)

    @classmethod
    def from_array(cls, a) -> "TangentVector":
        return cls(float(a[0]), float(a[1]), float(a[2]))

    def dot(self, other: "TangentVector") -> float:
        return self.aX * other.aX + self.aY * other.aY + self.aT * other.aT

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def __add__(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(self.aX + other.aX, self.aY + other.aY, self.aT + other.aT)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(self.aX - other.aX, self.aY - other.aY, self.aT - other.aT)

    def __mul__(self, c: float) -> "TangentVector":
        return TangentVector(c * self.aX, c * self.aY, c * self.aT)

    __rmul__ = __mul__

    def __neg__(self) -> "TangentVector":
        return self * -1.0


def frame_in_coordinates(params: ModelParams, p: Point) -> np.ndarray:
    """Coordinate components of the frame at p; row i is the i-th frame field."""
    e, s = params.epsilon, params.sigma
    return np.array(
        [
            [1.0 / e, 0.0, s * p.y / e],
            [0.0, 1.0 / e, -s * p.x / e],
            [0.0, 0.0, e * e],
        ]
    )


def vector_to_coordinates(params: ModelParams, p: Point, v: TangentVector) -> np.ndarray:
    """Coordinate components of the frame vector v at p."""
    return frame_in_coordinates(params, p).T @ v.as_array()


def vertical_component(v: TangentVector) -> float:
    """The contact form applied to v, i.e. the inner product with T."""
    return v.aT


def horizontal_rotation(v: TangentVector, tol: float = 1e-12) -> TangentVector:
    """Rotate a horizontal vector by +pi/2 in the horizontal plane.

    Sends X to Y and Y to -X; squares to minus the identity on the
    horizontal distribution.
    """
    if abs(v.aT) > tol * max(1.0, v.norm()):
        raise ContractError(f"horizontal_rotation needs aT ~ 0, got {v.aT!r}")
    return TangentVector(-v.aY, v.aX, 0.0)


def christoffel_frame(params: ModelParams) -> np.ndarray:
    """Connection table G[i,j,k]: nabla_{e_i} e_j = sum_k G[i,j,k] e_k.

    Nonzero entries: nabla_X Y = -tau T, nabla_Y X = tau T,
    nabla_X T = nabla_T X = tau Y, nabla_Y T = nabla_T Y = -tau X.
    A `sphere._Stack`'s (k, 1) column of tau gives the (k, 1, 3, 3, 3) tables.
    """
    t = params.tau
    g = np.zeros(np.shape(t) + (3, 3, 3))
    g[..., 0, 1, 2] = -t
    g[..., 1, 0, 2] = t
    g[..., 0, 2, 1] = t
    g[..., 2, 0, 1] = t
    g[..., 1, 2, 0] = -t
    g[..., 2, 1, 0] = -t
    return g


def _connect(tau, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """nabla_u v of constant-coefficient fields u, v (..., 3), tau broadcasting over (...): the six
    nonzero entries of `christoffel_frame`, each term (u_i v_j)(+-tau) as the table contraction
    forms it, so its bits; + 0.0 keeps its +0.0 where the terms cancel or tau = 0."""
    (u0, u1, u2), (v0, v1, v2), neg = np.moveaxis(u, -1, 0), np.moveaxis(v, -1, 0), -tau
    return np.stack((u1 * v2 * neg + u2 * v1 * neg, u0 * v2 * tau + u2 * v0 * tau,
                     u0 * v1 * neg + u1 * v0 * tau), axis=-1) + 0.0


def covariant_derivative(
    params: ModelParams,
    u: TangentVector,
    v: TangentVector,
    dv_along_u,
) -> TangentVector:
    """nabla_u v for a field v with frame coefficients v and derivatives dv.

    `dv_along_u` must be the 3 directional derivatives of v's frame
    coefficients along u (all zeros for a constant-coefficient field); it
    is combined with the constant connection table by the Leibniz rule.
    """
    if dv_along_u is None:
        raise ContractError("covariant_derivative requires the derivative data dv_along_u")
    dv = np.asarray(dv_along_u, dtype=float)
    if dv.shape != (3,):
        raise ContractError(f"dv_along_u must have shape (3,), got {dv.shape}")
    return TangentVector.from_array(dv + _connect(params.tau, u.as_array(), v.as_array()))


def _curvature_operator(params: ModelParams, u, v, w) -> np.ndarray:
    """R(u, v)w on frame coefficients (..., 3), broadcasting; the connection is torsion-free, so
    [u, v] = nabla_u v - nabla_v u.  Its seven connections are two calls on stacked pairs."""
    tau = params.tau
    u, v, w = np.broadcast_arrays(u, v, w)
    uv, vu, vw, uw = _connect(tau, np.stack((u, v, v, u)), np.stack((v, u, w, w)))
    a, b, c = _connect(tau, np.stack((u, v, uv - vu)), np.stack((vw, uw, w)))
    return a - b - c


def curvature_operator(
    params: ModelParams,
    u: TangentVector,
    v: TangentVector,
    w: TangentVector,
) -> TangentVector:
    """R(u, v)w = nabla_u nabla_v w - nabla_v nabla_u w - nabla_[u,v] w.

    u, v, w are treated as constant-coefficient frame fields, which is
    sufficient because curvature is tensorial.
    """
    return TangentVector.from_array(
        _curvature_operator(params, u.as_array(), v.as_array(), w.as_array()))


def ricci(params: ModelParams, n: TangentVector, tol: float = 1e-12) -> float:
    """Ricci curvature in the unit direction n: sum_i <R(e_i, n)n, e_i>."""
    if abs(n.norm() - 1.0) > tol:
        raise ContractError(f"ricci requires |n| = 1, got |n| = {n.norm()!r}")
    basis = (TangentVector(1, 0, 0), TangentVector(0, 1, 0), TangentVector(0, 0, 1))
    return sum(curvature_operator(params, e, n, n).dot(e) for e in basis)
