"""The package's one root finder and one quadrature, each with one error policy."""

from __future__ import annotations

import functools

import numpy as np

from .errors import NumericsError

_ULP = np.finfo(float).eps
_NEWTON_PASSES = 120


def _newton(fun, x, lo, hi, done, what: str) -> np.ndarray:
    """Root of `fun` in the open bracket (lo, hi) for each point, vectorized.

    `fun(x)` returns the residual F, its derivative dF and the caller's mask
    of converged points.  The bracket end on F's side moves to x whichever
    way F runs; a step that would leave the bracket bisects it, unless it is
    under 4 ulp of x.  A point is done when it has converged, its step is
    that small or its bracket (which must be finite) is 4 ulp wide.  An
    infinite dF, as F_lam at lam = R on the delta = 0 leaf, is a zero step.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_PASSES):
            if done.all():
                return x
            F, dF, converged = fun(x)
            done = done | converged
            above = (F > 0.0) == (dF > 0.0)
            hi, lo = np.where(~done & above, x, hi), np.where(~done & ~above, x, lo)
            step = F / dF
            new = x - step
            small = np.abs(step) <= 4.0 * _ULP * np.abs(x)
            new = np.where(small | ((lo < new) & (new < hi)), new, 0.5 * (lo + hi))
            x = np.where(done, x, new)
            done = done | small | (hi - lo <= 4.0 * _ULP * np.abs(hi))
    if not done.all():
        raise NumericsError(f"{what} did not converge")
    return x


# On one panel the sphere-area, volume and bump integrands estimate at 2e-11
# or less; the area excess of a steep competitor takes a few halvings.
_QUAD_RTOL = 1e-9
_QUAD_MAX_PANELS = 1024


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _quad(fun, a: float, b: float, what: str) -> float:
    """Integral of the vectorized `fun` over [a, b] by 128-node Gauss-Legendre.

    A panel passes when its 128- and 64-node values differ by at most
    _QUAD_RTOL * S times its share of [a, b], S the 128-node integral of
    |fun| over [a, b]; a panel that fails is halved.  Smooth integrands pass
    on [a, b] itself.  NumericsError when the integrand is not finite or
    more than _QUAD_MAX_PANELS panels are spent.
    """
    x64, w64 = _gauss_legendre(64)
    x128, w128 = _gauss_legendre(128)
    nodes = np.concatenate((x64, x128))
    lo, hi = np.array([float(a)]), np.array([float(b)])
    total, scale, spent = 0.0, None, 0
    while lo.size:
        spent += lo.size
        if spent > _QUAD_MAX_PANELS:
            raise NumericsError(f"quadrature for {what} did not converge in {spent} panels")
        half = 0.5 * (hi - lo)
        mid = lo + half
        x = mid[:, None] + half[:, None] * nodes
        vals = np.asarray(fun(x.ravel()), dtype=float).reshape(x.shape)
        if not np.all(np.isfinite(vals)):
            raise NumericsError(f"integrand for {what} is not finite")
        fine = half * (vals[:, 64:] @ w128)
        coarse = half * (vals[:, :64] @ w64)
        if scale is None:
            scale = float(half[0] * (np.abs(vals[0, 64:]) @ w128))
        ok = np.abs(fine - coarse) <= _QUAD_RTOL * scale * (hi - lo) / (b - a)
        total += float(np.sum(fine[ok]))
        lo, hi = np.concatenate((lo[~ok], mid[~ok])), np.concatenate((mid[~ok], hi[~ok]))
    return total
