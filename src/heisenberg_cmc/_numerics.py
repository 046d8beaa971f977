"""The package's one root finder and one quadrature, each with one error policy, and its one
policy for a value lost to the floats: a result that is not finite raises `_require_finite`'s
NumericsError, float powers by `_power`.  A Python float start is solved on Python floats: numpy
only divides by a zero derivative (`_divide`)."""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

from .errors import NumericsError

_ULP = float(np.finfo(float).eps)
_NEWTON_PASSES = 120
_MAX_SAMPLES = 2**21  # the cap of a sample or row count; meridian_curve: 168 bytes a sample
_FLOATS = contextlib.nullcontext()  # a Python float start's `np.errstate`: floats do not warn


def _divide(a, b):
    """a / b; numpy's +-inf (nan at a = 0) where b = 0, and an array b, divide without a warning."""
    if not isinstance(b, np.ndarray) and b:
        return a / b
    with np.errstate(all="ignore"):
        q = np.divide(a, b)
    return q if isinstance(q, np.ndarray) else float(q)


def _each(fun, *args):
    """fun(*args) on floats; on the (k, 1) columns of a `sphere._Stack`, fun sphere by sphere, so
    each value is its float's (np.arctan, np.hypot and np.power miss math's last bit)."""
    if not isinstance(args[0], np.ndarray):
        return fun(*args)
    return np.reshape([fun(*a) for a in zip(*(np.ravel(x).tolist() for x in args))], args[0].shape)


def _unit(x):
    """A power of four next to x, elementwise on an array (frexp and ldexp are exact, so each
    element is its float's): lengths in it, and their square roots in its square root, round as
    unscaled but are of order 1, so that their products do not underflow at R = 1e-200."""
    if isinstance(x, np.ndarray):
        return np.ldexp(1.0, 2 * (np.frexp(x)[1] // 2))
    return math.ldexp(1.0, 2 * (math.frexp(x)[1] // 2))


def _require_finite(x, params, what: str, *args, R=None):
    """x (a float, a tuple of floats or an array) if it is all finite, else NumericsError
    "<what> is not finite with eps = .., sigma = ..[, R = ..]", formatted only then, `what` by
    what.format(*args).  `params` is anything with an epsilon and a sigma; where it and R are the
    columns of a `sphere._Stack` with as many axes as an array x, the message names the sphere of
    x's first non-finite element."""
    if not (np.isfinite(x).all() if isinstance(x, np.ndarray) else
            all(map(math.isfinite, x)) if isinstance(x, tuple) else math.isfinite(x)):
        eps, sigma = params.epsilon, params.sigma
        if isinstance(x, np.ndarray):
            first = int(np.argmin(np.isfinite(x)))
            with contextlib.suppress(ValueError):  # columns that do not broadcast print whole
                eps, sigma, R = (float(np.broadcast_to(v, x.shape).flat[first])
                                 if np.ndim(v) == x.ndim > 0 else v for v in (eps, sigma, R))
        at = "" if R is None else f", R = {R!r}"
        raise NumericsError(f"{what.format(*args)} is not finite with eps = {eps!r}, "
                            f"sigma = {sigma!r}{at}")
    return x


def _pow(x: float, k: int) -> float:
    """x**k of a Python float, inf where it overflows (x**k raises OverflowError there)."""
    try:
        return x**k
    except OverflowError:
        return math.inf


def _ldexp(x: float, n: int) -> float:
    """x 2^n of a Python float, +-inf where it overflows (math.ldexp raises OverflowError there)."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


def _power(x, k: int, params, what: str, R=None):
    """x**k of a float, or sphere by sphere on a stack (`_each`), through `_require_finite`."""
    return _require_finite(_each(lambda v: _pow(v, k), x), params, what, R=R)


def _newton(fun, x, lo, hi, done, what: str):
    """Root of `fun` in the open bracket (lo, hi) for each point, vectorized.

    `fun(x)` returns the residual F, its derivative dF and the caller's mask of converged
    points.  The bracket end on F's side moves to x whichever way F runs; a step that would
    leave the bracket bisects it, unless it is under 4 ulp of x.  A point is done when it has
    converged, its step is that small or its bracket (which must be finite) is 4 ulp wide.
    An infinite dF, as F_lam at lam = R on the delta = 0 leaf, is a zero step.  `fun` runs
    with numpy's floating-point errors ignored, except on a Python float start, which does
    not warn.  A start that is not an array is one point: the same rule runs in its type (a
    float stays a float, else a float64), with Python control flow in place of the masks.
    """
    with _FLOATS if type(x) is float else np.errstate(all="ignore"):
        if not isinstance(x, np.ndarray):
            x = x if type(x) is float else np.float64(x)
            for _ in range(_NEWTON_PASSES):
                if done:
                    return x
                F, dF, done = fun(x)
                hi, lo = (x, lo) if (F > 0.0) == (dF > 0.0) else (hi, x)
                step = F / dF if dF else _divide(F, dF)
                new = x - step
                small = abs(step) <= 4.0 * _ULP * abs(x)
                if not done:
                    x = new if small or lo < new < hi else 0.5 * (lo + hi)
                done = done or small or hi - lo <= 4.0 * _ULP * abs(hi)
        else:
            for _ in range(_NEWTON_PASSES):
                if done.all():
                    return x
                F, dF, converged = fun(x)
                done = done | converged
                above = (F > 0.0) == (dF > 0.0)
                hi, lo = np.where(above, x, hi), np.where(above, lo, x)
                step = F / dF
                new = x - step
                small = np.abs(step) <= 4.0 * _ULP * np.abs(x)
                new = np.where(small | ((lo < new) & (new < hi)), new, 0.5 * (lo + hi))
                x = np.where(done, x, new)
                done = done | small | (hi - lo <= 4.0 * _ULP * np.abs(hi))
    if not np.all(done):
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


def _quad(fun, a, b, what: str):
    """Integrals of the vectorized `fun` over intervals [a, b] by 128-node Gauss-Legendre.

    `a` and `b` are 1-d arrays of k intervals, and the result is the k integrals.  `fun(x, owner)`
    gets the node block x, one row of 64 + 128 nodes per panel, and the index of each row's
    interval.  A panel passes when its 128- and 64-node values differ by at most _QUAD_RTOL * S
    times its share of its interval, S the 128-node integral of |fun| over the whole interval; a
    panel that fails is halved.  Smooth integrands pass on [a, b] itself.  The node sums are BLAS
    row products (`@`), whose last bit can depend on how many rows share a pass, so an integral
    equals its value alone to rounding, not bit for bit.  NumericsError when the integrand or S is
    not finite or an interval spends more than _QUAD_MAX_PANELS panels.
    """
    x64, w64 = _gauss_legendre(64)
    x128, w128 = _gauss_legendre(128)
    nodes = np.concatenate((x64, x128))
    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    k = lo.size
    length = hi - lo
    owner = np.arange(k)
    spent = np.ones(k, dtype=int)  # the panels each interval has spent so far
    total, scale = np.zeros(k), None
    while lo.size:
        half = 0.5 * (hi - lo)
        mid = lo + half
        x = mid[:, None] + half[:, None] * nodes
        with np.errstate(all="ignore"):  # a value or sum past the floats raises below
            vals = np.asarray(fun(x, owner), dtype=float).reshape(x.shape)
            fine = half * (vals[:, 64:] @ w128)
            coarse = half * (vals[:, :64] @ w64)
            if scale is None:  # the first pass has one panel per interval, in order
                scale = half * (np.abs(vals[:, 64:]) @ w128)
        if not np.all(np.isfinite(vals)):
            raise NumericsError(f"integrand for {what} is not finite")
        if not np.all(np.isfinite(scale)):  # the integral of |f|, at least that of f
            raise NumericsError(f"integral for {what} is not finite")
        ok = np.abs(fine - coarse) <= _QUAD_RTOL * scale[owner] * ((hi - lo) / length[owner])
        total += np.bincount(owner[ok], weights=fine[ok], minlength=k)
        if ok.all():
            break
        bad = ~ok
        lo, hi = np.concatenate((lo[bad], mid[bad])), np.concatenate((mid[bad], hi[bad]))
        owner = np.concatenate((owner[bad], owner[bad]))
        spent += np.bincount(owner, minlength=k)
        if (most := int(spent.max())) > _QUAD_MAX_PANELS:
            raise NumericsError(f"quadrature for {what} did not converge in {most} panels")
    return total
