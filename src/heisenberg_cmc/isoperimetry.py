"""Quantitative isoperimetric checks around the spheres.

Competitors are volume-preserving radial perturbations of the upper
hemisphere graph supported strictly inside the calibration cylinder.  For
each one the area excess over the sphere is computed by quadrature and
compared against the explicit lower bounds

    excess >= sqrt(delta) * C * vol(symmetric difference)^2   (delta > 0),
    excess >= D * vol(symmetric difference)^3                 (delta = 0),

with the constants of `foliation_constants`.  The calibration chain that
proves the bounds is also checked directly: excess >= (2/(eps R)) * G
where G integrates 1 - R/u over the removed region.

The same module carries the stability machinery: the squared norm of the
second fundamental form plus the ambient Ricci term form the potential of
the Jacobi operator L = Lap + (|h|^2 + Ric(N)), and the normal components
of the right-invariant frame fields are solutions of L g = 0, checked in
closed form on the meridian chart, where the rotations about the t-axis
split L into one ordinary differential operator per angular mode.
"""

from __future__ import annotations

import math

import numpy as np

# not used here: imported with this module, it keeps every module of the package loaded once
# `isoperimetry` is, as `perfbench/tracing.py` needs of the modules it traces
from . import meridians  # noqa: F401
from ._numerics import (_MAX_SAMPLES, _gauss_legendre, _pow, _power, _quad, _require_finite,
                        _unit)
from .ambient import Point, _Record
from .curvature import _shape
from .errors import ContractError, DomainError, NumericsError
from .foliation import CylinderSpec, foliation_constants, leaf_label_grid
from .sphere import (_TINY, SphereSpec, _check_profile_domain, _f, _f_r, _kernel, _pieces, _Stack,
                     profile_height, sphere_area, sphere_volume)

__all__ = [
    "subriemannian_hemisphere_area",
    "RadialBump",
    "Competitor",
    "make_competitor",
    "make_competitors",
    "DeficitReport",
    "deficit_report",
    "deficit_reports",
    "symdiff_monte_carlo",
    "calibration_gain",
    "normal_component",
    "stable_hemispheres",
    "jacobi_potential",
    "jacobi_residual",
]


# ------------------------------------------------------------- hemisphere area


def subriemannian_hemisphere_area(sigma: float, R: float) -> float:
    """The sigma-only area integral of the limit-profile hemisphere, pi^2 sigma R^3 / 2.

    The integral of sqrt(f'^2 + sigma^2 r^2) over the disk for the limit
    profile (f' = -sigma r^2 / sqrt(R^2 - r^2)); this is the limit of
    eps * (Riemannian hemisphere area) as eps -> 0.  On r = R sin(phi) its
    density sigma r^2 sqrt(r^2 + R^2 cos^2 phi) is sigma R^3 sin^2(phi), whose
    integral over [0, pi/2] is pi/4; the tests hold the quadrature to it.  NumericsError where
    it is not finite, which names the limit's eps = 0.
    """
    area = 0.5 * math.pi**2 * sigma * _pow(R, 3)
    return _require_finite(area, _Stack(epsilon=0.0, sigma=sigma),
                           "the sub-Riemannian hemisphere area", R=R)


# --------------------------------------------------------------- competitors


def _bump(r, center, width):
    """The bump exp(1 - 1/(1 - s^2)) at s = (r - center)/width, zero for
    |s| >= 1, with s (zero there too) and q = 1 - s^2 for `_bump_slope`."""
    s = (r - center) / width
    inside = np.abs(s) < 1.0
    s = np.where(inside, s, 0.0)
    q = 1.0 - s * s
    return np.where(inside, np.exp(1.0 - 1.0 / q), 0.0), s, q


_MASS = 1.2069003224378763  # the bump's integral over -1 < s < 1: c w _MASS is its radial mass


def _bump_slope(val, s, q, width):
    """d/dr of the bump from the parts `_bump` returns."""
    return val * (-2.0 * s / (q * q)) / width


class RadialBump(_Record):
    """Smooth compactly supported radial bump exp(1 - 1/(1 - s^2)), s = (r-c)/w: center c and
    width w."""

    __slots__ = ("center", "width")

    def __call__(self, r):
        return _bump(np.asarray(r, dtype=float), self.center, self.width)[0]

    def derivative(self, r):
        return _bump_slope(*_bump(np.asarray(r, dtype=float), self.center, self.width), self.width)

    @property
    def support(self) -> tuple[float, float]:
        return self.center - self.width, self.center + self.width


class Competitor(_Record):
    """A volume-preserving two-bump perturbation of the upper hemisphere graph of `spec` inside
    the cylinder `cyl`: RadialBumps `add` and `sub` with amplitudes amp_add and amp_sub."""

    __slots__ = ("spec", "cyl", "add", "amp_add", "sub", "amp_sub")

    def height_change(self, r):
        return self.amp_add * self.add(r) - self.amp_sub * self.sub(r)

    def scaled(self, factor: float) -> "Competitor":
        """Same shape with both amplitudes multiplied by `factor`.

        Volume neutrality is preserved because the enclosed volume is
        linear in the height change.
        """
        return Competitor(self.spec, self.cyl, self.add, factor * self.amp_add,
                          self.sub, factor * self.amp_sub)


def _bumps(comps: list[Competitor]) -> np.ndarray:
    """A suite's bumps as rows (3, 2n) of centres, widths and signed amplitudes, added first."""
    rows = [(c.add.center, c.sub.center, c.add.width, c.sub.width, c.amp_add, -c.amp_sub)
            for c in comps]
    return np.array(rows).reshape(-1, 3, 2).transpose(1, 0, 2).reshape(3, -1)


def _over_bumps(bumps: np.ndarray, integrand, what: str) -> np.ndarray:
    """Per-competitor sums of the integrals of `integrand(r, amp, bump, width)` over the two
    supports of `_bumps`, for a whole suite in one batched quadrature.

    `bump` is `_bump` of the node row's own bump, `width` its width and `amp`
    its signed amplitude.  The bumps of a competitor are disjoint, so on each
    support the height change is amp * bump[0].
    """
    center, width, amp = bumps

    def fun(x, row):
        w = width[row, None]
        return integrand(x, amp[row, None], _bump(x, center[row, None], w), w)

    return _quad(fun, center - width, center + width, what).reshape(-1, 2).sum(axis=1)


def make_competitors(
    spec: SphereSpec,
    cyl: CylinderSpec,
    rng: np.random.Generator,
    n: int,
    amplitude: float | None = None,
) -> list[Competitor]:
    """Draw n random admissible competitors, with batched quadratures.

    Each has two disjoint radial bumps inside (0.06, 0.94) * r_cut; the
    added bump gets `amplitude` (or a random small multiple of the cylinder
    head room) and the removed bump's amplitude is amplitude * m_add / m_sub,
    with m the bumps' radial masses, so the enclosed volume matches the
    sphere's exactly: the volume is linear in the amplitudes and the bumps
    are disjoint.  One batched quadrature of the volume change checks it.
    The draws per competitor, in order, are the two centres, the two
    widths, the swap and the amplitude, so n draws here equal n calls of
    `make_competitor`.  Raises DomainError when an amplitude would push the
    graph out of the cylinder, and NumericsError where the heights at the
    bump supports, and so the head room, are not normal floats.
    """
    if cyl.spec != spec:
        raise ContractError("cylinder was built for a different sphere")
    lows, highs = (0.16, 0.60, 0.05, 0.05, 0.0, 0.01), (0.40, 0.84, 0.09, 0.09, 1.0, 0.05)
    k = 6 if amplitude is None else 5
    u = rng.uniform(lows[:k], highs[:k], size=(n, k))
    rc = cyl.r_cut
    c1, c2, w1, w2 = u[:, :4].T * rc
    swap = u[:, 4] < 0.5
    c1, c2 = np.where(swap, c2, c1), np.where(swap, c1, c2)

    # head room: how far the graph may move down before leaving the cylinder
    f = np.asarray(profile_height(spec, np.minimum(c2 + w2, rc)))
    if not np.min(f, initial=_TINY) >= _TINY:  # subnormal or 0: the room has lost its digits
        p = spec.params
        raise NumericsError(f"the competitors' heights are not normal floats with "
                            f"eps = {p.epsilon!r}, sigma = {p.sigma!r}, R = {spec.R!r}")
    head = f - cyl.t_cut
    if amplitude is None:
        amp_add = u[:, 5] * np.maximum(head, 0.1 * spec.R)
    else:
        amp_add = np.full(n, float(amplitude))
    # a bump's radial mass is centre * width * _MASS, as the bump is even in s; in units of
    # _unit(r_cut) (exact) the masses neither overflow at R = 1e200 nor vanish at R = 1e-200
    amp_sub = amp_add * ((c1 / (v := _unit(rc))) * (w1 / v)) / ((c2 / v) * (w2 / v))
    if (over := amp_sub > head - 0.1 * head).any():
        i = over.argmax()  # the first
        raise DomainError(
            f"competitor rejected: removing amplitude {amp_sub[i]:.3e} exceeds the "
            f"cylinder head room {head[i]:.3e} at the bump support"
        )

    rows = zip(c1.tolist(), w1.tolist(), amp_add.tolist(), c2.tolist(), w2.tolist(), amp_sub.tolist())
    comps = [Competitor(spec, cyl, RadialBump(ca, wa), aa, RadialBump(cs, ws), a_s)
             for ca, wa, aa, cs, ws, a_s in rows]
    dv = 2.0 * math.pi * _over_bumps(_bumps(comps), lambda r, amp, bump, w: amp * bump[0] * r,
                                     "volume change")
    if (lost := np.abs(dv) > 1e-10 * sphere_volume(spec)).any():
        raise NumericsError(f"volume compensation failed: residual {dv[lost.argmax()]:.3e}")
    return comps


def make_competitor(
    spec: SphereSpec,
    cyl: CylinderSpec,
    rng: np.random.Generator,
    amplitude: float | None = None,
) -> Competitor:
    """Draw one random admissible competitor; see `make_competitors`."""
    return make_competitors(spec, cyl, rng, 1, amplitude)[0]


class DeficitReport(_Record):
    """Area excess of a competitor against its explicit lower bound, floats."""

    __slots__ = ("area_sphere", "area_competitor", "symdiff", "deficit", "bound", "slack")


def deficit_reports(comps) -> list[DeficitReport]:
    """Excess, symmetric difference and the applicable bound of each
    competitor of a suite, which must share one sphere and one cylinder.

    The area excess is the area difference of the perturbed and unperturbed
    upper graphs, written as a stabilized difference of the two integrands
    so that it stays accurate for tiny amplitudes (quadratic in the
    amplitude), by one batched quadrature over the stacked bump supports of the suite.  The
    symmetric difference is closed-form, 2 pi _MASS |amp| c w summed over the disjoint bumps.
    """
    comps = list(comps)
    if not comps:
        return []
    spec, cyl = comps[0].spec, comps[0].cyl
    if any(c.spec != spec or c.cyl != cyl for c in comps[1:]):
        raise ContractError("the competitors of a suite must share their sphere and cylinder")
    params, R = spec.params, spec.R
    e, s = params.epsilon, params.sigma
    e6 = _power(e, 6, params, "eps^6")  # eps above about 1.4e51 raises

    def excess_integrand(r, amp, bump, width):
        fr = _f_r(params, r, R)
        dfr = amp * _bump_slope(*bump, width)
        w2 = e6 + fr * fr + s * s * r * r
        wt2 = e6 + (fr + dfr) ** 2 + s * s * r * r
        num = 2.0 * fr * dfr + dfr * dfr
        return num / (np.sqrt(wt2) + np.sqrt(w2)) * r

    center, width, amp = bumps = _bumps(comps)
    with np.errstate(over="ignore"):  # past the floats at eps = 1e-300, where sphere_area raises
        excess = (2.0 * math.pi / e) * _over_bumps(bumps, excess_integrand, "area excess")
    symdiff = (2.0 * math.pi * _MASS) * (np.abs(amp) * center * width).reshape(-1, 2).sum(axis=1)
    consts = foliation_constants(spec)
    a_r = sphere_area(spec)
    reports = []
    for ex, sd in zip(excess.tolist(), symdiff.tolist()):
        if cyl.delta == 0.0:  # the quadratic bound (`label_floor`)
            bound = consts.D * _pow(sd, 3)
        else:
            bound = math.sqrt(cyl.delta) * consts.C * _pow(sd, 2)
        _require_finite(bound, params, "a deficit bound", R=R)
        reports.append(DeficitReport(a_r, a_r + ex, sd, ex, bound, ex - bound))
    return reports


def deficit_report(comp: Competitor) -> DeficitReport:
    """Excess, symmetric difference and the applicable bound of one
    competitor; see `deficit_reports`."""
    return deficit_reports([comp])[0]


def symdiff_monte_carlo(comp: Competitor, n: int = 1_000_000, seed: int = 20240501) -> float:
    """Monte-Carlo volume of the symmetric difference, the oracle for the
    closed-form value: rejection sampling in the bounding box of the
    perturbed region."""
    params = comp.spec.params
    R = comp.spec.R
    lo = min(comp.add.support[0], comp.sub.support[0])
    hi = max(comp.add.support[1], comp.sub.support[1])
    rs = np.linspace(lo, hi, 2001)
    f_vals = _f(params, rs, R)
    df_vals = comp.height_change(rs)
    t_lo = float(np.min(np.minimum(f_vals, f_vals + df_vals))) - 1e-12
    t_hi = float(np.max(np.maximum(f_vals, f_vals + df_vals))) + 1e-12
    rng = np.random.default_rng(seed)
    x = rng.uniform(-hi, hi, size=n)
    y = rng.uniform(-hi, hi, size=n)
    t = rng.uniform(t_lo, t_hi, size=n)
    r = np.hypot(x, y)
    ok = (r >= lo) & (r <= hi)
    f_here = np.where(ok, _f(params, np.clip(r, 0.0, R), R), 0.0)
    df_here = np.where(ok, comp.height_change(r), 0.0)
    lo_t = np.minimum(f_here, f_here + df_here)
    hi_t = np.maximum(f_here, f_here + df_here)
    hit = ok & (t > lo_t) & (t <= hi_t)
    box = (2.0 * hi) ** 2 * (t_hi - t_lo)
    return box * float(np.count_nonzero(hit)) / n


# Gauss-Legendre nodes of `calibration_gain` in the radius and in the depth
_GAIN_NODES_R, _GAIN_NODES_T = 48, 24


def calibration_gain(comp: Competitor) -> tuple[float, float]:
    """(G, (2/eps R) G): the calibration integral over the removed region.

    G integrates 1 - R/u over the set between the perturbed and original
    graphs where material was removed; it is nonnegative and
    (2/(eps R)) G is a lower bound for the area excess.
    """
    params = comp.spec.params
    R = comp.spec.R
    lo, hi = comp.sub.support
    xr, wr = _gauss_legendre(_GAIN_NODES_R)
    xt, wt = _gauss_legendre(_GAIN_NODES_T)
    rs = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xr
    wr = 0.5 * (hi - lo) * wr
    f_here = _f(params, rs, R)
    depth = -comp.height_change(rs)  # >= 0 on the removed support
    depth = np.maximum(depth, 0.0)
    # t-nodes between f - depth and f for every radial node
    tmid = f_here[:, None] - 0.5 * depth[:, None] * (1.0 - xt[None, :])
    wts = 0.5 * depth[:, None] * wt[None, :]
    labels = leaf_label_grid(comp.cyl, np.broadcast_to(rs[:, None], tmid.shape), tmid)
    integrand = 1.0 - R / labels
    gain = 2.0 * math.pi * float(np.sum(np.sum(integrand * wts, axis=1) * wr * rs))
    e = params.epsilon
    return gain, 2.0 * gain / (e * R)


# ----------------------------------------------------------------- stability


def normal_component(spec: SphereSpec, which: str, point):
    """Inner product of a right-invariant frame field with the sphere normal.

    which = 'x', 'y', or 't'.  Closed forms (x - y p)/R, (y + x p)/R, and
    sgn(t) eps^3 sqrt(R^2-r^2) / (m(r) R); each solves the Jacobi equation on the
    sphere.  `point` is a Point, which gives a float, or a triple (x, y, t)
    of broadcastable arrays, which gives an array.
    """
    if isinstance(point, Point):
        return float(normal_component(spec, which, (point.x, point.y, point.t)))
    if which not in ("x", "y", "t"):
        raise ContractError(f"which must be 'x', 'y' or 't', got {which!r}")
    x, y, t = (np.asarray(v, dtype=float) for v in point)
    R = spec.R
    sg = np.sign(t)
    gap, m, p = _pieces(spec.params, np.hypot(x, y), R)
    p = p * sg
    if which == "x":
        return (x - y * p) / R
    if which == "y":
        return (y + x * p) / R
    return sg * gap * (spec.params.epsilon**3 / m) / R


def stable_hemispheres(spec: SphereSpec) -> dict:
    """The three hemispheres on which the sphere is stable, as predicates
    point -> normal_component(spec, w, point) > 0 keyed by w = 'x', 'y', 't';
    the one for the vertical field is exactly the northern hemisphere {t > 0}."""
    return {w: (lambda point, w=w: normal_component(spec, w, point) > 0.0) for w in ("x", "y", "t")}


def jacobi_potential(spec: SphereSpec, r):
    """|h|^2 + Ric(N) on the upper graph as a function of the radius.

    |h|^2 from the closed-form second fundamental form; the Ricci term is
    -2 tau^2 + 4 tau^2 <N, T>^2 (cross-checked against the curvature
    contraction in the tests).  DomainError unless r lies in [0, R];
    NumericsError where it is not finite, as where tau^2 overflows at tiny
    eps and R, or where the profile does.
    """
    return _potential(spec, _check_profile_domain(spec.R, r, closed=True))[0]


def _potential(spec: SphereSpec, r):
    """`jacobi_potential` at radii r in [0, R], and the g and m(r) of its one `_pieces` pass, from
    which <N, T> = sgn(f) g (eps^3/m)/R is `normal_component`'s 't' on the upper graph.  Errors come
    in this order: `_shape`'s, the profile height's (`_height`'s message), then the potential's."""
    params, h = spec.params, _shape(spec, r)[0]
    with np.errstate(over="ignore"):
        g, m, p = _pieces(params, r, spec.R)
        f = g * _kernel(g, m, params.sigma, p)[0]
    sg = np.sign(_require_finite(f, params, "the profile height", R=spec.R))
    theta_n = sg * g * (params.epsilon**3 / m) / spec.R  # <N, T>
    tau2 = _power(params.tau, 2, params, "the Jacobi potential", R=spec.R)
    with np.errstate(over="ignore", invalid="ignore"):
        potential = np.sum(h * h, axis=(-2, -1)) + (4.0 * theta_n * theta_n - 2.0) * tau2
    return _require_finite(potential, params, "the Jacobi potential", R=spec.R), g, m


def jacobi_residual(
    spec: SphereSpec,
    which: str,
    n: int = 400,
    band: float = 0.05,
) -> float:
    """Max |L g| over the sphere for a right-invariant normal component g, at the radii
    band*R, band*R + R/n, ... up to (1 - band)*R and below R (0 < band < 1/2).

    L g is evaluated in closed form on the meridian chart (`_jacobi_modes`), where it
    vanishes, so the value is rounding.  g = Re(G e^{i k theta}), so the maximum over the
    angles is |L_k G|: k = 0 and G = g_t for 't', k = 1 for 'x', and 'y' is -i times 'x'.
    Both maxima come from one potential (`_jacobi_maxima`), and this is the one asked for.
    DomainError unless 0 < band < 1/2 and 1 <= n <= `_MAX_SAMPLES`.
    """
    if which not in ("x", "y", "t"):
        raise ContractError(f"which must be 'x', 'y' or 't', got {which!r}")
    if not (0.0 < band < 0.5 and 1 <= n <= _MAX_SAMPLES):  # before np.arange allocates
        raise DomainError(f"jacobi_residual needs 0 < band < 1/2 and n >= 1, and n at most "
                          f"{_MAX_SAMPLES}, got {band!r}, {n!r}")
    return _require_finite(_jacobi_maxima(spec, n, band)[which != "t"], spec.params,
                           "the Jacobi residual of the {!r} mode", which, R=spec.R)


def _jacobi_maxima(spec: SphereSpec, n: int, band: float = 0.05) -> tuple[float, float]:
    """(max |L_0 g_t|, max |L_1 G|) of `jacobi_residual`, from one potential (`_potential`, whose
    one `_pieces` pass gives <N, T> and the chart's g and m); NaN with no warning where a term
    overflows, for the reader's `_require_finite` ('t' at eps = 1e-80)."""
    params, R = spec.params, spec.R
    h = R / n
    r = np.arange(band * R, min(R * (1.0 - band) + 0.5 * h, R), h)
    potential, g, m = _potential(spec, r)
    with np.errstate(over="ignore", invalid="ignore"):
        modes = _jacobi_modes(params.epsilon, params.sigma, R, r, g, m, potential)
        return tuple(float(np.max(np.abs(res))) for res in modes)


def _jacobi_modes(e, s, R, r, g, m, potential):
    """(L_0 g_t, L_1 G) at r = R sin(phi), g = R cos(phi), m = m(r) and P = `potential`, in plain
    arithmetic, so any number type runs it.  The sphere's metric is (eps R)^2 dphi^2 + rho^2
    dtheta^2, rho = r m / eps^2, so L(u e^{ik theta}) = e^{ik theta} L_k u with L_k u = (u'' +
    (rho'/rho) u') / (eps R)^2 - k^2 u / rho^2 + P u, ' = d/dphi (Barbosa, do Carmo and
    Eschenburg, Math. Z. 197, 1988).  g_t = eps^3 q with q = cos(phi)/m, and g_x + i g_y =
    v e^{i (Theta + theta)} with v = sin(phi)(1 + i sigma R q), as the meridian turns by
    Theta' = sigma r / m: G = v e^{i Theta}, and L_1 G is e^{i Theta} times the second value."""
    cs, sn = g / R, r / R
    m1 = s * s * r * g / m
    m2 = (s * s * (g * g - r * r) - m1 * m1) / m if s else 0.0 * m1  # g^2 may overflow at s = 0
    q = cs / m
    q1 = -(sn + cs * m1 / m) / m
    q2 = -(cs - 2.0 * sn * m1 / m + cs * (m2 - 2.0 * m1 * m1 / m) / m) / m
    log_rho1 = g / r + m1 / m  # rho'/rho
    h2 = 1.0 / (e * R * e * R)
    l0 = e * e * e * ((q2 + log_rho1 * q1) * h2 + potential * q)
    p, p1, p2 = s * R * q, s * R * q1, s * R * q2
    v = sn * (1.0 + 1j * p)
    v1 = cs * (1.0 + 1j * p) + 1j * sn * p1
    v2 = -sn * (1.0 + 1j * p) + 2j * cs * p1 + 1j * sn * p2
    th1, th2 = s * r / m, s * (g - r * m1 / m) / m  # Theta', Theta''
    u1 = v1 + 1j * th1 * v
    u2 = v2 + 2j * th1 * v1 + 1j * th2 * v - th1 * th1 * v
    inv_rho = e * e / (r * m)
    return l0, (u2 + log_rho1 * u1) * h2 - inv_rho * inv_rho * v + potential * v
