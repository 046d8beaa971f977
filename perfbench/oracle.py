"""Closed forms the benchmark checks the program's outputs against.

Everything here is written from the paper's formulas directly, in forms
that differ from the library's (the profile uses arctan(p) instead of
the library's sqrt(R^2 - r^2) * atanc(p) rewrite), so an error in the
library is not repeated here.  Everything broadcasts over numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np


def tau(eps: float, sigma: float) -> float:
    return sigma / eps**4


def omega(eps: float, sigma: float, r):
    return np.sqrt(1.0 + (tau(eps, sigma) * eps * np.asarray(r, dtype=float)) ** 2)


def profile(eps: float, sigma: float, R: float, r):
    """f(r; R) = (eps^2 / 2 tau) [w(R)^2 arctan(p) + w(r)^2 p] (needs sigma > 0)."""
    r = np.asarray(r, dtype=float)
    ta = tau(eps, sigma)
    gap = np.sqrt(np.maximum(R * R - r * r, 0.0))
    wr = omega(eps, sigma, r)
    p = ta * eps * gap / wr
    return (eps * eps / (2.0 * ta)) * (omega(eps, sigma, R) ** 2 * np.arctan(p) + wr * wr * p)


def pansu_profile(sigma: float, R: float, r):
    """Sub-Riemannian limit (sigma/2) [R^2 arccos(r/R) + r sqrt(R^2 - r^2)]."""
    r = np.asarray(r, dtype=float)
    return 0.5 * sigma * (R * R * np.arccos(np.clip(r / R, 0.0, 1.0))
                          + r * np.sqrt(np.maximum(R * R - r * r, 0.0)))


def limit_gap(eps: float, sigma: float, R: float) -> float:
    """Allowed relative distance from the sub-Riemannian limit at this eps.

    The corrections to the limit profile are of order 1 / rho_R^2 with
    rho_R = tau eps R = sigma R / eps^3; four times that, plus a roundoff
    floor, bounds every quantity the ladder compares with its limit.
    """
    rho = sigma * R / eps**3
    return 4.0 / (rho * rho) + 1e-10


def subriemannian_half_area(sigma: float, R: float) -> float:
    """Limit of eps * area / 2 as eps -> 0: pi^2 sigma R^3 / 2."""
    return 0.5 * math.pi**2 * sigma * R**3


def principal_curvatures(eps: float, sigma: float, R: float, r):
    """H +/- rho^2/(1+rho^2) sqrt(H^2 + tau^2), rho = tau eps r, H = 1/(eps R)."""
    ta = tau(eps, sigma)
    H = 1.0 / (eps * R)
    rho2 = (ta * eps * np.asarray(r, dtype=float)) ** 2
    spread = rho2 / (1.0 + rho2) * math.hypot(H, ta)
    return H + spread, H - spread


def deficit_constants(eps: float, sigma: float, R: float) -> tuple[float, float]:
    """(C, D) of the quantitative isoperimetric bounds, from
    k = eps^3 w(R) sqrt(R) and f(0; R)."""
    k = eps**3 * float(omega(eps, sigma, R)) * math.sqrt(R)
    f0 = float(profile(eps, sigma, R, 0.0))
    c = 1.0 / (4.0 * math.pi * eps * R**3 * (R * k + f0))
    d = 1.0 / (12.0 * eps * math.pi**2 * R**5 * (4.0 * R * k * k + f0 * f0))
    return c, d
