"""Pole-to-pole geodesics from the foliation normal.

The normal field of the sphere family is not geodesic: its self-derivative
is a tangent field whose normalization M sweeps each sphere from the north
pole to the south pole.  Its integral curves are intrinsic geodesics, and
they have a closed form: with r = R sin(phi) the arclength is eps R phi and
the twist about the axis is 2 arctan(tau eps R) from pole to pole.  We
sample one for the parameters R=2, eps=0.5, sigma=0.5, compare it with the
Runge-Kutta integral of the field, and write it out through the CLI as an
OBJ polyline (twisted meridians replacing the great circles of the round
sphere).
"""

import math

import numpy as np

from heisenberg_cmc import ModelParams, Point, SphereSpec, cli, profile_height
from heisenberg_cmc.meridians import (
    integrate_meridian,
    meridian_curve,
    meridian_geodesic_residual,
    pansu_geodesic_residual,
    pansu_meridian_field,
)

spec = SphereSpec(ModelParams(0.5, 0.5), R=2.0)
r0 = 0.04
start = Point(r0, 0.0, float(profile_height(spec, r0)))
curve = meridian_curve(spec, start, step=spec.R / 2000.0)

drift = max(
    abs(abs(pt) - float(profile_height(spec, min(math.hypot(px, py), spec.R))))
    for px, py, pt in curve.points
)
print(f"sampled {len(curve)} points, arclength {curve.s[-1]:.4f} "
      f"(pole to pole pi eps R = {math.pi * 0.5 * spec.R:.4f})")
print(f"stays on the sphere to {drift:.2e}")
print(f"geodesic-equation residual along the curve: "
      f"{meridian_geodesic_residual(spec, curve):.2e}")
print(f"endpoint: r = {math.hypot(curve.points[-1,0], curve.points[-1,1]):.2e}, "
      f"t = {curve.points[-1,2]:+.6f} (south pole at t = "
      f"{-float(profile_height(spec, 0.0)):+.6f})")

print("\n== the closed form against the Runge-Kutta integral of the field ==")
for step in (spec.R / 250.0, spec.R / 500.0, spec.R / 1000.0):
    exact = meridian_curve(spec, start, step)
    rk4 = integrate_meridian(spec, start, step)
    n = min(len(exact), len(rk4)) - 1  # the two end at the pole a sample apart
    gap = float(np.max(np.linalg.norm(exact.points[:n] - rk4.points[:n], axis=1)))
    print(f"step R/{spec.R / step:.0f}: largest distance {gap:.2e}")

print("\n== the same curve through the CLI, written as CSV, OBJ and JSON ==")
cli.main(["meridian", "--figure1", "--out-prefix", "meridian"])  # the spec, start and step above
print("wrote meridian.csv, meridian.obj (load it in any mesh viewer) and meridian.json")

print("\n== the scaled field becomes a horizontal geodesic flow ==")
q = Point(0.5, 0.2, 0.4)
for eps in (0.5, 0.25, 0.125):
    params = ModelParams(eps, 1.0)
    from heisenberg_cmc.meridians import meridian_field

    m = meridian_field(params, q)
    bar = pansu_meridian_field(1.0, q)
    dev = math.sqrt(
        (m.aX - bar.aX) ** 2 + (m.aY - bar.aY) ** 2 + (eps**3 * m.aT - bar.aT) ** 2
    )
    print(f"eps = {eps}:  |scaled field - horizontal limit field| = {dev:.3e}")

res = pansu_geodesic_residual(sigma=1.0, R=1.0, r=0.5)
print(f"\nlimit field satisfies the horizontal-geodesic equation: residual {res:.2e}")
