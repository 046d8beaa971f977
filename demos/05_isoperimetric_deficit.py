"""Quantitative isoperimetric deficit for perturbed spheres.

Random volume-preserving perturbations of the upper hemisphere (one bump
added, one removed, amplitudes matched so the enclosed volume is exact)
always cost area, and the cost is bounded below by an explicit power of
the perturbed volume.  At small amplitude the cost is quadratic: the
sphere is area-stationary under the volume constraint.
"""

import numpy as np

from heisenberg_cmc import ModelParams, SphereSpec
from heisenberg_cmc.foliation import CylinderSpec
from heisenberg_cmc.isoperimetry import (
    calibration_gain,
    deficit_report,
    jacobi_residual,
    make_competitor,
    symdiff_monte_carlo,
)

spec = SphereSpec(ModelParams(1.0, 1.0), R=1.0)
cyl = CylinderSpec(spec, delta=0.3)
rng = np.random.default_rng(7)

print("== ten random volume-preserving competitors ==")
print("  symdiff        area excess    lower bound    slack")
for _ in range(10):
    rep = deficit_report(make_competitor(spec, cyl, rng))
    print(f"  {rep.symdiff:.6e}  {rep.deficit:.6e}  {rep.bound:.6e}  {rep.slack:+.3e}")

comp = make_competitor(spec, cyl, np.random.default_rng(3), amplitude=0.03)
rep = deficit_report(comp)
mc = symdiff_monte_carlo(comp)
print(f"\nMonte-Carlo check of one symmetric difference: "
      f"{mc:.6e} vs closed form {rep.symdiff:.6e}")

gain, chain = calibration_gain(comp)
print(f"calibration chain: excess {rep.deficit:.6e} >= (2/eps R) * gain = {chain:.6e} "
      f">= power bound {rep.bound:.6e}")

print("\n== the excess is quadratic in the amplitude ==")
scales = np.geomspace(2e-4, 2e-3, 6)
defs = [deficit_report(comp.scaled(s / comp.amp_add)).deficit for s in scales]
for s, d in zip(scales, defs):
    print(f"  amplitude {s:.1e}:  excess {d:.3e}")
exponent = float(np.polyfit(np.log(scales), np.log(defs), 1)[0])
print(f"fitted scaling exponent: {exponent:.3f} (stationarity says 2)")

print("\n== Jacobi solutions ==")
for which in ("x", "y", "t"):
    print(f"  normal component of the right-invariant {which}-field: "
          f"max |L g| = {jacobi_residual(spec, which):.2e} in closed form on the meridian chart")
print("The three right-invariant fields generate translations; their normal "
      "components annihilate the stability operator, which pins the spheres "
      "as critical shapes.")
