"""A family that blows up in sup-norm while every energy vanishes.

Scaling the boundary bump by theta_eps = eps^-theta_exponent -> infinity
and the coordinates by eps makes the fields unbounded; as long as
eps^(n-1) theta_eps^4 -> 0, that is 4 theta_exponent < n - 1, the
diffuse perimeter still vanishes, and the curvature energy is identically
zero because every member is a rescaled stationary solution.
"""

import numpy as np

from phaselab import build_family, lp_norm

family = build_family(
    "unbounded",
    (0.2, 0.12, 0.08),
    {"n": 2, "L": 0.4, "unit_spacing": 1 / 12, "base_amplitude": 3.0,
     "theta_exponent": 0.125, "residual_tol": 1e-6},
)

print("  eps    theta    sup|u|     S_eps       W_eps")
for m in family.members:
    sup = lp_norm(m.field, "inf")
    print(f"  {m.eps:<6} {m.parameter:.4f}  {sup:8.4f}  {m.energy.S_eps:9.5f}"
          f"  {m.energy.W_eps:.2e}")

sups = [lp_norm(m.field, "inf") for m in family.members]
S = [m.energy.S_eps for m in family.members]
print(f"\nsup-norms increase: {all(np.diff(sups) > 0)};"
      f" masses decrease: {all(np.diff(S) < 0)}")
print("the same diagnostics that stay bounded for tame data diverge here")
