"""Hoelder continuity failing at the boundary and surviving inside.

Compressing the boundary bump at rate omega_eps = eps^(-1/2) makes the
scaled difference quotients at the wall grow without bound, while the same
probe on the shrunken interior domain (all faces at distance > 2 eps)
stays flat: interior regularity is immune to wild traces.
"""

import numpy as np

from phaselab import EpsilonSchedule, build_family, hoelder_quotient
from phaselab.diagnostics import interior_region_mask

family = build_family(
    "hoelder_blowup",
    EpsilonSchedule((0.2, 0.1, 0.05)),
    {"n": 2, "window": 12.0, "points_per_unit_scale": 6.0,
     "residual_tol": 1e-6},
)

gamma = 0.5
print("  eps    omega    eps^0.5 * q(wall)    q(interior)")
for m in family.members:
    g = m.field.grid
    z = g.axis_coords(1)
    strip = np.broadcast_to((z <= z[0] + 2.5 * g.spacing)[None, :],
                            g.shape).copy()
    q_wall = hoelder_quotient(m.field, m.eps, gamma, strip)
    q_int = hoelder_quotient(m.field, m.eps, gamma,
                             interior_region_mask(g, 2 * m.eps),
                             mode="dyadic")
    print(f"  {m.eps:<5}  {m.parameter:5.2f}   "
          f"{m.eps ** gamma * q_wall.quotient:16.4f}    {q_int.quotient:.4f}")

print("\nthe wall probe diverges along the sweep; the interior probe is flat")
