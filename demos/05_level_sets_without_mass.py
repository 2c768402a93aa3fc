"""Level sets that survive while every measure dies.

Boundary data 1 - h dipping to -1 at a single face point forces the field
through every value in (-1, 1) near the origin.  Rescaling by eps shrinks
the transition pocket to a point: the mid-range level sets converge to the
origin in Hausdorff distance although both limiting measures are zero.
"""

import numpy as np

from phaselab import (
    build_family,
    hausdorff_distance,
    level_set,
    lp_norm,
)

family = build_family(
    "hausdorff_levelset",
    (0.2, 0.12, 0.08),
    {"n": 2, "L": 0.5, "unit_spacing": 1 / 12, "residual_tol": 1e-6},
)

origin = np.zeros(2)
print("  eps    sup|u|       S_eps     cells in |u|<=1/4   dist to origin")
for m in family.members:
    cells = level_set(m.field, (-0.25, 0.25))
    dist = hausdorff_distance(cells, origin)
    print(f"  {m.eps:<5}  {lp_norm(m.field, 'inf'):.6f}  {m.energy.S_eps:9.5f}"
          f"   {cells.count():12d}      {dist:8.4f} (= {dist / m.eps:.2f} eps)")

print("\nfields stay inside [-1, 1]; the level band collapses onto the")
print("origin at speed O(eps) while the total mass drains to zero")
