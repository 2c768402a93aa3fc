"""Diffuse perimeter and curvature energies of the optimal 1D profile.

The interface profile tanh((x - x0) / (sqrt(2) eps)) carries exactly one
unit of normalized perimeter and solves the stationary equation, so its
curvature energy is numerically zero once the samples are relaxed to the
discrete stationary state.  The script reproduces both numbers and shows
where the diffuse mass sits.
"""

import math

import numpy as np

from phaselab import (
    ScalarField,
    SolveConfig,
    c0,
    density_fields,
    make_half_space_grid,
    modica_mortola,
    solve_half_space,
    standard_potential,
    willmore_eps,
)

eps = 0.1
spacing = eps / 8

# Work at unit scale: the stationary problem for u(eps * y) on [0, 100].
grid, _ = make_half_space_grid(1, 10.0 / eps, spacing / eps, 1.0)
y = grid.axis_coords(0)
profile = np.tanh((y - 50.0) / math.sqrt(2.0))

print(f"normalizing constant c0 = {c0():.8f}")

# Relax the sampled profile to the discrete stationary state (the samples
# alone carry an O(spacing^2) stationarity defect).
res = solve_half_space(np.asarray(profile[0] - 1.0), 1.0,
                       standard_potential(), grid,
                       SolveConfig(residual_tol=1e-10), initial=profile)
print(f"relaxed in {res.iterations} steps, residual {res.residual:.1e}")

# Transport to the physical grid on [0, 10] and evaluate the energies.
phys = ScalarField(grid.scaled(eps), res.field.values, res.field.roles)
S = modica_mortola(phys, eps)
W = willmore_eps(phys, eps)
print(f"S_eps = {S:.6f}   (one unit of interface)")
print(f"W_eps = {W:.2e}  (stationary profile: numerically zero)")

# The diffuse mass concentrates in a band of width O(eps) at the interface.
mu, _ = density_fields(phys, eps)
x = phys.grid.axis_coords(0)
near = np.abs(x - 5.0) <= 6 * eps
frac = mu.values[near].sum() / mu.values.sum()
print(f"mass within 6 eps of the interface: {100 * frac:.2f}%")
