"""An atom of trace energy with fields confined to [-1, 1].

Vertical growth is not the only road to boundary singularities: rapidly
oscillating data with amplitude below delta carries an arbitrarily large
half-order trace seminorm, which lower-bounds the gradient energy of any
extension.  Solving with the floor-clamped potential keeps the minimizer
above 1 - 2 delta, so the whole construction lives inside [-1, 1].
"""

from phaselab import (
    build_family,
    build_oscillating_boundary,
    h_half_seminorm,
    make_half_space_grid,
)

S_prime, delta = 0.1, 0.15

# the data construction alone: frequency doubles until the seminorm target
# is reached, then a constant < 1 removes the overshoot
grid, _ = make_half_space_grid(2, 2.0, 1 / 128, 1.0)
data = build_oscillating_boundary(S_prime, delta, grid)
print(f"frequency {data.meta['frequency']:.0f}, "
      f"scale {data.meta['scale']:.3f}, "
      f"seminorm {data.meta['seminorm']:.4f} (target {S_prime})")
print(f"0 <= h <= {data.samples.max():.4f} <= delta = {delta}")
print(f"recomputed: {h_half_seminorm(data):.4f}")

family = build_family(
    "oscillation_atom",
    (0.1,),
    {"n": 2, "S_prime": S_prime, "delta": delta, "R": 2.0,
     "unit_spacing": 1 / 128, "residual_tol": 1e-6},
)
m = family.members[0]
print(f"\nminimum of the solution: {m.certificates['min_u']:.4f} "
      f">= 1 - 2 delta = {1 - 2 * delta}")
print(f"gradient energy {m.certificates['dirichlet_energy']:.4f} "
      f">= seminorm {m.certificates['seminorm']:.4f}")
print(f"curvature energy {m.energy.W_eps:.2e} (zero: stationary field)")
