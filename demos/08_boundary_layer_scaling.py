"""Quadratic decay of the excess-set mass under zero-Neumann faces.

Fields in the zero-Neumann class with bounded energies can exceed the
wells only on a set whose diffuse mass scales like eps^2.  The stripe
profiles with plateau perturbations of amplitude ~ eps^(3/2) realize that
scaling, and a log-log fit over the sweep recovers the exponent.
"""

import numpy as np

from phaselab import boundary_layer_mass, density_fields, neumann_layer_field

eps_list = [0.064, 0.032, 0.016, 0.008]
masses = []
print("  eps      mass of {|u| >= 1}")
for eps in eps_list:
    u = neumann_layer_field(eps)
    mu, _ = density_fields(u, eps)
    mass = boundary_layer_mass(u, mu, theta=1.0)
    masses.append(mass)
    print(f"  {eps:<7}  {mass:.3e}")

slope = np.polyfit(np.log(eps_list), np.log(masses), 1)[0]
print(f"\nfitted exponent: {slope:.3f}  (the excess set fades quadratically)")
