"""Pinning the diffuse mass and watching it collapse to a boundary point.

For each eps, the bump height theta_eps is tuned (monotone root-find on
the strictly increasing energy-vs-theta map) so the diffuse perimeter
equals S exactly.  The mass then concentrates on shrinking balls around
the origin: the weak-star limit is an atom of size S at one boundary
point, reached with zero curvature energy at every scale.
"""

from phaselab import EpsilonSchedule, build_family, concentration_scan

S = 1.0
eps_list = (0.3, 0.2, 0.15)

family = build_family(
    "boundary_atom",
    EpsilonSchedule(eps_list),
    {"n": 2, "S": S, "L": 0.6, "unit_spacing": 1 / 12, "residual_tol": 1e-6},
)

print("  eps    theta     S_eps        W_eps")
for m in family.members:
    print(f"  {m.eps:<5}  {m.parameter:7.4f}  {m.energy.S_eps:.8f}"
          f"  {m.energy.W_eps:.2e}")

report = concentration_scan(family, (0.0, 0.0), radii=(0.25, 0.1))
print("\nconcentration of the mass measure around the origin:")
print("  eps    ratio in B_0.25   ratio in B_0.1   outside B_sqrt(eps)")
for row in report.rows:
    print(f"  {row.eps:<5}  {row.ratios[0.25]:14.5f}   {row.ratios[0.1]:13.5f}"
          f"   {row.mass_outside_sqrt_eps / row.total_mass:.2e}")
print(f"\nextrapolated atom size: {report.atom_size_estimate:.4f} (target {S})")
