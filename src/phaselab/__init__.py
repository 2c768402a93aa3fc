"""phaselab: a desk-scale laboratory for diffuse perimeter and curvature
energies of phase-fields near domain boundaries.

The package discretizes the scaled double-well energies on uniform grids,
minimizes the unit-scale energy on truncated half-spaces, assembles
epsilon-indexed families with certified vanishing curvature energy, and
quantifies how their localized measures behave at the boundary
(concentration, level-set geometry, Hoelder quotients, excess-set mass).
"""

from .energy import (
    EnergyBreakdown,
    Potential,
    ScalarField,
    c0,
    density_fields,
    half_space_energy,
    laplacian,
    modica_mortola,
    modified_floor_potential,
    standard_potential,
    willmore_eps,
)
from .families import (
    BoundaryData,
    CounterexampleFamily,
    build_family,
    build_oscillating_boundary,
    bump,
    f_of_theta,
    find_theta_for_mass,
    h_half_seminorm,
    neumann_layer_field,
)
from .diagnostics import (
    boundary_layer_mass,
    concentration_scan,
    hausdorff_distance,
    hoelder_quotient,
    level_set,
    lp_norm,
    region_mass,
)
from .fieldio import load_field, save_field
from .grid import Grid, make_half_space_grid, tail_bound
from .solver import (
    SolveConfig,
    SolveResult,
    comparison_check,
    residual_field,
    solve_half_space,
    uniqueness_check,
)

__version__ = "0.1.0"
