"""Three-dimensional coverage: the modules advertise n in {1, 2, 3}; these
exercise the 3D code paths at small sizes, plus one half-space solve at
acceptance size and one oscillation_atom run end to end."""

import numpy as np
import pytest

from phaselab.diagnostics import hoelder_quotient, level_set, lp_norm
from phaselab.energy import (
    ScalarField,
    c0,
    half_space_energy,
    modica_mortola,
    standard_potential,
    willmore_eps,
)
from phaselab.families import build_oscillating_boundary, bump
from phaselab.grid import make_half_space_grid
from phaselab.runner import run
from phaselab.solver import SolveConfig, solve_half_space


def _check_3d_half_space_solve(g):
    base = bump(g, 2.0, shape="exp_decay", amplitude=0.5, width=2.5)
    res = solve_half_space(base.samples, 1.0, standard_potential(), g,
                           SolveConfig(residual_tol=1e-8))
    assert res.residual <= 1e-8
    u = res.field.values
    assert u.min() >= 1.0 - 1e-8
    envelope = 1.0 + np.exp(-g.node_radii()) + 2 * g.spacing
    assert np.max(u - envelope) <= 0.0


def test_3d_half_space_solve_envelope():
    g, _ = make_half_space_grid(3, 3.0, 0.25, 1.0)
    _check_3d_half_space_solve(g)


def test_3d_half_space_solve_acceptance_size():
    # about 127k unknowns
    g, _ = make_half_space_grid(3, 8.0, 0.25, 1.0)
    assert g.shape == (65, 65, 33)
    _check_3d_half_space_solve(g)


def test_3d_energy_scaling_identity():
    g, roles = make_half_space_grid(3, 2.0, 0.25, 1.0)
    x, y, z = g.meshgrid()
    vals = 1.0 + np.exp(-(x ** 2 + y ** 2 + (z - 0.5) ** 2))
    u = ScalarField(g, vals, roles)
    eps = 0.25
    u_eps = ScalarField(g.scaled(eps), vals, u.roles)
    assert modica_mortola(u_eps, eps) == pytest.approx(
        eps ** 2 * half_space_energy(u) / c0(), rel=1e-12)
    assert willmore_eps(ScalarField(g.scaled(eps), np.ones(g.shape), u.roles),
                        eps) == 0.0


def test_3d_regions_and_levels():
    g, roles = make_half_space_grid(3, 2.0, 0.25, 1.0)
    x, y, z = g.meshgrid()
    u = ScalarField(
        g, np.tanh((1.0 - np.sqrt(x ** 2 + y ** 2 + z ** 2)) / 0.3), roles)
    cells = level_set(u, (-0.25, 0.25))
    assert not cells.is_empty
    radii = np.linalg.norm(cells.centers(), axis=1)
    assert 0.7 < radii.min() and radii.max() < 1.3
    assert lp_norm(u, "inf") <= 1.0


def test_3d_hoelder_offsets():
    g, roles = make_half_space_grid(3, 2.0, 0.25, 1.0)
    x, y, z = g.meshgrid()
    u = ScalarField(g, 0.5 * x + 0.25 * y, roles)
    # eps admits the (2, 1, 0) offset aligned with the gradient direction,
    # so the Lipschitz rate sqrt(0.5^2 + 0.25^2) is attained exactly
    probe = hoelder_quotient(u, 0.25 * np.sqrt(5.0) + 1e-9, 1.0)
    assert probe.quotient == pytest.approx(np.hypot(0.5, 0.25), rel=1e-9)


def test_3d_oscillating_boundary():
    g, _ = make_half_space_grid(3, 1.5, 1 / 16, 1.0)
    bd = build_oscillating_boundary(0.002, 0.1, g)
    assert bd.samples.shape == (49, 49)
    assert 0.002 <= bd.meta["seminorm"] <= 0.0022
    assert bd.samples.max() <= 0.1
    r = bd.radii()
    assert np.all(bd.samples[r > 1.0] == 0.0)


def test_3d_oscillation_atom_run_passes(tmp_path):
    # n = 3: the trace seminorm is summed on a 129x129 face; the shipped
    # 2D target S_prime 0.1 needs a finer face than unit_spacing 1/32
    summary = run({"experiment": "oscillation_atom", "n": 3,
                   "output_dir": str(tmp_path),
                   "params": {"unit_spacing": 1 / 32, "S_prime": 0.02,
                              "delta": 0.15, "R": 2.0,
                              "residual_tol": 1e-6}})
    assert len(summary.assertions) == 5
    assert summary.passed, [a.id for a in summary.assertions if not a.passed]
