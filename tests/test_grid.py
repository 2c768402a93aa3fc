
import math

import numpy as np
import pytest
from scipy.integrate import quad

from phaselab.diagnostics import region_mass
from phaselab.energy import EnergyBreakdown, ScalarField, density_fields
from phaselab.grid import (
    Dirichlet,
    Grid,
    GridBudgetError,
    NeumannZero,
    check_roles,
    half_space_roles,
    make_half_space_grid,
    tail_bound,
)


def test_half_space_1d_example():
    g, roles = make_half_space_grid(1, 10.0, 0.1, 1.0)
    assert g.shape == (101,)
    assert g.origin == (0.0,)
    assert isinstance(roles[(0, "low")], Dirichlet)
    assert isinstance(roles[(0, "high")], Dirichlet)


def test_half_space_2d_example():
    g, roles = make_half_space_grid(2, 8.0, 0.25, 1.0)
    assert g.shape == (65, 33)
    assert g.extent(0) == (-8.0, 8.0)
    assert g.extent(1) == (0.0, 8.0)
    for face in ((0, "low"), (0, "high"), (1, "low"), (1, "high")):
        assert isinstance(roles[face], Dirichlet)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_half_space_grid_roles_match_the_role_builder(n):
    g, roles = make_half_space_grid(n, 2.0, 0.25, 0.5)
    built = half_space_roles(g)
    assert list(roles.items()) == list(built.items())


def test_check_roles_admits_only_dirichlet_and_neumann_zero():
    # the curvature density zeroes Dirichlet faces and mirrors the rest,
    # which is right only for these two kinds of face
    g, roles = make_half_space_grid(2, 2.0, 0.25, 1.0)
    check_roles(g, roles)
    roles[(0, "high")] = object()
    with pytest.raises(TypeError, match="unknown role"):
        check_roles(g, roles)


def test_node_coords_by_multiplication():
    g = Grid((7,), 0.1, (0.3,))
    x = g.axis_coords(0)
    assert np.array_equal(x, 0.3 + np.arange(7) * 0.1)


def test_construction_errors():
    with pytest.raises(ValueError):
        make_half_space_grid(1, 10.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        make_half_space_grid(1, 0.2, 0.1, 1.0)      # R < 4 spacing
    with pytest.raises(ValueError):
        make_half_space_grid(4, 10.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        make_half_space_grid(2, 1.05, 0.1, 1.0)     # R/spacing not integral
    with pytest.raises(GridBudgetError):
        make_half_space_grid(3, 10.0, 0.01, 1.0)    # 2001 x 2001 x 1001
    with pytest.raises(ValueError):
        Grid((2, 5), 0.1, (0.0, 0.0))               # < 3 nodes on an axis
    # a non-finite spacing, R or origin is named, not gridded or overflowed
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"spacing .* got {bad}"):
            Grid((3, 3), bad, (0.0, 0.0))
        with pytest.raises(ValueError, match=f"spacing .* got {bad}"):
            make_half_space_grid(2, 1.0, bad, 1.0)
        with pytest.raises(ValueError, match=f"R .* got {bad}"):
            make_half_space_grid(2, bad, 0.25, 1.0)
        with pytest.raises(ValueError, match=rf"origin .* got \(0.0, {bad}\)"):
            Grid((3, 3), 0.1, (0.0, bad))


def test_every_grid_has_one_node_budget():
    assert Grid((2000, 4000), 0.1, (0.0, 0.0)).shape == (2000, 4000)
    with pytest.raises(GridBudgetError, match="8000001 nodes"):
        Grid((8_000_001,), 0.1, (0.0,))


def test_region_basics():
    g, _ = make_half_space_grid(2, 2.0, 0.25, 1.0)
    # ball membership is strict: a radius-0 ball is empty even with an
    # on-node center
    assert (g.node_radii((0.0, 1.0)) < 0.0).sum() == 0
    assert (g.node_radii((0.0, 1.0)) < 0.25).sum() == 1
    assert np.array_equal(g.node_radii(), g.node_radii((0.0, 0.0)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_node_radii_are_the_face_radii_of_the_shifted_axes(n):
    # bitwise equal to the reference sum over full meshgrid copies
    g = Grid((7, 6, 5)[:n], 0.3, (-0.9, 0.2, -0.45)[:n])
    center = np.array((0.37, -1.1, 0.05)[:n])
    r2 = np.zeros(g.shape)
    for a, x in enumerate(g.meshgrid()):
        r2 += (x - center[a]) ** 2
    assert g.node_radii(center).tobytes() == np.sqrt(r2).tobytes()


@pytest.mark.parametrize("threshold", [-0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
def test_absolute_superlevel_matches_abs(threshold):
    # the energy pass selects {|u| >= theta} without a temporary for |u|;
    # its excess mass must be the mass over exactly that mask
    g = Grid((4, 5), 0.1, (0.0, 0.0))
    vals = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0,
                     -np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
                     *np.linspace(-1.5, 1.5, 10)]).reshape(g.shape)
    u = ScalarField(g, vals, {(a, s): NeumannZero() for a in range(2)
                              for s in ("low", "high")})
    mu, _ = density_fields(u, 0.3)
    assert np.all(mu.values > 0.0)
    got = EnergyBreakdown.of(u, 0.3, theta=threshold).excess_mass
    assert got == region_mass(mu, np.abs(vals) >= threshold)


def test_refinement_consistency():
    # volume of a fixed ball region converges at first order in the spacing
    exact = np.pi * 0.8 ** 2
    errors = []
    for spacing in (0.2, 0.1, 0.05, 0.025):
        g, _ = make_half_space_grid(2, 4.0, spacing, 1.0)
        vol = (g.node_radii((0.0, 1.0)) < 0.8).sum() * g.cell_measure
        errors.append(abs(vol - exact))
    for h, err in zip((0.2, 0.1, 0.05, 0.025), errors):
        assert err <= 2.5 * h * 0.8          # C * spacing with C ~ perimeter


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tail_bound_vs_quadrature(n):
    for R in (1.0, 3.0, 6.0):
        oracle = 2.0 * quad(lambda r: np.exp(-2 * r) * r ** (n - 1),
                            R, np.inf)[0]
        assert tail_bound(n, R) == pytest.approx(oracle, rel=1e-9)
        # max(theta^2, theta^4) scaling of the bump factor
        unit = tail_bound(n, R)
        assert tail_bound(n, R, 10.0) == pytest.approx(1e4 * unit, rel=1e-14)
        assert tail_bound(n, R, 0.5) == pytest.approx(0.25 * unit, rel=1e-14)
