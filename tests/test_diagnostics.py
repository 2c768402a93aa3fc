import math

import numpy as np
import pytest

from phaselab.diagnostics import (
    EmptySetError,
    boundary_layer_mass,
    hausdorff_distance,
    hoelder_quotient,
    interior_region_mask,
    level_set,
    lp_norm,
    region_mass,
)
from phaselab.energy import ScalarField, density_fields, modica_mortola
from phaselab.grid import (
    Ball,
    Complement,
    Grid,
    GridMismatchError,
    WholeDomain,
    make_half_space_grid,
)


def tanh_field_1d(eps=0.1, x0=5.0, length=10.0, div=8):
    spacing = eps / div
    m = round(length / spacing)
    g = Grid((m + 1,), length / m, (0.0,))
    vals = np.tanh((g.axis_coords(0) - x0) / (math.sqrt(2.0) * eps))
    return ScalarField.from_values(g, vals)


def tanh_circle_2d(eps=0.1, r0=1.0, L=3.0, div=8):
    spacing = eps / div
    m = round(2 * L / spacing)
    g = Grid((m + 1, m + 1), 2 * L / m, (-L, -L))
    X, Z = g.meshgrid()
    r = np.sqrt(X ** 2 + Z ** 2)
    vals = np.tanh((r0 - r) / (math.sqrt(2.0) * eps))
    return ScalarField.from_values(g, vals)


# --------------------------------------------------------------------------
# masses
# --------------------------------------------------------------------------

def test_region_mass_whole_equals_energy():
    u = tanh_field_1d()
    mu, _ = density_fields(u, 0.1)
    assert region_mass(mu, WholeDomain()) == modica_mortola(u, 0.1)


def test_region_mass_grid_mismatch():
    u = tanh_field_1d()
    mu, _ = density_fields(u, 0.1)
    with pytest.raises(GridMismatchError):
        region_mass(mu, Ball((0.0, 0.0), 1.0))


def test_partition_additivity():
    u = tanh_circle_2d()
    mu, _ = density_fields(u, 0.1)
    ball = Ball((0.0, 0.0), 1.0)
    total = region_mass(mu, WholeDomain())
    assert region_mass(mu, ball) + region_mass(mu, Complement(ball)) \
        == pytest.approx(total, rel=1e-13)


def test_annulus_far_from_interface_carries_no_mass():
    u = tanh_circle_2d(eps=0.1, r0=1.0)
    mu, _ = density_fields(u, 0.1)
    total = region_mass(mu, WholeDomain())
    inner = region_mass(mu, Ball((0.0, 0.0), 2.0))
    assert (total - inner) / total <= 1e-6


def test_boundary_layer_mass_trivials():
    # short domain keeps the discrete samples strictly inside (-1, 1)
    u = tanh_field_1d(length=4.0, x0=2.0)
    assert np.abs(u.values).max() < 1.0
    mu, _ = density_fields(u, 0.1)
    assert boundary_layer_mass(u, mu, theta=1.0) == 0.0
    assert boundary_layer_mass(u, mu, theta=1.5) == 0.0
    with pytest.raises(ValueError):
        boundary_layer_mass(u, mu, theta=0.5)


def test_boundary_layer_mass_counts_overshoot():
    g = Grid((21,), 0.1, (0.0,))
    vals = np.ones(21)
    vals[5:8] = 1.2
    u = ScalarField.from_values(g, vals)
    mu, _ = density_fields(u, 0.1)
    assert boundary_layer_mass(u, mu, theta=1.0) > 0.0


def test_boundary_layer_mass_is_the_density_on_the_excess_set():
    from phaselab.families import neumann_layer_field
    u = neumann_layer_field(0.064)
    mu, _ = density_fields(u, 0.064)
    excess = np.abs(u.values) >= 1.0
    want = float(np.sum(mu.values[excess])) * u.grid.cell_measure
    assert boundary_layer_mass(u, mu) == want > 0.0


# --------------------------------------------------------------------------
# level sets and hausdorff distance
# --------------------------------------------------------------------------

def test_level_set_constant_is_empty():
    g = Grid((11, 11), 0.1, (0.0, 0.0))
    u = ScalarField.from_values(g, np.ones(g.shape))
    cells = level_set(u, (-0.5, 0.5))
    assert cells.is_empty


def test_level_set_tanh_inversion_oracle():
    eps = 0.1
    u = tanh_field_1d(eps=eps)
    cells = level_set(u, (-0.1, 0.1))
    assert not cells.is_empty
    # analytic inversion: |u| <= 0.1 within sqrt(2) eps atanh(0.1) of x0
    half_width = math.sqrt(2.0) * eps * math.atanh(0.1)
    centers = cells.centers()[:, 0]
    assert np.all(np.abs(centers - 5.0) <= half_width + u.grid.spacing)


def test_level_set_monotone_in_interval():
    u = tanh_circle_2d()
    small = level_set(u, (-0.1, 0.1)).mask
    large = level_set(u, (-0.5, 0.5)).mask
    assert np.all(large[small])


def test_level_set_interval_validation():
    u = tanh_field_1d()
    with pytest.raises(ValueError):
        level_set(u, (0.5, -0.5))
    with pytest.raises(ValueError):
        level_set(u, (-1.0, 0.5))


def test_hausdorff_identity_and_pythagoras():
    A = np.array([[0.0, 0.0], [1.0, 2.0]])
    assert hausdorff_distance(A, A) == 0.0
    assert hausdorff_distance(np.array([[0.0, 0.0]]),
                              np.array([[3.0, 4.0]])) == 5.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hausdorff_matches_cdist_bitwise(n):
    from scipy.spatial.distance import cdist

    def reference(p, q, chunk):
        return max(float(cdist(p[s:s + chunk], q).min(axis=1).max())
                   for s in range(0, len(p), chunk))

    rng = np.random.default_rng(40 + n)
    for _ in range(50):
        scale = 10.0 ** rng.uniform(-3, 3)
        A = scale * rng.standard_normal((int(rng.integers(8, 120)), n))
        B = scale * (rng.standard_normal((int(rng.integers(8, 120)), n))
                     + rng.uniform(-1, 1, n))
        chunk = int(rng.integers(1, len(A) // 2))
        expected = max(reference(A, B, chunk), reference(B, A, chunk))
        assert hausdorff_distance(A, B, chunk=chunk) == expected


def test_hausdorff_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        hausdorff_distance(np.zeros((3, 2)), np.zeros((3, 3)))


def test_hausdorff_symmetry_triangle():
    rng = np.random.default_rng(3)
    A, B, C = (rng.uniform(-1, 1, size=(8, 2)) for _ in range(3))
    dab = hausdorff_distance(A, B)
    dba = hausdorff_distance(B, A)
    assert dab == dba
    assert dab <= hausdorff_distance(A, C) + hausdorff_distance(C, B) + 1e-12


def test_hausdorff_empty_input():
    with pytest.raises(EmptySetError):
        hausdorff_distance(np.zeros((0, 2)), np.array([[0.0, 0.0]]))
    u = ScalarField.from_values(Grid((11,), 0.1, (0.0,)), np.ones(11))
    empty = level_set(u, (-0.5, 0.5))
    with pytest.raises(EmptySetError):
        hausdorff_distance(empty, np.array([[0.0]]))


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

def test_lp_norm_unit_field():
    # 10 nodes at spacing 0.1 carry unit total measure
    g = Grid((10,), 0.1, (0.0,))
    u = ScalarField.from_values(g, np.ones(10))
    for p in (1, 2, 4):
        assert lp_norm(u, p) == pytest.approx(1.0, rel=1e-14)
    assert lp_norm(u, "inf") == 1.0


def test_lp_norm_monotone_in_p():
    g = Grid((10,), 0.1, (0.0,))
    rng = np.random.default_rng(5)
    u = ScalarField.from_values(g, rng.uniform(-2, 2, 10))
    norms = [lp_norm(u, p) for p in (1, 2, 4, 8)]
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))
    assert lp_norm(u, np.inf) >= norms[-1] - 1e-12


def test_lp_norm_validation():
    g = Grid((10,), 0.1, (0.0,))
    u = ScalarField.from_values(g, np.ones(10))
    with pytest.raises(ValueError):
        lp_norm(u, 0.5)


# --------------------------------------------------------------------------
# Hoelder quotients
# --------------------------------------------------------------------------

def test_hoelder_constant_zero():
    g = Grid((21, 21), 0.05, (0.0, 0.0))
    u = ScalarField.from_values(g, np.full(g.shape, 0.7))
    probe = hoelder_quotient(u, 0.2, 0.5)
    assert probe.quotient == 0.0


def test_hoelder_linear_gamma_one():
    m = 3.7
    g = Grid((41,), 0.05, (0.0,))
    u = ScalarField.from_values(g, m * g.axis_coords(0))
    probe = hoelder_quotient(u, 0.3, 1.0)
    assert probe.quotient == pytest.approx(m, rel=1e-12)
    assert probe.pair is not None


def test_hoelder_linear_gamma_half_attained_at_scale():
    m = 2.0
    g = Grid((81,), 0.05, (0.0,))
    u = ScalarField.from_values(g, m * g.axis_coords(0))
    eps = 0.4
    probe = hoelder_quotient(u, eps, 0.5)
    # for a linear field the quotient m * d^(1/2) peaks at the widest pair
    d_max = math.floor(eps / g.spacing) * g.spacing
    assert probe.quotient == pytest.approx(m * math.sqrt(d_max), rel=1e-12)
    assert probe.pair_distance == pytest.approx(d_max)


def test_hoelder_region_restriction_and_modes():
    g = Grid((41, 41), 0.05, (0.0, 0.0))
    X, Z = g.meshgrid()
    u = ScalarField.from_values(g, np.sin(4 * X) * np.exp(-Z))
    interior = interior_region_mask(g, 0.3)
    assert interior.any() and not interior.all()
    q_ex = hoelder_quotient(u, 0.2, 0.5, interior, mode="exhaustive")
    q_dy = hoelder_quotient(u, 0.2, 0.5, interior, mode="dyadic")
    assert q_dy.quotient <= q_ex.quotient * (1 + 1e-12)
    assert q_dy.quotient >= 0.5 * q_ex.quotient
    with pytest.raises(ValueError):
        hoelder_quotient(u, 0.2, 1.5)
    with pytest.raises(ValueError):
        hoelder_quotient(u, 0.2, 0.5, np.zeros(g.shape, dtype=bool))


def test_interior_region_mask_margins():
    g = Grid((21, 21), 0.1, (0.0, 0.0))
    mask = interior_region_mask(g, 0.25)
    X, Z = g.meshgrid()
    inside = (X > 0.25) & (X < 1.75) & (Z > 0.25) & (Z < 1.75)
    assert np.array_equal(mask, inside)


def test_region_mass_bounded_by_total():
    u = tanh_circle_2d()
    mu, _ = density_fields(u, 0.1)
    total = region_mass(mu, WholeDomain())
    rng = np.random.default_rng(9)
    for _ in range(6):
        ball = Ball((float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))),
                    float(rng.uniform(0.1, 4.0)))
        m = region_mass(mu, ball)
        assert 0.0 <= m <= total * (1 + 1e-12)


def test_concentration_scan_constant_family():
    # a family of constant-one fields carries no mass anywhere
    from types import SimpleNamespace
    from phaselab.diagnostics import concentration_scan
    members = []
    for eps in (0.2, 0.1):
        g = Grid((17, 9), 0.25, (-2.0, 0.0))
        members.append(SimpleNamespace(
            eps=eps, field=ScalarField.from_values(g, np.ones(g.shape))))
    report = concentration_scan(SimpleNamespace(members=members),
                                (0.0, 0.0), radii=(0.5, 1.0))
    for row in report.rows:
        assert row.total_mass == 0.0
        assert all(v == 0.0 for v in row.ball_masses.values())
    assert report.atom_size_estimate == 0.0
