import math

import numpy as np
import pytest

from phaselab.diagnostics import (
    PAIR_BUDGET,
    EmptySetError,
    HoelderProbe,
    _offsets,
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
    NeumannZero,
    WholeDomain,
    make_half_space_grid,
    region_cells,
)


def neumann_box(grid, values):
    """A field on a box whose faces are all zero-Neumann."""
    return ScalarField(grid, values, {(a, s): NeumannZero()
                                      for a in range(grid.n)
                                      for s in ("low", "high")})


def tanh_field_1d(eps=0.1, x0=5.0, length=10.0, div=8):
    spacing = eps / div
    m = round(length / spacing)
    g = Grid((m + 1,), length / m, (0.0,))
    vals = np.tanh((g.axis_coords(0) - x0) / (math.sqrt(2.0) * eps))
    return neumann_box(g, vals)


def tanh_circle_2d(eps=0.1, r0=1.0, L=3.0, div=8):
    spacing = eps / div
    m = round(2 * L / spacing)
    g = Grid((m + 1, m + 1), 2 * L / m, (-L, -L))
    X, Z = g.meshgrid()
    r = np.sqrt(X ** 2 + Z ** 2)
    vals = np.tanh((r0 - r) / (math.sqrt(2.0) * eps))
    return neumann_box(g, vals)


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
    assert boundary_layer_mass(u, 0.1, theta=1.0) == 0.0
    assert boundary_layer_mass(u, 0.1, theta=1.5) == 0.0
    with pytest.raises(ValueError):
        boundary_layer_mass(u, 0.1, theta=0.5)


def test_boundary_layer_mass_counts_overshoot():
    g = Grid((21,), 0.1, (0.0,))
    vals = np.ones(21)
    vals[5:8] = 1.2
    u = neumann_box(g, vals)
    assert boundary_layer_mass(u, 0.1, theta=1.0) > 0.0


def test_boundary_layer_mass_is_the_density_on_the_excess_set(monkeypatch):
    from phaselab import energy
    from phaselab.families import neumann_layer_field
    u = neumann_layer_field(0.064)
    mu, _ = density_fields(u, 0.064)
    excess = np.abs(u.values) >= 1.0
    want = float(np.sum(mu.values[excess])) * u.grid.cell_measure
    assert want > 0.0
    # many slabs: the per-slab sums agree with the full-array sum to rounding
    assert u.values.size > energy.SLAB_NODES
    assert boundary_layer_mass(u, 0.064) == pytest.approx(want, rel=1e-13)
    # one slab: the same summands in the same order, bit for bit
    monkeypatch.setattr(energy, "SLAB_NODES", u.values.size)
    assert boundary_layer_mass(u, 0.064) == want


# --------------------------------------------------------------------------
# level sets and hausdorff distance
# --------------------------------------------------------------------------

def test_level_set_constant_is_empty():
    g = Grid((11, 11), 0.1, (0.0, 0.0))
    u = neumann_box(g, np.ones(g.shape))
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
    u = neumann_box(Grid((11,), 0.1, (0.0,)), np.ones(11))
    empty = level_set(u, (-0.5, 0.5))
    with pytest.raises(EmptySetError):
        hausdorff_distance(empty, np.array([[0.0]]))


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

def test_lp_norm_unit_field():
    # 10 nodes at spacing 0.1 carry unit total measure
    g = Grid((10,), 0.1, (0.0,))
    u = neumann_box(g, np.ones(10))
    for p in (1, 2, 4):
        assert lp_norm(u, p) == pytest.approx(1.0, rel=1e-14)
    assert lp_norm(u, "inf") == 1.0


def test_lp_norm_monotone_in_p():
    g = Grid((10,), 0.1, (0.0,))
    rng = np.random.default_rng(5)
    u = neumann_box(g, rng.uniform(-2, 2, 10))
    norms = [lp_norm(u, p) for p in (1, 2, 4, 8)]
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))
    assert lp_norm(u, np.inf) >= norms[-1] - 1e-12


def test_lp_norm_validation():
    g = Grid((10,), 0.1, (0.0,))
    u = neumann_box(g, np.ones(10))
    with pytest.raises(ValueError):
        lp_norm(u, 0.5)


# --------------------------------------------------------------------------
# Hoelder quotients
# --------------------------------------------------------------------------

def test_hoelder_constant_zero():
    g = Grid((21, 21), 0.05, (0.0, 0.0))
    u = neumann_box(g, np.full(g.shape, 0.7))
    probe = hoelder_quotient(u, 0.2, 0.5)
    assert probe.quotient == 0.0


def test_hoelder_linear_gamma_one():
    m = 3.7
    g = Grid((41,), 0.05, (0.0,))
    u = neumann_box(g, m * g.axis_coords(0))
    probe = hoelder_quotient(u, 0.3, 1.0)
    assert probe.quotient == pytest.approx(m, rel=1e-12)
    assert probe.pair is not None


def test_hoelder_linear_gamma_half_attained_at_scale():
    m = 2.0
    g = Grid((81,), 0.05, (0.0,))
    u = neumann_box(g, m * g.axis_coords(0))
    eps = 0.4
    probe = hoelder_quotient(u, eps, 0.5)
    # for a linear field the quotient m * d^(1/2) peaks at the widest pair
    d_max = math.floor(eps / g.spacing) * g.spacing
    assert probe.quotient == pytest.approx(m * math.sqrt(d_max), rel=1e-12)
    assert probe.pair_distance == pytest.approx(d_max)


def test_hoelder_region_restriction_and_modes():
    g = Grid((41, 41), 0.05, (0.0, 0.0))
    X, Z = g.meshgrid()
    u = neumann_box(g, np.sin(4 * X) * np.exp(-Z))
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


@pytest.mark.parametrize("eps", [0.2, 0.01])
def test_hoelder_rejects_an_unknown_mode(eps):
    # also below one grid step, where the scan returns before it starts
    g = Grid((21,), 0.05, (0.0,))
    u = neumann_box(g, g.axis_coords(0))
    with pytest.raises(ValueError, match="'auto', 'exhaustive' or 'dyadic'"):
        hoelder_quotient(u, eps, 0.5, mode="foo")


def test_interior_region_mask_margins():
    g = Grid((21, 21), 0.1, (0.0, 0.0))
    mask = interior_region_mask(g, 0.25)
    X, Z = g.meshgrid()
    inside = (X > 0.25) & (X < 1.75) & (Z > 0.25) & (Z < 1.75)
    assert np.array_equal(mask, inside)


def _reference_offsets(n, radius_steps, mode):
    """Node offsets as enumerated one by one before the numpy build."""
    box = int(math.floor(radius_steps))
    r2 = radius_steps * radius_steps
    if mode == "exhaustive":
        out = []
        for off in np.ndindex(*((2 * box + 1,) * n)):
            o = tuple(v - box for v in off)
            if o > (0,) * n and sum(v * v for v in o) <= r2:
                out.append(o)
        return out
    dirs = [o for o in (tuple(v - 1 for v in off)
                        for off in np.ndindex(*((3,) * n)))
            if o > (0,) * n]
    out = set()
    k = 1
    while k <= box:
        out.update(o for o in (tuple(k * v for v in d) for d in dirs)
                   if sum(v * v for v in o) <= r2)
        k *= 2
    return sorted(out)


def _reference_hoelder_probe(u, eps, gamma, mask, mode="auto"):
    """The Hoelder scan over the whole grid: every offset slices, masks and
    differences full-size arrays."""
    g = u.grid
    radius_steps = eps / g.spacing * (1 + 1e-12)
    if radius_steps < 1.0:
        return HoelderProbe(gamma, eps, 0.0, None, None, "empty")
    if mode == "auto":
        n_off = (2 * math.floor(radius_steps) + 1) ** g.n / 2
        mode = ("exhaustive" if n_off * mask.sum() <= PAIR_BUDGET
                else "dyadic")
    best, best_pair, best_dist = 0.0, None, None
    vals = u.values
    for off in _reference_offsets(g.n, radius_steps, mode):
        src = tuple(slice(0, m - o) if o >= 0 else slice(-o, m)
                    for o, m in zip(off, g.shape))
        dst = tuple(slice(o, m) if o >= 0 else slice(0, m + o)
                    for o, m in zip(off, g.shape))
        pm = mask[src] & mask[dst]
        if not pm.any():
            continue
        diff = np.abs(vals[dst] - vals[src])
        diff[~pm] = 0.0
        dist = g.spacing * math.sqrt(sum(o * o for o in off))
        q = float(diff.max()) / dist ** gamma
        if q > best:
            best = q
            idx = np.unravel_index(int(np.argmax(diff)), diff.shape)
            origin = np.asarray(g.origin)
            best_pair = tuple(
                tuple(origin + np.asarray([i + s.start for i, s in
                                           zip(idx, sl)]) * g.spacing)
                for sl in (src, dst))
            best_dist = dist
    return HoelderProbe(gamma, eps, best, best_pair, best_dist, mode)


def _probe_field(n, seed):
    """A smooth field with small noise on [0, 1]^n, 13 to 31 nodes a side
    (13 to 19 in 3D)."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(v) for v in rng.integers(13, 32 if n < 3 else 20,
                                                  size=n))
    h = 1.0 / (max(shape) - 1)
    g = Grid(shape, h, (0.0,) * n)
    coords = g.meshgrid() if n > 1 else (g.axis_coords(0),)
    vals = np.sin(3.0 * coords[0]) * np.exp(-coords[-1])
    vals += 1e-3 * rng.standard_normal(shape)
    return neumann_box(g, vals)


def _probe_masks(g):
    coords = g.meshgrid() if g.n > 1 else (g.axis_coords(0),)
    low = coords[-1] <= coords[-1].min() + 2.5 * g.spacing
    high = coords[0] >= coords[0].max() - 1.5 * g.spacing
    centre = tuple(0.5 * g.extent(a)[1] for a in range(g.n))
    return {"whole": np.ones(g.shape, dtype=bool),
            "low_strip": low, "high_strip": high,
            "interior": interior_region_mask(g, 3.0 * g.spacing),
            "ball": region_cells(g, Ball(centre, 0.3)),
            "two_corners": (coords[0] < 0.2) & (coords[-1] < 0.2)
                           | (coords[0] > 0.8) & (coords[-1] > 0.8)}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mode", ["exhaustive", "dyadic", "auto"])
def test_hoelder_box_scan_equals_full_grid_scan(n, mode):
    for seed in range(2):
        u = _probe_field(n, seed)
        g = u.grid
        for name, mask in _probe_masks(g).items():
            for steps in (0.5, 1.0, 2.0, 3.5, 6.0):
                eps = steps * g.spacing
                want = _reference_hoelder_probe(u, eps, 0.5, mask, mode)
                assert hoelder_quotient(u, eps, 0.5, mask, mode) == want, \
                    (seed, name, steps)
        ball = Ball(tuple(0.4 for _ in range(n)), 0.25)
        assert hoelder_quotient(u, 4 * g.spacing, 1.0, ball, mode) == \
            _reference_hoelder_probe(u, 4 * g.spacing, 1.0,
                                     region_cells(g, ball), mode)


@pytest.mark.parametrize("rows", [slice(0, 3), slice(5, 9)])
def test_hoelder_ties_keep_the_first_offset_and_first_node(rows):
    # u = x on unit spacing: offsets (1, 0) and (2, 0) both give quotient
    # exactly 1 at every node, so the lexicographically first offset and
    # the first masked node in row-major order must win
    g = Grid((10, 12), 1.0, (0.0, 0.0))
    X, _ = g.meshgrid()
    u = neumann_box(g, X.copy())
    mask = np.zeros(g.shape, dtype=bool)
    mask[rows, 4:10] = True
    probe = hoelder_quotient(u, 2.0, 1.0, mask, mode="exhaustive")
    assert probe == _reference_hoelder_probe(u, 2.0, 1.0, mask, "exhaustive")
    assert probe.quotient == 1.0 and probe.pair_distance == 1.0
    first = float(rows.start)
    assert probe.pair == ((first, 4.0), (first + 1.0, 4.0))


def test_offsets_pinned():
    assert _offsets(2, 2.5, "exhaustive").tolist() == [
        [0, 1], [0, 2], [1, -2], [1, -1], [1, 0], [1, 1], [1, 2],
        [2, -1], [2, 0], [2, 1]]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_offsets_match_the_one_by_one_enumeration(n):
    radii = (np.arange(0.5, 27.01, 0.5) if n < 3
             else (0.5, 1.0, 1.5, 2.5, 4.0, 7.5, 13.5))
    for radius in radii:
        for mode in ("exhaustive", "dyadic"):
            got = _offsets(n, radius, mode)
            assert got.shape[1] == n
            assert [tuple(o) for o in got.tolist()] == \
                _reference_offsets(n, radius, mode), (radius, mode)


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
            eps=eps, field=neumann_box(g, np.ones(g.shape))))
    report = concentration_scan(SimpleNamespace(members=members),
                                (0.0, 0.0), radii=(0.5, 1.0))
    for row in report.rows:
        assert row.total_mass == 0.0
        assert all(v == 0.0 for v in row.ball_masses.values())
    assert report.atom_size_estimate == 0.0
