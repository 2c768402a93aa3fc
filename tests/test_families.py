import math

import numpy as np
import pytest

from phaselab.energy import c0, standard_potential
from phaselab.families import (
    FAMILY_PARAMS,
    BoundaryData,
    BracketFailureError,
    ResolutionExhaustedError,
    build_family,
    build_oscillating_boundary,
    bump,
    f_of_theta,
    find_theta_for_mass,
    h_half_seminorm,
    neumann_layer_field,
    seminorm_constant,
)
from phaselab.grid import (Grid, NeumannZero, face_coords,
                           make_half_space_grid)
from phaselab.solver import NonConvergenceError, SolveConfig

P = standard_potential()


def small_grid(R=4.0, hu=0.25, n=2):
    g, _ = make_half_space_grid(n, R, hu, 1.0)
    return g


# --------------------------------------------------------------------------
# boundary data and bumps
# --------------------------------------------------------------------------

def test_bump_zero_theta():
    g = small_grid()
    bd = bump(g, 0.0)
    assert not bd.samples.any()


def test_bump_envelope_certificate():
    g = small_grid()
    bd = bump(g, 2.0, shape="exp_decay", amplitude=0.5)
    r = np.abs(g.axis_coords(0))
    assert np.all(bd.samples >= 0.0)
    assert np.all(bd.samples <= np.exp(-r) + 1e-12)
    assert bd.envelope == (1.0, 1.0)


def test_bump_linearity_exact():
    g = small_grid()
    theta = 1.37
    a = bump(g, 2 * theta).samples
    b = 2.0 * bump(g, theta).samples
    assert np.array_equal(a, b)


# the Hoelder family's grids: window B at ceil(ppu * omega * B) nodes per
# half-width, at the eps of the shipped config and the benchmark; the 3D
# grids at ppu 6 exceed the node budget, so 3D takes ppu 3 and 4
HOELDER_GRIDS = [(2, B, 6.0, eps) for B in (5.0, 12.0)
                 for eps in (0.2, 0.1, 0.05)] \
    + [(3, 5.0, ppu, eps) for ppu in (3.0, 4.0) for eps in (0.2, 0.1, 0.05)]


def hoelder_grid(n, B, ppu, eps):
    m = int(math.ceil(ppu * eps ** -0.5 * B))
    g, _ = make_half_space_grid(n, B, B / m, 1.0)
    return g


@pytest.mark.parametrize("n, B, ppu, eps", HOELDER_GRIDS)
def test_hoelder_face_coords_are_exactly_odd(n, B, ppu, eps):
    g = hoelder_grid(n, B, ppu, eps)
    coords = face_coords(g)
    assert len(coords) == n - 1
    for a, c in enumerate(coords):
        assert np.array_equal(c, -c[::-1])
        assert np.allclose(c, g.axis_coords(a), rtol=0.0, atol=1e-13 * B)


@pytest.mark.parametrize("n, B, ppu, eps", HOELDER_GRIDS)
def test_hoelder_bump_equals_its_flip(n, B, ppu, eps):
    g = hoelder_grid(n, B, ppu, eps)
    om = eps ** -0.5
    samples = bump(g, 1.0, shape="compact_bump", amplitude=2.0,
                   width=1.0 / om).samples
    for a in range(n - 1):
        assert np.array_equal(samples, np.flip(samples, a))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("R, spacing", [(1.0, 0.25), (4.0, 0.25),
                                        (10.0, 0.125), (3.25, 0.0625)])
def test_face_coords_on_power_of_two_spacings_are_the_grid_coords(
        n, R, spacing):
    # every experiment but hoelder_blowup samples on such grids, where
    # (i - M) h and -R + i h are both exact
    g, _ = make_half_space_grid(n, R, spacing, 1.0)
    coords = face_coords(g)
    assert len(coords) == n - 1
    for a, c in enumerate(coords):
        assert c.tobytes() == g.axis_coords(a).tobytes()


@pytest.mark.parametrize("grid", [
    Grid((9, 5), 0.3, (-0.9, 0.0)),           # odd, off centre
    Grid((8, 5), 0.3, (-1.05, 0.0)),          # centred, even node count
    Grid((9, 7, 5), 0.3, (-0.9, 0.1, 0.0)),   # both axes off centre
])
def test_face_coords_off_centre_keep_the_grid_coords(grid):
    coords = face_coords(grid)
    assert len(coords) == grid.n - 1
    for a, c in enumerate(coords):
        assert c.tobytes() == grid.axis_coords(a).tobytes()


def test_boundary_data_validation():
    xs = np.linspace(-2, 2, 33)
    vals = np.exp(-np.abs(xs))
    with pytest.raises(ValueError):
        BoundaryData((xs,), vals, 0.125, envelope=(0.5, 1.0))
    vals2 = vals.copy()
    with pytest.raises(ValueError):
        BoundaryData((xs,), vals2, 0.125, support_radius=1.0)
    vals3 = np.where(np.abs(xs) <= 1.0, vals, 0.0)
    bd = BoundaryData((xs,), vals3, 0.125, support_radius=1.0)
    assert bd.support_radius == 1.0


def test_modified_floor_family_scaled_data():
    g = small_grid()
    bd = bump(g, 1.5, shape="compact_bump", amplitude=0.1)
    half = bd.scaled(0.5)
    assert np.array_equal(half.samples, 0.5 * bd.samples)


# --------------------------------------------------------------------------
# f(theta) and the mass equation
# --------------------------------------------------------------------------

def test_f_of_theta_zero():
    g = small_grid()
    base = bump(g, 1.0, shape="exp_decay", amplitude=0.5, width=3.0)
    assert f_of_theta(0.0, base, P, g, SolveConfig()) == 0.0


def test_f_two_sided_and_trace_bounds():
    g = small_grid(R=6.0, hu=0.125)
    base = bump(g, 1.0, shape="exp_decay", amplitude=0.5, width=5.0)
    cfg = SolveConfig(residual_tol=1e-9)
    cache = {}
    thetas = [1.0, 2.0, 4.0]
    fs = {th: f_of_theta(th, base, P, g, cfg, cache) for th in thetas}
    trace_sq = float(np.sum(base.samples ** 2)) * g.spacing
    for th in thetas:
        assert fs[th] >= th ** 2 * trace_sq
    for t1 in thetas:
        for t2 in thetas:
            if t1 == t2:
                continue
            r = t2 / t1
            assert fs[t2] <= max(r ** 2, r ** 4) * fs[t1] * (1 + 1e-9)
    # strict monotone growth
    assert fs[1.0] < fs[2.0] < fs[4.0]
    assert sorted(cache) == thetas


def test_find_theta_roundtrip_and_self_consistency():
    g = small_grid(R=5.0, hu=0.25)
    base = bump(g, 1.0, shape="exp_decay", amplitude=0.5, width=4.0)
    cfg = SolveConfig(residual_tol=1e-9)
    cache = {}
    f2 = f_of_theta(2.0, base, P, g, cfg, cache)
    th = find_theta_for_mass(f2, base, P, g, cfg, cache=cache)
    assert th == pytest.approx(2.0, rel=5e-3)
    # self-consistency oracle: fresh solve at the returned theta
    from phaselab.solver import solve_half_space
    fresh = solve_half_space(th * base.samples, 1.0, P, g, cfg)
    assert fresh.final_energy == pytest.approx(f2, rel=5e-3)


def test_find_theta_monotone_in_eps():
    cfg = SolveConfig(residual_tol=1e-9)
    thetas = []
    for eps in (0.5, 0.35, 0.25):
        g = small_grid(R=4.0, hu=0.25)
        base = bump(g, 1.0, shape="exp_decay", amplitude=0.5, width=3.0)
        # the mass-c0 target of a 2D member at scale eps
        thetas.append(find_theta_for_mass(c0() * eps ** -1, base, P, g, cfg))
    assert thetas[0] < thetas[1] < thetas[2]


def test_find_theta_bracket_failure(monkeypatch):
    import phaselab.families as families_mod
    monkeypatch.setattr(families_mod, "THETA_MAX", 4.0)
    g = small_grid(R=4.0, hu=0.25)
    base = bump(g, 1.0, shape="exp_decay", amplitude=0.5, width=3.0)
    with pytest.raises(BracketFailureError, match="THETA_MAX = 4.0"):
        find_theta_for_mass(1e3, base, P, g, SolveConfig(residual_tol=1e-8))


@pytest.mark.parametrize("target", [0.0, -1.0, math.nan])
def test_find_theta_rejects_a_target_that_is_not_positive(target,
                                                         monkeypatch):
    calls = _spy_on_solves(monkeypatch)
    g = small_grid(R=4.0, hu=0.25)
    base = bump(g, 1.0, shape="exp_decay", amplitude=0.5, width=3.0)
    with pytest.raises(ValueError, match="target must be positive"):
        find_theta_for_mass(target, base, P, g, SolveConfig())
    assert calls == []


# --------------------------------------------------------------------------
# families
# --------------------------------------------------------------------------

def _spy_on_solves(monkeypatch):
    import phaselab.families as families_mod
    calls = []
    solve = families_mod.solve_half_space
    monkeypatch.setattr(families_mod, "solve_half_space",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    return calls


def test_build_family_rejects_a_bad_eps_list_before_any_solve(monkeypatch):
    calls = _spy_on_solves(monkeypatch)
    for eps_list, match in [((), "non-empty"),
                            ((0.1, 0.2), "strictly decreasing"),
                            ((0.2, 0.2), "strictly decreasing"),
                            ((0.2, -0.1), "finite and positive"),
                            ((0.2, 0.0), "finite and positive"),
                            ((math.inf, 0.1), "finite and positive"),
                            ((0.2, math.nan), "finite and positive")]:
        for kind in ("hausdorff_levelset", "boundary_atom"):
            with pytest.raises(ValueError, match=match):
                build_family(kind, eps_list, {"L": 0.4, "unit_spacing": 0.25})
    assert calls == []


def test_unbounded_rejects_theta_exponent_at_or_above_the_bound(monkeypatch):
    # eps^(n-1) theta^4 = eps^(n-1-4 theta_exponent) vanishes only when
    # 4 theta_exponent < n - 1
    calls = _spy_on_solves(monkeypatch)
    for n, exponent in [(2, 0.25), (2, 0.3), (3, 0.5), (1, 0.0),
                        (2, math.nan)]:
        with pytest.raises(ValueError, match="theta_exponent"):
            build_family("unbounded", (0.2, 0.1),
                         {"n": n, "L": 0.4, "unit_spacing": 0.25,
                          "theta_exponent": exponent}, workers=2)
    assert calls == []


def test_boundary_atom_rejects_offsets_missing_an_eps():
    with pytest.raises(ValueError, match="rel_offsets"):
        build_family("boundary_atom", (0.2,),
                     {"L": 0.4, "unit_spacing": 0.25,
                      "rel_offsets": {0.1: 0.0}})


def test_the_moved_per_eps_parameters_are_bitwise_the_formulas():
    a = FAMILY_PARAMS["unbounded"]["theta_exponent"]
    assert a == 0.125
    fam = build_family("unbounded", (0.4, 0.3),
                       {"L": 0.4, "unit_spacing": 0.125})
    for m in fam.members:
        assert m.parameter == m.eps ** -a
    fam = build_family("hoelder_blowup", (0.2,),
                       {"window": 3.0, "points_per_unit_scale": 2.0})
    for m in fam.members:
        assert m.parameter == m.eps ** -0.5


def test_unknown_kind():
    with pytest.raises(ValueError):
        build_family("nope", (0.1,), {})


def test_misspelled_family_key_is_rejected():
    with pytest.raises(ValueError, match="unit_spacin"):
        build_family("hausdorff_levelset", (0.2,),
                     {"L": 0.4, "unit_spacin": 0.25})


def test_oscillation_family_builds_from_its_defaults():
    fam = build_family("oscillation_atom", (0.1,), {})
    assert fam.params == FAMILY_PARAMS["oscillation_atom"]
    m = fam.members[0]
    S_prime, delta = fam.params["S_prime"], fam.params["delta"]
    assert S_prime <= m.certificates["seminorm"] <= 1.1 * S_prime
    assert m.certificates["min_u"] >= 1.0 - 2.0 * delta - 1e-6
    assert m.certificates["willmore_ok"]


def test_small_unbounded_family_certificates():
    fam = build_family(
        "unbounded", (0.4, 0.3),
        {"n": 2, "L": 0.4, "unit_spacing": 0.125, "base_amplitude": 2.0,
         "residual_tol": 1e-6})
    assert len(fam.members) == 2
    for m in fam.members:
        assert m.certificates["willmore_ok"]
        assert m.energy.W_eps <= m.certificates["willmore_bound"]
        assert m.certificates["mass_bookkeeping_rel"] <= 0.02
        assert m.certificates["min_u"] >= 1.0 - 1e-6
        # physical grid is the exact scaled image
        assert m.field.grid.shape == m.unit_result.field.grid.shape
        assert np.array_equal(m.field.values, m.unit_result.field.values)


def test_iteration_cap_reaches_the_unit_solves():
    with pytest.raises(NonConvergenceError):
        build_family("hausdorff_levelset", (0.2,),
                     {"L": 0.4, "unit_spacing": 0.25}, max_iterations=0)


# --------------------------------------------------------------------------
# trace seminorm
# --------------------------------------------------------------------------

def make_bd(N=257, k=11.0, delta=0.2):
    xs = np.linspace(-2.0, 2.0, N)
    h = xs[1] - xs[0]
    w = np.zeros_like(xs)
    ins = np.abs(xs) < 1.0
    w[ins] = np.exp(1.0 - 1.0 / (1.0 - xs[ins] ** 2))
    vals = delta * w * (1.0 + np.sin(k * xs)) / 2.0
    return BoundaryData((xs,), vals, h, support_radius=1.0)


def test_seminorm_zero():
    bd = make_bd()
    zero = BoundaryData(bd.coords, np.zeros_like(bd.samples), bd.spacing)
    assert h_half_seminorm(zero) == 0.0


def make_2d_bd(shape):
    # one spacing on both axes, the window centred off the face centre on
    # the non-square face, and an oscillation that no axis flip maps to itself
    h = 3.0 / 24
    xs, ys = (-1.5 + h * np.arange(n) for n in shape)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    r2 = X ** 2 + Y ** 2
    vals = np.where(r2 < 1.0, np.exp(-r2) * (1 - r2) ** 2
                    * (1.0 + np.sin(5.0 * X + 2.0 * Y)), 0.0)
    return BoundaryData((xs, ys), vals, h, support_radius=1.0)


def direct_pair_sum(bd):
    # O(N^2) reference: every ordered pair of distinct nodes
    pts = np.stack([m.ravel() for m in np.meshgrid(*bd.coords,
                                                   indexing="ij")], axis=-1)
    vals = bd.samples.ravel()
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    np.fill_diagonal(dist, 1.0)
    K = (vals[:, None] - vals[None, :]) ** 2 / dist ** (bd.boundary_dim + 1)
    np.fill_diagonal(K, 0.0)
    return (seminorm_constant(bd.boundary_dim) * K.sum()
            * bd.spacing ** (2 * bd.boundary_dim))


REFERENCE_FACES = {"1d_129": lambda: make_bd(N=129),
                   "2d_25x25": lambda: make_2d_bd((25, 25)),
                   "2d_17x33": lambda: make_2d_bd((17, 33))}


@pytest.mark.parametrize("face", sorted(REFERENCE_FACES))
def test_seminorm_matches_direct_sum(face):
    bd = REFERENCE_FACES[face]()
    assert h_half_seminorm(bd) == pytest.approx(direct_pair_sum(bd),
                                                rel=1e-13)


@pytest.mark.parametrize("face", sorted(REFERENCE_FACES))
def test_seminorm_flip_invariance(face):
    bd = REFERENCE_FACES[face]()
    semi = h_half_seminorm(bd)
    for axis in range(bd.boundary_dim):
        flipped = BoundaryData(bd.coords, np.flip(bd.samples, axis),
                               bd.spacing)
        assert h_half_seminorm(flipped) == pytest.approx(semi, rel=1e-13)


@pytest.mark.parametrize("face", ["1d", "2d"])
def test_seminorm_homogeneity(face):
    bd = make_bd() if face == "1d" else make_2d_bd((25, 25))
    s1 = h_half_seminorm(bd)
    s2 = h_half_seminorm(bd.scaled(2.0))
    assert s2 == pytest.approx(4.0 * s1, rel=1e-14)
    s3 = h_half_seminorm(bd.scaled(0.3))
    assert s3 == pytest.approx(0.09 * s1, rel=1e-12)
    # harmonic-extension normalization: 1/(2 pi) on 1D, 1/(4 pi) on 2D faces
    assert seminorm_constant(bd.boundary_dim) == pytest.approx(
        1.0 / (2 * np.pi * bd.boundary_dim))


def test_seminorm_oscillation_growth():
    vals = [h_half_seminorm(make_bd(N=2049, k=k)) for k in (4.0, 16.0, 64.0)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 4.0 * vals[0]


def test_seminorm_needs_face():
    bd = make_bd()
    with pytest.raises(ValueError):
        seminorm_constant(3)


# --------------------------------------------------------------------------
# oscillating boundary construction
# --------------------------------------------------------------------------

def test_oscillating_boundary_tiny_target():
    g, _ = make_half_space_grid(2, 2.0, 1 / 32, 1.0)
    bd = build_oscillating_boundary(1e-6, 0.1, g)
    assert bd.meta["frequency"] == 6.0
    assert 1e-6 <= bd.meta["seminorm"] <= 1.1e-6
    assert bd.samples.max() <= 0.1


def test_oscillating_boundary_spec_instance():
    # S' = 10, delta = 0.05 forces tens of thousands of oscillations; the
    # face is sampled at 5e-6 spacing and the seminorm lands in [10, 11]
    spacing = 5e-6
    N = round(3.0 / spacing) + 1
    g = Grid((N, 5), spacing, (-1.5, 0.0))
    bd = build_oscillating_boundary(10.0, 0.05, g)
    semi = bd.meta["seminorm"]
    assert 10.0 <= semi <= 11.0
    assert np.all(bd.samples >= 0.0) and bd.samples.max() <= 0.05
    assert np.all(bd.samples[np.abs(bd.coords[0]) > 1.0] == 0.0)
    # oracle: recompute on the doubled-resolution face, agreement 5%
    spacing2 = spacing / 2
    N2 = round(3.0 / spacing2) + 1
    xs2 = -1.5 + np.arange(N2) * spacing2
    w2 = np.zeros_like(xs2)
    ins = np.abs(xs2) < 1.0
    w2[ins] = np.exp(1.0 - 1.0 / (1.0 - xs2[ins] ** 2))
    k, scale = bd.meta["frequency"], bd.meta["scale"]
    vals2 = scale * 0.05 * w2 * (1.0 + np.sin(k * xs2)) / 2.0
    bd2 = BoundaryData((xs2,), vals2, spacing2, support_radius=1.0)
    semi2 = h_half_seminorm(bd2)
    assert semi == pytest.approx(semi2, rel=0.05)


def test_oscillating_boundary_resolution_guard():
    g, _ = make_half_space_grid(2, 2.0, 0.25, 1.0)
    with pytest.raises(ResolutionExhaustedError):
        build_oscillating_boundary(50.0, 0.05, g)


def test_oscillating_delta_bound():
    g, _ = make_half_space_grid(2, 2.0, 1 / 32, 1.0)
    with pytest.raises(ValueError):
        build_oscillating_boundary(0.1, 0.3, g)


# --------------------------------------------------------------------------
# zero-Neumann comparison profiles
# --------------------------------------------------------------------------

def test_neumann_layer_field_roles_and_overshoot():
    u = neumann_layer_field(0.08)
    assert all(isinstance(r, NeumannZero) for r in u.roles.values())
    assert np.max(np.abs(u.values)) > 1.0          # overshoot set non-empty
    assert np.max(np.abs(u.values)) < 1.02
    # tangential faces carry an exactly flat profile
    assert np.array_equal(u.values[0, :], u.values[1, :])


def _reference_neumann_layer_values(eps, L=2.4, interfaces=(0.7, 1.7),
                                    bump_amp=0.5, amp_power=1.5):
    """Full-grid formula of the stripe profile plus plateau bumps."""
    z1, z2 = interfaces
    m = round(L / (eps / 8.0))
    g = Grid((m + 1, m + 1), L / m, (0.0, 0.0))
    X, Z = g.meshgrid()
    s2 = math.sqrt(2.0)
    prof = (np.tanh((Z - z1) / (s2 * eps)) - np.tanh((Z - z2) / (s2 * eps))
            - 1.0)

    def plateau_bump(cx, cz, w):
        r2 = ((X - cx) ** 2 + (Z - cz) ** 2) / w ** 2
        out = np.zeros_like(X)
        ins = r2 < 1.0
        out[ins] = np.exp(1.0 - 1.0 / (1.0 - r2[ins]))
        return out

    zc = 0.5 * (z1 + z2)
    amp = bump_amp * eps ** amp_power
    pert = amp * (plateau_bump(L / 3.0, zc, 0.3)
                  + 0.7 * plateau_bump(2.0 * L / 3.0, zc, 0.35))
    return prof + pert


@pytest.mark.parametrize("kwargs", [
    {"eps": 0.064},
    {"eps": 0.016},
    {"eps": 0.03, "L": 1.5},                         # the two discs overlap
    {"eps": 0.05, "L": 0.9, "interfaces": (0.2, 0.7)},  # discs leave the grid
    {"eps": 0.07, "L": 2.4, "bump_amp": 2.0},   # L / (eps/8) = 274.29
    {"eps": 0.1, "L": 0.5, "interfaces": (0.1, 0.2)},
    {"eps": 0.05, "interfaces": (5.0, 6.0)},            # no disc on the grid
])
def test_neumann_layer_field_bitwise_equals_full_grid_formula(kwargs):
    got = neumann_layer_field(**kwargs).values
    assert got.tobytes() == _reference_neumann_layer_values(**kwargs).tobytes()


def test_neumann_layer_field_peak_memory_is_near_the_field():
    # each bump is built on its own disc's box and added in place, so the
    # build holds little beyond the field itself
    import tracemalloc
    tracemalloc.start()
    try:
        u = neumann_layer_field(0.008)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * u.values.nbytes


def test_neumann_layer_field_checks_the_node_budget_before_it_allocates():
    # eps 0.004 asks for 4801 x 4801 nodes, about three times the budget
    import tracemalloc
    from phaselab.grid import GridBudgetError
    tracemalloc.start()
    try:
        with pytest.raises(GridBudgetError, match="23049601 nodes"):
            neumann_layer_field(0.004)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oscillation_truncation_stability():
    # no decay rate is available for oscillatory data, so the doubling
    # check is empirical: growing the solve domain around the same trace
    # samples moves F by < 0.1%
    from phaselab.energy import modified_floor_potential
    from phaselab.solver import solve_half_space
    delta, S_prime = 0.15, 0.05
    pot = modified_floor_potential(delta)
    cfg = SolveConfig(residual_tol=1e-9)
    g1, _ = make_half_space_grid(2, 2.0, 1 / 64, 1.0)
    data = build_oscillating_boundary(S_prime, delta, g1)
    f1 = solve_half_space(-data.samples, 1.0, pot, g1, cfg).final_energy
    # same trace on the doubled domain (support is inside both faces)
    g2, _ = make_half_space_grid(2, 4.0, 1 / 64, 1.0)
    pad = (g2.shape[0] - g1.shape[0]) // 2
    samples2 = np.zeros(g2.shape[0])
    samples2[pad:pad + g1.shape[0]] = data.samples
    f2 = solve_half_space(-samples2, 1.0, pot, g2, cfg).final_energy
    assert abs(f2 - f1) <= 1e-3 * f1
