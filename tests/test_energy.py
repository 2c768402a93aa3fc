import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from phaselab import energy as energy_module
from phaselab.energy import (
    EnergyBreakdown,
    ScalarField,
    add_neighbours,
    barrier_profile,
    c0,
    density_fields,
    dirichlet_part,
    grad_squared,
    half_space_energy,
    laplacian,
    modica_mortola,
    modified_floor_potential,
    neighbour_plan,
    standard_potential,
    supersolution_margin,
    willmore_eps,
)
from phaselab.grid import (
    Dirichlet,
    Grid,
    NeumannZero,
    make_half_space_grid,
)
from stencil_reference import neighbour_sum


def neumann_box(grid, values):
    """A field on a box whose faces are all zero-Neumann."""
    return ScalarField(grid, values, {(a, s): NeumannZero()
                                      for a in range(grid.n)
                                      for s in ("low", "high")})


# --------------------------------------------------------------------------
# constants and potentials
# --------------------------------------------------------------------------

def test_c0_value():
    assert c0() == pytest.approx(0.9428090415820634, abs=1e-15)


def test_c0_quadrature_oracle():
    oracle = quad(lambda s: math.sqrt(2.0 * (s * s - 1) ** 2 / 4.0), -1, 1)[0]
    assert abs(c0() - oracle) < 1e-8


def test_c0_algebraic_identity():
    assert abs(3.0 * c0() / (2.0 * math.sqrt(2.0)) - 1.0) <= np.finfo(float).eps


def _w_wp_wpp(p, s):
    return p.value(s), p.derivative(s), p.second_derivative(s)


def test_standard_potential_values():
    p = standard_potential()
    assert _w_wp_wpp(p, 0.0) == (0.25, 0.0, -1.0)
    w, wp, wpp = _w_wp_wpp(p, 3.0)
    assert (w, wp) == (16.0, 24.0)
    assert wpp == 26.0


def test_modified_floor_branches():
    p = modified_floor_potential(0.05)
    w, wp, wpp = _w_wp_wpp(p, 0.0)
    assert w == pytest.approx((0.9 ** 2 - 1) ** 2 / 4.0)
    assert wp == 0.0 and wpp == 0.0
    # agrees with the standard well above the floor
    s = np.linspace(0.95, 2.5, 40)
    std = standard_potential()
    assert np.array_equal(p.value(s), std.value(s))
    assert np.array_equal(p.derivative(s), std.derivative(s))


def test_floor_delta_bound():
    from phaselab.energy import MAX_FLOOR_DELTA
    with pytest.raises(ValueError):
        modified_floor_potential(MAX_FLOOR_DELTA + 1e-3)
    with pytest.raises(ValueError):
        modified_floor_potential(0.3)
    assert modified_floor_potential(0.5 * MAX_FLOOR_DELTA).floor_delta > 0


# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scalar_field_rejects_a_non_finite_value(bad):
    g = Grid((5,), 0.1, (0.0,))
    values = np.linspace(-1.0, 1.0, 5)
    values[2] = bad
    with pytest.raises(ValueError, match="finite"):
        neumann_box(g, values)


def test_scalar_field_accepts_finite_values_whose_sum_overflows():
    g = Grid((3,), 0.1, (0.0,))
    values = np.full(3, 1.7e308)
    with np.errstate(over="ignore"):
        assert np.sum(values) == math.inf
    u = neumann_box(g, values)
    assert np.array_equal(u.values, values)


# --------------------------------------------------------------------------
# discrete operators
# --------------------------------------------------------------------------

def test_laplacian_constant_zero():
    g, roles = make_half_space_grid(2, 2.0, 0.25, 1.0)
    u = ScalarField(g, np.ones(g.shape), roles)
    assert np.allclose(laplacian(u).values, 0.0, atol=1e-12)


def test_laplacian_exact_on_quadratic():
    # exact at interior nodes; a Dirichlet face layer carries no equation
    g = Grid((41,), 0.05, (0.0,))
    x = g.axis_coords(0)
    roles = {(0, "low"): Dirichlet(),
             (0, "high"): Dirichlet()}
    lap = laplacian(ScalarField(g, x * x, roles)).values
    assert np.allclose(lap[1:-1], 2.0, atol=1e-9)
    assert lap[0] == lap[-1] == 0.0


def test_laplacian_sine_accuracy():
    g = Grid((629,), 0.01, (0.0,))
    x = g.axis_coords(0)
    u = neumann_box(g, np.sin(x))
    err = np.abs(laplacian(u).values[1:-1] + np.sin(x)[1:-1])
    assert err.max() <= 1e-4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_laplacian_neumann_mirror(n):
    # at both faces of every axis, the closure is the centred second
    # difference of the field's even reflection across the face node
    shape = (7, 6, 5)[:n]
    g = Grid(shape, 0.1, (0.0,) * n)
    u = neumann_box(g, np.random.default_rng(n).uniform(-1.5, 1.5, shape))
    padded = np.pad(u.values, 1, mode="reflect")
    want = np.zeros(shape)
    for a in range(n):
        inner = [slice(1, -1)] * n
        inner[a] = slice(None)
        want += np.diff(padded, 2, axis=a)[tuple(inner)] / g.spacing ** 2
    np.testing.assert_allclose(laplacian(u).values, want, rtol=1e-13,
                               atol=1e-12)


# --------------------------------------------------------------------------
# energies
# --------------------------------------------------------------------------

def tanh_profile_field(eps, spacing_div=8, length=10.0, x0=5.0):
    spacing = eps / spacing_div
    m = round(length / spacing)
    g = Grid((m + 1,), length / m, (0.0,))
    roles = {(0, "low"): Dirichlet(),
             (0, "high"): Dirichlet()}
    vals = np.tanh((g.axis_coords(0) - x0) / (math.sqrt(2.0) * eps))
    return ScalarField(g, vals, roles)


def test_modica_mortola_constant_zero():
    g, roles = make_half_space_grid(2, 2.0, 0.25, 1.0)
    assert modica_mortola(ScalarField(g, np.ones(g.shape), roles), 0.1) == 0.0


def test_modica_mortola_tanh_calibration():
    u = tanh_profile_field(0.1)
    S = modica_mortola(u, 0.1)
    # oracle: high-resolution quadrature of the profile density
    eps = 0.1
    dens = lambda x: (eps / 2) * (1 / (math.sqrt(2) * eps)
                                  / np.cosh((x - 5) / (math.sqrt(2) * eps)) ** 2) ** 2 \
        + ((np.tanh((x - 5) / (math.sqrt(2) * eps)) ** 2 - 1) ** 2 / 4) / eps
    oracle = quad(dens, 0, 10, limit=400)[0] / c0()
    assert abs(S - oracle) <= 0.01 * oracle
    assert 0.99 <= S <= 1.01


def test_energy_scaling_change_of_variables():
    # S_eps of the rescaled field equals eps^(n-1) F(unit)/c0 exactly
    g, roles = make_half_space_grid(2, 3.0, 0.25, 1.0)
    x, z = g.meshgrid()
    vals = 1.0 + np.exp(-(x ** 2 + (z - 0.5) ** 2))
    u_unit = ScalarField(g, vals, roles)
    for eps in (0.5, 0.1):
        gp = g.scaled(eps)
        u_eps = ScalarField(gp, vals, u_unit.roles)
        lhs = modica_mortola(u_eps, eps)
        rhs = eps ** (2 - 1) * half_space_energy(u_unit) / c0()
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_willmore_constant_zero():
    g, roles = make_half_space_grid(2, 2.0, 0.25, 1.0)
    for v in (1.0, -1.0):
        assert willmore_eps(ScalarField(g, v * np.ones(g.shape), roles),
                            0.2) == 0.0


def test_willmore_mismatch_monotone():
    eps = 0.1
    vals = []
    for mult in (2, 4, 8):
        u = tanh_profile_field(mult * eps, spacing_div=8 // 1)
        vals.append(willmore_eps(u, eps))
    assert vals[0] > 0
    assert vals[0] < vals[1] < vals[2]


def test_density_fields_reproduce_energies():
    u = tanh_profile_field(0.1)
    eps = 0.1
    mu, alpha = density_fields(u, eps)
    h = u.grid.cell_measure
    assert float(np.sum(mu.values)) * h == modica_mortola(u, eps)
    assert float(np.sum(alpha.values)) * h == willmore_eps(u, eps)
    assert mu.values.min() >= 0.0
    assert alpha.values.min() >= 0.0


def test_breakdown_of_sums_the_density_fields():
    u = tanh_profile_field(0.1)
    mu, alpha = density_fields(u, 0.1)
    h = u.grid.cell_measure
    s, w = float(np.sum(mu.values)) * h, float(np.sum(alpha.values)) * h
    got = EnergyBreakdown.of(u, 0.1)
    assert got == EnergyBreakdown(0.1, s, w, s + w)
    assert got.excess_mass is None
    # theta is keyword-only
    with pytest.raises(TypeError):
        EnergyBreakdown.of(u, 0.1, 1.0)


def test_density_zero_for_constant():
    g, roles = make_half_space_grid(1, 5.0, 0.25, 1.0)
    mu, alpha = density_fields(ScalarField(g, np.ones(g.shape), roles), 0.1)
    assert not mu.values.any()
    assert not alpha.values.any()


def test_interface_mass_concentration():
    # at least 99% of the diffuse mass lies within 6 eps of the interface
    eps = 0.1
    u = tanh_profile_field(eps)
    mu, _ = density_fields(u, eps)
    x = u.grid.axis_coords(0)
    near = np.abs(x - 5.0) <= 6.0 * eps
    total = mu.values.sum()
    assert mu.values[near].sum() >= 0.99 * total
    # oracle's view: the sech^4 tail beyond 6 eps is far below 1%
    t = 6.0 / math.sqrt(2.0)
    tail = 1.0 - (math.tanh(t) - math.tanh(t) ** 3 / 3.0) / (2.0 / 3.0)
    assert tail < 1e-4


def test_half_space_energy_mollifier_bump():
    # F(1 + h) for the compact mollifier bump of height 2: radial quadrature
    # oracle pi * int_0^1 [ h'(r)^2/2 + W(1+h(r)) ] r dr on the half plane
    def hfun(r):
        out = np.zeros_like(r)
        ins = r < 1.0
        out[ins] = 2.0 * np.exp(1.0 / (r[ins] ** 2 - 1.0))
        return out

    def hprime(r):
        out = np.zeros_like(r)
        ins = (r < 1.0) & (r > 0)
        out[ins] = hfun(r)[ins] * (-2.0 * r[ins] / (r[ins] ** 2 - 1.0) ** 2)
        return out

    def dens(r):
        r = np.atleast_1d(r)
        h = hfun(r)
        return 0.5 * hprime(r) ** 2 + ((1 + h) ** 2 - 1) ** 2 / 4.0

    oracle = np.pi * quad(lambda r: dens(r)[0] * r, 0, 1, limit=200)[0]
    g, roles = make_half_space_grid(2, 4.0, 1 / 32, 1.0)
    x, z = g.meshgrid()
    vals = 1.0 + hfun(np.sqrt(x ** 2 + z ** 2))
    F = half_space_energy(ScalarField(g, vals, roles))
    assert F > 0
    assert F == pytest.approx(oracle, rel=0.05)


def test_w_scaling_inequality_random():
    rng = np.random.default_rng(11)
    u = rng.uniform(0.0, 5.0, size=1000)
    p = standard_potential()
    for alpha in (0.5, 2.0, 7.0):
        lhs = p.value(1.0 + alpha * u)
        rhs = max(alpha ** 2, alpha ** 4) * p.value(1.0 + u)
        assert np.all(lhs <= rhs * (1 + 1e-12))


def test_penalized_functional():
    # the record carries the energies the penalty_zero experiment forms
    # W_eps + eps^(-sigma) (S_eps - S)^2 from, and no penalty of its own
    assert [f.name for f in dataclasses.fields(EnergyBreakdown)] == [
        "epsilon", "S_eps", "W_eps", "E_eps", "excess_mass"]
    g, roles = make_half_space_grid(2, 2.0, 0.25, 1.0)
    br = EnergyBreakdown.of(ScalarField(g, np.ones(g.shape), roles), 0.1)
    # S_eps = W_eps = 0, so the penalty term carries everything
    assert (br.S_eps, br.W_eps) == (0.0, 0.0)
    assert br.W_eps + 0.1 ** -1.0 * (br.S_eps - 1.0) ** 2 == pytest.approx(
        10.0, rel=1e-12)


def test_energy_breakdown_identity():
    u = tanh_profile_field(0.1)
    br = EnergyBreakdown.of(u, 0.1)
    assert br.E_eps == br.S_eps + br.W_eps


def test_supersolution_certificate():
    g = Grid((41, 41), 0.15, (-3.0, -3.0))
    assert supersolution_margin(g) >= 0.0
    # discrete Laplacian of the barrier matches the analytic one at O(h^2),
    # measured on a fixed physical subregion away from faces and origin
    spacings = (0.1, 0.05, 0.025)
    errs = []
    for spacing in spacings:
        m = round(4.0 / spacing)
        gg = Grid((m + 1, m + 1), spacing, (1.0, 1.0))
        psi, lap_exact, _ = barrier_profile(gg)
        u = neumann_box(gg, psi)
        err = np.abs(laplacian(u).values - lap_exact)
        x, z = gg.meshgrid()
        probe = (x >= 2.0) & (x <= 4.0) & (z >= 2.0) & (z <= 4.0)
        errs.append(err[probe].max())
    order = np.polyfit(np.log(spacings), np.log(errs), 1)[0]
    assert order >= 1.7


def test_region_additivity():
    u = tanh_profile_field(0.1)
    eps = 0.1
    mu, _ = density_fields(u, eps)
    from phaselab.diagnostics import region_mass
    ball = u.grid.node_radii((5.0,)) < 1.3
    total = region_mass(mu, np.ones(u.grid.shape, dtype=bool))
    a = region_mass(mu, ball)
    b = region_mass(mu, ~ball)
    assert a + b == pytest.approx(total, rel=1e-13)
    assert total == modica_mortola(u, eps)


def test_half_space_energy_constant_is_zero():
    g, roles = make_half_space_grid(2, 2.0, 0.25, 1.0)
    assert half_space_energy(ScalarField(g, np.ones(g.shape), roles)) == 0.0


# --------------------------------------------------------------------------
# slab-blocked densities
# --------------------------------------------------------------------------

_ROLE_SETS = {
    "dirichlet": lambda a, s: Dirichlet(),
    "neumann": lambda a, s: NeumannZero(),
    "mixed": lambda a, s: (Dirichlet(),
                           NeumannZero())[(a + (s == "high")) % 2],
}


def _random_field(shape, roles, seed=0):
    g = Grid(shape, 0.1, (0.0,) * len(shape))
    rng = np.random.default_rng(seed)
    return ScalarField(g, rng.uniform(-1.5, 1.5, shape),
                       {(a, s): roles(a, s) for a in range(len(shape))
                        for s in ("low", "high")})


@pytest.mark.parametrize("roles", sorted(_ROLE_SETS))
@pytest.mark.parametrize("shape", [(37,), (13, 9), (11, 6, 5), (3, 5)])
def test_slab_densities_bitwise_equal_one_slab(monkeypatch, shape, roles):
    u = _random_field(shape, _ROLE_SETS[roles])
    mu1, alpha1 = energy_module._densities(u, 0.3)
    layer = u.values.size // shape[0]
    # 1 layer per slab, then slab sizes leaving 1-, 2- and 3-layer
    # remainders on the high face
    for step in (1, *(k for k in range(2, shape[0])
                      if shape[0] % k in (1, 2, 3))):
        monkeypatch.setattr(energy_module, "SLAB_NODES", step * layer)
        mu, alpha = energy_module._densities(u, 0.3)
        assert mu.tobytes() == mu1.tobytes(), step
        assert alpha.tobytes() == alpha1.tobytes(), step


@pytest.mark.parametrize("roles", sorted(_ROLE_SETS))
def test_slab_densities_match_whole_grid_operators(monkeypatch, roles):
    monkeypatch.setattr(energy_module, "SLAB_NODES", 3 * 9)
    u = _random_field((14, 9), _ROLE_SETS[roles], seed=1)
    eps, h, c = 0.3, u.grid.spacing, c0()
    mu, alpha = energy_module._densities(u, eps)
    # the kernel's sums and folded constants, with the two stencil
    # primitives applied to the whole grid at once
    s = u.values
    d0, d1 = (energy_module.centred_difference(s, a, np.empty(s.shape))
              for a in (0, 1))
    t = s * s - 1.0
    want_mu = (d0 * d0 + d1 * d1) * (eps / (8.0 * h * h * c)) \
        + (t * t) * (1.0 / (4.0 * eps * c))
    assert mu.tobytes() == want_mu.tobytes()
    defect = (t * -(h / eps) ** 2 - 4.0) * s
    for a in (0, 1):
        neighbour_sum(s, a, defect, roles=u.roles)
    want_alpha = defect * defect * (eps / (c * h ** 4))
    on_dirichlet = np.zeros(s.shape, dtype=bool)
    for (axis, side), role in u.roles.items():
        if isinstance(role, Dirichlet):
            idx = [slice(None)] * 2
            idx[axis] = 0 if side == "low" else -1
            on_dirichlet[tuple(idx)] = True
    want_alpha[on_dirichlet] = 0.0
    assert alpha.tobytes() == want_alpha.tobytes()
    # the documented densities, from the whole-grid reference operators
    p = standard_potential()
    np.testing.assert_allclose(
        mu, ((eps / 2.0) * grad_squared(u) + p.value(s) / eps) / c,
        rtol=1e-13)
    want_alpha = (eps * laplacian(u).values - p.derivative(s) / eps) ** 2 \
        / (c * eps)
    want_alpha[on_dirichlet] = 0.0
    np.testing.assert_allclose(alpha, want_alpha, rtol=1e-12,
                               atol=1e-12 * want_alpha.max())


@pytest.mark.parametrize("rows", [41, 40])
def test_an_energy_pass_builds_at_most_three_slab_plans(monkeypatch, rows):
    # 2-layer slabs: the first and the last close the grid's axis-0 faces,
    # and the interior slabs share the plan of their halo view, so a pass
    # over 20 or 21 slabs builds three plans, not one per slab
    built = []
    plan = energy_module.neighbour_plan
    monkeypatch.setattr(energy_module, "neighbour_plan",
                        lambda *a: built.append(a) or plan(*a))
    monkeypatch.setattr(energy_module, "SLAB_NODES", 2 * 9)
    u = _random_field((rows, 9), _ROLE_SETS["mixed"], seed=4)
    EnergyBreakdown.of(u, 0.3, theta=1.0)
    assert len(built) == 3
    slabs = energy_module._slabs(u, 0.3)
    assert len(slabs) == (rows + 1) // 2 and len(built) == 6
    assert len({id(p) for *_, p in slabs}) == 3
    # each slab's plan adds, from its halo view, what the grid's plan of
    # its layers adds from the whole grid
    for lo, hi, p in slabs:
        start = max(lo - 1, 0)
        view = u.values[start:hi + 1]
        want, got = np.zeros(u.grid.shape), np.zeros(view.shape)
        add_neighbours(u.values, want,
                       plan(u.grid.shape, u.roles, (slice(lo, hi),)))
        add_neighbours(view, got, p)
        assert got[lo - start:hi - start].tobytes() == want[lo:hi].tobytes()


# the four role pairs (low, high) of an axis, NeumannZero on a low face too
_ROLE_PAIRS = [(Dirichlet, Dirichlet), (Dirichlet, NeumannZero),
               (NeumannZero, Dirichlet), (NeumannZero, NeumannZero)]


def _padded_neighbour_sum(values, axis, pair):
    """``u[i+1] + u[i-1]`` along axis from a one-layer ``np.pad`` ghost on
    each side: the even reflection u1 at a NeumannZero face, the odd
    reflection ``2 u0 - u1`` at a Dirichlet face, whose layer so reads
    ``2 u0``."""
    widths = [(0, 0)] * values.ndim
    widths[axis] = (1, 1)
    padded = np.pad(values, widths, mode="reflect")
    odd = np.pad(values, widths, mode="reflect", reflect_type="odd")
    for ghost, role in zip((0, -1), pair):
        if role is Dirichlet:
            idx = (slice(None),) * axis + (ghost,)
            padded[idx] = odd[idx]
    return padded[(slice(None),) * axis + (slice(2, None),)] \
        + padded[(slice(None),) * axis + (slice(None, -2),)]


def _regions(shape, pairs):
    """The regions the code adds neighbours over: the whole grid, the
    axis-0 slabs of every slab size (1-layer tail slabs included), and the
    equation layers, all but the Dirichlet face layers (on a folded axis,
    the centre too)."""
    m = shape[0]
    yield ()
    for step in range(1, m + 1):
        for lo in range(0, m, step):
            yield (slice(lo, min(lo + step, m)),)
    yield tuple(slice(int(low is Dirichlet), k - (high is Dirichlet))
                for k, (low, high) in zip(shape, pairs))


@pytest.mark.parametrize("shape", [(7,), (6, 5), (5, 4, 6)])
@pytest.mark.parametrize("first", range(len(_ROLE_PAIRS)))
def test_neighbour_plan_is_the_padded_ghost_sum(shape, first):
    # axis a takes role pair first + a (mod 4), so every pair meets every
    # dimension; integer values keep each sum exact, so any order of
    # addition gives the same bits
    pairs = [_ROLE_PAIRS[(first + a) % 4] for a in range(len(shape))]
    roles = {(a, side): cls() for a, pair in enumerate(pairs)
             for side, cls in zip(("low", "high"), pair)}
    rng = np.random.default_rng(first + 10 * len(shape))
    values = rng.integers(-1000, 1000, shape).astype(float)
    start = rng.integers(-1000, 1000, shape).astype(float)
    want = start + sum(_padded_neighbour_sum(values, a, pair)
                       for a, pair in enumerate(pairs))
    for region in _regions(shape, pairs):
        out = start.copy()
        add_neighbours(values, out, neighbour_plan(shape, roles, region))
        assert np.array_equal(out[region], want[region]), region


@pytest.mark.parametrize("shape", [(7,), (6, 5), (5, 4, 6)])
@pytest.mark.parametrize("first", range(len(_ROLE_PAIRS)))
def test_add_neighbours_is_the_per_axis_loop_bitwise(shape, first):
    # float values, so the order of the additions shows: over every region
    # kind, crossed face layers included, add_neighbours adds what the
    # per-axis loop of stencil_reference adds, in its order, to the bit,
    # and laplacian is that loop's sum less 2n u, over h^2
    n = len(shape)
    pairs = [_ROLE_PAIRS[(first + a) % 4] for a in range(n)]
    roles = {(a, side): cls() for a, pair in enumerate(pairs)
             for side, cls in zip(("low", "high"), pair)}
    rng = np.random.default_rng(first + 10 * n)
    values = rng.standard_normal(shape)
    start = rng.standard_normal(shape)
    for region in _regions(shape, pairs):
        full = tuple(region) + (slice(None),) * (n - len(region))
        want = start[full].copy()
        for a, s in enumerate(full):
            lo, hi, _ = s.indices(shape[a])
            neighbour_sum(values[full[:a] + (slice(None),) + full[a + 1:]],
                          a, want, lo, hi, roles)
        out = start.copy()
        add_neighbours(values, out, neighbour_plan(shape, roles, region))
        assert out[full].tobytes() == want.tobytes(), region
    h = 0.3
    want = values * (-2.0 * n)
    for a in range(n):
        neighbour_sum(values, a, want, roles=roles)
    want *= 1.0 / (h * h)
    u = ScalarField(Grid(shape, h, (0.0,) * n), values, roles)
    assert laplacian(u).values.tobytes() == want.tobytes()


def test_density_peak_memory_stays_near_the_two_outputs():
    g = Grid((1001, 1001), 0.01, (0.0, 0.0))
    x, y = g.meshgrid()
    u = neumann_box(g, np.tanh((x - 5.0) / 0.2) + 0.1 * np.sin(y))
    del x, y
    tracemalloc.start()
    try:
        energy_module._densities(u, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * u.values.nbytes


# --------------------------------------------------------------------------
# slab-wise energy reduction
# --------------------------------------------------------------------------

def _tail_steps(m):
    """Layers per slab leaving 1-, 2- and 3-layer tail slabs on m layers."""
    return [k for k in range(2, m) if m % k in (1, 2, 3)]


@pytest.mark.parametrize("roles", sorted(_ROLE_SETS))
@pytest.mark.parametrize("shape", [(37,), (13, 9), (11, 6, 5), (3, 5)])
def test_energy_reduction_matches_density_sums(monkeypatch, shape, roles):
    from phaselab.diagnostics import region_mass
    u = _random_field(shape, _ROLE_SETS[roles], seed=2)
    eps, theta = 0.3, 1.2
    mu, alpha = density_fields(u, eps)
    h = u.grid.cell_measure
    want_s = float(np.sum(mu.values)) * h
    want_w = float(np.sum(alpha.values)) * h
    want_x = region_mass(mu, np.abs(u.values) >= theta)
    assert want_x > 0.0
    layer = u.values.size // shape[0]
    tails = set()
    for step in _tail_steps(shape[0]):
        tails.add(shape[0] % step)
        monkeypatch.setattr(energy_module, "SLAB_NODES", step * layer)
        got = EnergyBreakdown.of(u, eps, theta=theta)
        assert got.S_eps == pytest.approx(want_s, rel=1e-13), step
        assert got.W_eps == pytest.approx(want_w, rel=1e-13), step
        assert got.excess_mass == pytest.approx(want_x, rel=1e-13), step
        assert modica_mortola(u, eps) == got.S_eps
        assert willmore_eps(u, eps) == got.W_eps
    # three layers admit only 2-layer slabs with a 1-layer tail
    assert tails == ({1} if shape[0] == 3 else {1, 2, 3})


@pytest.mark.parametrize("roles", sorted(_ROLE_SETS))
def test_energy_reduction_in_one_slab_is_the_full_array_sum(roles):
    from phaselab.diagnostics import region_mass
    u = _random_field((31, 29), _ROLE_SETS[roles], seed=3)
    assert u.values.size <= energy_module.SLAB_NODES
    mu, alpha = density_fields(u, 0.3)
    h = u.grid.cell_measure
    got = EnergyBreakdown.of(u, 0.3, theta=1.0)
    assert got.S_eps == float(np.sum(mu.values)) * h
    assert got.W_eps == float(np.sum(alpha.values)) * h
    assert got.excess_mass == region_mass(mu, np.abs(u.values) >= 1.0)
