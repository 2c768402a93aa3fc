"""Acceptance suite: every exit criterion of the build, one test each.

The scaled-limit statements are checked as finite-sweep properties at the
tolerances fixed below; each test prints one CRITERION line so a plain
pytest run doubles as the verification report.  Family experiments run
once per session through the shared fixture.
"""

import math

import numpy as np
import pytest

from conftest import assertion_map
from phaselab.diagnostics import lp_norm
from phaselab.energy import standard_potential
from phaselab.fieldio import load_field
from phaselab.grid import make_half_space_grid
from phaselab.solver import SolveConfig, solve_half_space, uniqueness_check


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num} [{status}] {name} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def require(runs, experiment, ids):
    summary, _ = runs[experiment]
    amap = assertion_map(summary)
    failed = [i for i in ids if not amap[i].passed]
    detail = "; ".join(f"{i}={amap[i].value:.4g}{amap[i].comparator}"
                       f"{amap[i].threshold:.4g}" for i in ids)
    return not failed, detail


def test_criterion_1_calibration(acceptance_runs):
    ok, detail = require(acceptance_runs, "tanh_calibration",
                         ["calibration.s_eps_sampled",
                          "calibration.s_eps_sampled_lo",
                          "calibration.s_eps_relaxed",
                          "calibration.s_eps_relaxed_lo",
                          "calibration.w_eps"])
    report(1, "1D profile calibration", ok, detail)


def test_criterion_2_solver_certificate():
    # exponential bump data with certificate C_h = 1 (theta = 2 on a
    # half-amplitude base), 129 x 65 nodes
    g, _ = make_half_space_grid(2, 8.0, 0.125, 1.0)
    r = np.abs(g.axis_coords(0))
    base = np.zeros_like(r)
    ins = r < 6.0
    base[ins] = 0.5 * np.exp(-r[ins]) * np.exp(1 - 1 / (1 - (r[ins] / 6) ** 2))
    h = 2.0 * base
    cfg = SolveConfig(residual_tol=1e-6)
    res = solve_half_space(h, 1.0, standard_potential(), g, cfg)

    from phaselab.energy import ScalarField, half_space_energy
    from phaselab.solver import boundary_extension
    ext = ScalarField(g, boundary_extension(g, 1.0 + h, 1.0), res.field.roles)
    envelope = 1.0 + np.exp(-g.node_radii()) + 2.0 * g.spacing
    uq = uniqueness_check(h, standard_potential(), g, cfg)

    checks = {
        "residual": res.residual <= 1e-6,
        "energy_bound": res.final_energy <= half_space_energy(ext),
        "lower": res.field.values.min() >= 1.0 - 1e-6,
        "envelope": float(np.max(res.field.values - envelope)) <= 0.0,
        "uniqueness": bool(uq),
    }
    ok = all(checks.values())
    report(2, "half-space solver certificate", ok,
           f"residual={res.residual:.2e} "
           + " ".join(k for k, v in checks.items() if not v))


def test_criterion_3_unbounded(acceptance_runs):
    ok, detail = require(acceptance_runs, "unbounded",
                         ["unbounded.sup_increasing", "unbounded.sup_floor",
                          "unbounded.mass_decreasing",
                          "unbounded.mass_slope_hi",
                          "unbounded.mass_slope_lo",
                          "unbounded.willmore_zero"])
    report(3, "unbounded family", ok, detail)


def test_criterion_4_boundary_atom(acceptance_runs):
    ok, detail = require(acceptance_runs, "boundary_atom",
                         ["atom.mass_pinned", "atom.concentration_increasing",
                          "atom.concentration_final", "atom.tail_decreasing",
                          "atom.tail_final", "atom.two_sided_bound",
                          "atom.trace_lower_bound"])
    report(4, "boundary atom concentration", ok, detail)


def test_criterion_5_hausdorff(acceptance_runs):
    ok, detail = require(acceptance_runs, "hausdorff_levelset",
                         ["hausdorff.range", "hausdorff.level_set_nonempty",
                          "hausdorff.distance", "hausdorff.mass_to_zero"])
    report(5, "level-set survival at vanishing mass", ok, detail)


def test_criterion_6_hoelder(acceptance_runs):
    ok, detail = require(acceptance_runs, "hoelder_blowup",
                         ["hoelder.boundary_divergence",
                          "hoelder.interior_stable"])
    report(6, "boundary Hoelder blow-up vs interior stability", ok, detail)


def test_criterion_7_oscillation(acceptance_runs):
    ok, detail = require(acceptance_runs, "oscillation_atom",
                         ["oscillation.seminorm_lo", "oscillation.seminorm_hi",
                          "oscillation.floor", "oscillation.dirichlet_bound"])
    report(7, "oscillatory trace atom inside [-1, 1]", ok, detail)


def test_criterion_8_contrast_suite(acceptance_runs):
    # (a) bounded-trace family has stable L4 norms
    _, hd_dir = acceptance_runs["hausdorff_levelset"]
    norms = []
    for i in range(3):
        fld = load_field(str(hd_dir / "fields" / f"hausdorff_eps{i}"))
        norms.append(lp_norm(fld, 4))
    var = (max(norms) - min(norms)) / max(norms)
    ok_a = var < 0.10

    # (b) unbounded-trace family has diverging sup-norms
    ok_b, _ = require(acceptance_runs, "unbounded",
                      ["unbounded.sup_increasing"])

    # (c) zero-Neumann class: excess-set mass scales almost quadratically
    ok_c, detail_c = require(acceptance_runs, "neumann_layer",
                             ["neumann.layer_exponent",
                              "neumann.layer_nonempty"])
    ok = ok_a and ok_b and ok_c
    report(8, "bounded/unbounded/neumann contrast", ok,
           f"L4 variation={var:.3f}; {detail_c}")


def test_criterion_9_penalized(acceptance_runs):
    ok, detail = require(acceptance_runs, "penalty_zero",
                         ["penalty.monotone", "penalty.final"])
    report(9, "penalized functional degenerates along the family", ok, detail)


def test_criterion_10_algebraic_properties():
    rng = np.random.default_rng(2024)
    p = standard_potential()

    # scaling inequality of the well on 1000 random samples
    u = rng.uniform(0.0, 6.0, 1000)
    ok_w = all(np.all(p.value(1 + a * u) <= max(a * a, a ** 4)
                      * p.value(1 + u) * (1 + 1e-12))
               for a in (0.5, 2.0, 7.0))

    # seminorm homogeneity (exact for power-of-two factors)
    from phaselab.families import BoundaryData, h_half_seminorm
    xs = np.linspace(-2, 2, 257)
    w = np.zeros_like(xs)
    ins = np.abs(xs) < 1
    w[ins] = np.exp(1 - 1 / (1 - xs[ins] ** 2))
    bd = BoundaryData((xs,), 0.3 * w * (1 + np.sin(9 * xs)), xs[1] - xs[0])
    ok_semi = h_half_seminorm(bd.scaled(2.0)) == pytest.approx(
        4.0 * h_half_seminorm(bd), rel=1e-13)

    # barrier supersolution inequality at all nodes with |x| >= 1
    from phaselab.energy import supersolution_margin
    from phaselab.grid import Grid
    ok_super = supersolution_margin(Grid((41, 41), 0.2, (-4.0, -4.0))) >= 0.0

    # region additivity and level-set monotonicity
    from phaselab.diagnostics import level_set, region_mass
    from phaselab.energy import ScalarField, density_fields
    from phaselab.grid import NeumannZero, Grid as G2
    g = G2((41, 41), 0.1, (-2.0, -2.0))
    X, Z = g.meshgrid()
    fld = ScalarField(g, np.tanh((1 - np.hypot(X, Z)) / 0.2),
                      {(a, s): NeumannZero() for a in range(2)
                       for s in ("low", "high")})
    mu, _ = density_fields(fld, 0.14)
    ball = g.node_radii((0.0, 0.0)) < 1.0
    ok_add = (region_mass(mu, ball) + region_mass(mu, ~ball)
              == pytest.approx(region_mass(mu, np.ones(g.shape, dtype=bool)),
                               rel=1e-12))
    small = level_set(fld, (-0.2, 0.2)).mask
    large = level_set(fld, (-0.6, 0.6)).mask
    ok_level = bool(np.all(large[small]))

    ok = ok_w and ok_semi and ok_super and ok_add and ok_level
    report(10, "exact algebraic properties", ok,
           f"well={ok_w} seminorm={ok_semi} barrier={ok_super} "
           f"additivity={ok_add} levelsets={ok_level}")


# Every assertion of every experiment at its defaults, in order, with its
# comparator and threshold.  A change to any of them fails here, so a
# weakened threshold cannot pass unnoticed.
THRESHOLDS = {
    "tanh_calibration": [
        ("calibration.s_eps_sampled", "<=", 1.01),
        ("calibration.s_eps_sampled_lo", ">=", 0.99),
        ("calibration.s_eps_relaxed", "<=", 1.01),
        ("calibration.s_eps_relaxed_lo", ">=", 0.99),
        ("calibration.w_eps", "<=", 1e-4),
    ],
    "unbounded": [
        ("unbounded.sup_increasing", ">", 0.0),
        ("unbounded.sup_floor", ">=", 0.0),
        ("unbounded.mass_decreasing", "<", 0.0),
        ("unbounded.mass_slope_hi", "<=", 0.7),
        ("unbounded.mass_slope_lo", ">=", 0.3),
        ("unbounded.willmore_zero", "<=", 1e-6),
    ],
    "boundary_atom": [
        ("atom.mass_pinned", "<=", 0.02),
        ("atom.concentration_increasing", ">", 0.0),
        ("atom.concentration_final", ">=", 0.95),
        ("atom.tail_decreasing", "<", 0.0),
        ("atom.tail_final", "<=", 0.05),
        ("atom.two_sided_bound", "<=", 2e-9),       # 2 solver.residual_tol
        ("atom.trace_lower_bound", ">=", 0.0),
        ("atom.willmore_zero", "<=", 1e-6),
        ("atom.theta_polynomial", "<=", 8.0),
    ],
    "hausdorff_levelset": [
        ("hausdorff.range", "<=", 1e-6),
        ("hausdorff.level_set_nonempty", ">", 0.0),
        ("hausdorff.distance", "<=", 0.0),
        ("hausdorff.mass_to_zero", "<", 0.0),
        ("hausdorff.willmore_zero", "<=", 1e-6),
    ],
    "hoelder_blowup": [
        ("hoelder.boundary_divergence", ">", 0.0),
        ("hoelder.interior_stable", "<", 0.2),
        ("hoelder.willmore_zero", "<=", 1e-6),
    ],
    "oscillation_atom": [
        ("oscillation.seminorm_lo", ">=", 0.1),
        ("oscillation.seminorm_hi", "<=", 1.1 * 0.1),
        ("oscillation.floor", ">=", 1.0 - 2.0 * 0.15 - 1e-6),
        # 0.9 times the seminorm of the constructed data
        ("oscillation.dirichlet_bound", ">=", 0.09449999999999983),
        ("oscillation.willmore_zero", "<=", 1e-6),
    ],
    "neumann_layer": [
        ("neumann.layer_exponent", ">=", 1.8),
        ("neumann.layer_nonempty", ">", 0.0),
    ],
    "penalty_zero": [
        ("penalty.monotone", "<", 0.0),
        ("penalty.final", "<=", 1e-4),
    ],
}


def test_every_threshold_is_pinned(acceptance_runs):
    assert set(THRESHOLDS) == set(acceptance_runs)
    assert sum(map(len, THRESHOLDS.values())) == 37
    for name, want in THRESHOLDS.items():
        summary, _ = acceptance_runs[name]
        got = [(a.id, a.comparator, a.threshold) for a in summary.assertions]
        assert got == want, name
