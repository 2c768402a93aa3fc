"""Config-driven experiment orchestration.

Each named experiment reproduces one desk-scale construction as an
epsilon sweep, evaluates its defining assertions, and emits machine-
readable artifacts into the run directory:

* ``sweep.csv``      one row per epsilon (fixed column schema, see
                     ``CSV_COLUMNS``; reals in shortest round-trip form)
* ``fields/``        per-epsilon field files (JSON header + .npy samples)
* ``summary.json``   assertion records and the config echo, strict JSON
                     (a non-finite value is the string "inf", "-inf"
                     or "nan")
* ``summary.txt``    one pass/fail line per assertion
* ``manifest.json``  every emitted file with its SHA-256 hash, taken from
                     the bytes as they are written

Runs are deterministic for a fixed config and platform; the members of a
family experiment may be built on up to ``workers`` threads (a positive
integer, default 1) while emission stays serialized in epsilon order.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .diagnostics import (
    concentration_scan,
    hausdorff_distance,
    hoelder_quotient,
    interior_region_mask,
    level_set,
    lp_norm,
)
from .energy import (MAX_FLOOR_DELTA, EnergyBreakdown, ScalarField, c0,
                     standard_potential)
from .families import (BUMP_SHAPES, FAMILY_PARAMS, THETA_REL_TOL,
                       _hoelder_grid, build_family, neumann_layer_field)
from .fieldio import save_field, write_hashed
from .grid import make_half_space_grid
from .solver import SolveConfig, solve_half_space

__all__ = [
    "EXPERIMENTS",
    "CSV_COLUMNS",
    "Assertion",
    "VerificationSummary",
    "validate",
    "run",
    "render_summary",
]

CSV_COLUMNS = ("experiment", "n", "eps", "theta_or_omega", "F_unit", "S_eps",
               "W_eps", "F_eps_penalized", "sup_u", "mass_total", "mass_in_R1",
               "mass_in_R2", "mass_outside_Reps", "boundary_layer_mass",
               "hoelder_boundary", "hoelder_interior", "residual", "iterations")


@dataclass
class Assertion:
    """One verified claim: ``value <comparator> threshold``."""

    id: str
    description: str
    value: float
    comparator: str
    threshold: float
    passed: bool


def _check(aid, desc, value, comparator, threshold):
    value = float(value)
    ok = {"<=": value <= threshold, ">=": value >= threshold,
          "<": value < threshold, ">": value > threshold}[comparator]
    return Assertion(aid, desc, value, comparator, float(threshold), bool(ok))


@dataclass
class VerificationSummary:
    experiment: str
    assertions: list
    passed: bool

    @classmethod
    def of(cls, experiment, assertions):
        return cls(experiment, assertions, all(a.passed for a in assertions))


# --------------------------------------------------------------------------
# defaults and validation
# --------------------------------------------------------------------------

def expand_config(config: dict) -> dict:
    """A config that ``validate`` accepts, with the experiment defaults in
    place of the keys it omits (of its solver and params blocks too); of
    ``{"experiment": name}``, every key a config may set."""
    name = config["experiment"]
    base = {"experiment": name, **DEFAULTS[name],
            "solver": {"residual_tol": 1e-9, "max_iterations": 400},
            "output_dir": "runs/" + name, "seed": 0, "workers": 1}
    return {**base, **config, **{b: {**base[b], **config.get(b, {})}
                                 for b in ("solver", "params")}}


@dataclass(frozen=True)
class _Interval:
    """The numbers from ``low`` to ``high``; ``ends`` closes an end with
    "[" or "]" and opens it with "(" or ")", as the interval is printed."""

    low: float
    high: float
    ends: str = "()"
    why: str = ""

    def __contains__(self, x) -> bool:
        lo, hi = self.ends
        return ((self.low < x or (lo == "[" and x == self.low))
                and (x < self.high or (hi == "]" and x == self.high)))

    def __str__(self) -> str:
        return f"{self.ends[0]}{self.low:g}, {self.high:g}{self.ends[1]}"


_POSITIVE, _NON_NEGATIVE = _Interval(0, math.inf), _Interval(0, math.inf, "[)")
_ONE_OR_MORE = _Interval(1, math.inf, "[)")

#: The rule of each key that is checked alone, by its full key: the
#: interval a number lies in (a list: its number of entries), or the
#: strings it may be.  Each value also has the type of its default.
_RULES = {
    "eps_list": _ONE_OR_MORE,
    "workers": _ONE_OR_MORE,
    "solver.residual_tol": _POSITIVE,
    "solver.max_iterations": _NON_NEGATIVE,
    **{"params." + key: _POSITIVE for key in (
        "L", "unit_spacing", "window", "R", "points_per_unit_scale",
        "base_support", "base_amplitude", "residual_tol", "domain_length",
        "spacing_per_eps", "S", "S_prime")},
    "params.sigma": _NON_NEGATIVE,
    "params.gamma": _Interval(0, 1, "(]"),
    "params.level_band": _Interval(0, 1),
    "params.delta": _Interval(0, MAX_FLOOR_DELTA, why="below its top the "
                              "clamped potential keeps a monotone derivative"),
    "params.offset_scale": _Interval(-THETA_REL_TOL, THETA_REL_TOL, why="the "
                                     "theta search resolves no larger offset"),
    "params.slope_window": _Interval(2, 2, "[]"),
    "params.interfaces": _Interval(2, 2, "[]"),
    "params.probe_radii": _ONE_OR_MORE,
    "params.base_shape": BUMP_SHAPES,
}


def _is_number(v) -> bool:
    # compared, not converted: an int beyond the float range stays an error
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _value_errors(key: str, value, default) -> list[str]:
    """What is wrong with one value alone: a type other than its default's
    (an integer, a finite number, a list of finite numbers or a string), or
    a value that breaks its rule in ``_RULES``."""
    if isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    elif isinstance(default, list):
        ok = isinstance(value, list) and all(_is_number(v) for v in value)
        kind = "a list of finite numbers"
    elif isinstance(default, int):
        ok, kind = type(value) is int, "an integer"
    else:
        ok, kind = _is_number(value), "a finite number"
    if not ok:
        return [f"{key} must be {kind}, got {value!r}"]
    rule, is_list = _RULES.get(key), isinstance(value, list)
    if rule is None or (len(value) if is_list else value) in rule:
        return []
    if not isinstance(rule, _Interval):
        return [f"{key} must be one of {rule}, got {value!r}"]
    what = "have a number of entries in" if is_list else "lie in"
    why = f"; {rule.why}" if rule.why else ""
    return [f"{key} must {what} {rule}, got {value!r}{why}"]


def validate(config) -> list[str]:
    """Pure validation; returns a list of error messages (empty when ok).
    Each key of the raw config, its solver and its params is checked alone
    first; the checks that compare keys run once every key passes."""
    if not isinstance(config, dict):
        return [f"config must be a JSON object, got {type(config).__name__}"]
    name = config.get("experiment")
    if name not in EXPERIMENTS:
        return [f"experiment must be one of {EXPERIMENTS}, got {name!r}"]
    base = expand_config({"experiment": name})
    errors = []
    for prefix, block, defaults in (
            ("", config, base),
            ("solver.", config.get("solver", {}), base["solver"]),
            ("params.", config.get("params", {}), base["params"])):
        if not isinstance(block, dict):
            errors.append(f"{prefix[:-1]} must be an object, got {block!r}")
            continue
        for key, value in block.items():
            if key not in defaults:
                errors.append(f"unknown key {prefix}{key}; expected one of "
                              f"{sorted(defaults)}")
            elif not isinstance(defaults[key], dict):
                errors += _value_errors(prefix + key, value, defaults[key])
    if errors:
        return errors
    cfg = expand_config(config)
    eps, p, n = cfg["eps_list"], cfg["params"], cfg["n"]
    _, dims, defaults = _EXPERIMENTS[name]
    if len(eps) == 1 and len(defaults["eps_list"]) > 1:
        errors.append(f"{name} needs at least 2 eps values: its assertions "
                      "compare the members along the sweep")
    if not all(a > b for a, b in zip(eps, eps[1:] + [0])):
        errors.append(f"eps_list must be positive and strictly decreasing, "
                      f"got {eps!r}")
    if n not in dims:
        errors.append(f"n must be one of {dims} for {name}, got {n!r}")
    elif name == "unbounded" and not 4 * p["theta_exponent"] < n - 1:
        errors.append(f"params.theta_exponent must lie below (n - 1) / 4 = "
                      f"{(n - 1) / 4}, so that eps^(n-1) theta^4 decreases "
                      f"along the sweep; got {p['theta_exponent']!r}")
    if "probe_radii" in p and not all(r > 0 for r in p["probe_radii"]):
        errors.append("params.probe_radii entries must be positive, got "
                      f"{p['probe_radii']!r}")
    if "probe_radii" in p and (p["concentration_radius"]
                               not in p["probe_radii"]):
        errors.append("params.concentration_radius must be one of "
                      f"params.probe_radii {p['probe_radii']!r}, got "
                      f"{p['concentration_radius']!r}")
    z, window = p.get("interfaces"), p.get("slope_window")
    if z and not 0 < z[0] < z[1] < p["L"]:
        errors.append("params.interfaces must satisfy 0 < interfaces[0] < "
                      f"interfaces[1] < params.L = {p['L']!r}, got {z!r}")
    if window and not window[0] < window[1]:
        errors.append(f"params.slope_window must be increasing, got {window!r}")
    if name == "tanh_calibration" and not errors:
        try:
            _calibration_grid(cfg)
        except (ValueError, ArithmeticError) as exc:
            errors.append("params.domain_length and params.spacing_per_eps "
                          f"give no calibration grid at eps {eps[0]!r}: {exc}")
    if name == "hoelder_blowup" and not errors:
        try:
            for e in eps:
                g, _ = _hoelder_grid(n, e, p["window"],
                                     p["points_per_unit_scale"])
                if not _hoelder_interior(g.scaled(e), e).any():
                    raise ValueError("no node lies farther than 2 eps from "
                                     "every face, so the interior probe "
                                     "region is empty")
        except (ValueError, ArithmeticError) as exc:
            errors.append("params.window and params.points_per_unit_scale "
                          f"give no Hoelder probe at eps {e!r}: {exc}")
    return errors


# --------------------------------------------------------------------------
# sweep rows
# --------------------------------------------------------------------------

def _row(experiment, n, eps, **kw):
    row = {c: "" for c in CSV_COLUMNS}
    row.update({"experiment": experiment, "n": n, "eps": eps})
    row.update(kw)
    return row


def _family_outputs(cfg, fam, prefix, columns=None):
    """Sweep rows and fields of a family run: one row per member, whose
    ``mass_total`` is ``S_eps`` unless its dict in ``columns`` (one per
    member) sets it, and one field ``<prefix>_eps<i>`` per member."""
    columns = columns or [{}] * len(fam.members)
    rows = [_row(cfg["experiment"], cfg["n"], m.eps,
                 theta_or_omega="" if m.parameter is None else m.parameter,
                 F_unit=m.unit_result.final_energy,
                 S_eps=m.energy.S_eps, W_eps=m.energy.W_eps,
                 sup_u=m.certificates["sup_u"],
                 residual=m.unit_result.residual,
                 iterations=m.unit_result.iterations,
                 **{"mass_total": m.energy.S_eps, **extra})
            for m, extra in zip(fam.members, columns)]
    fields = [(f"{prefix}_eps{i}", m.field) for i, m in enumerate(fam.members)]
    return rows, fields


# --------------------------------------------------------------------------
# experiments
# --------------------------------------------------------------------------

def _family(cfg, kind, **extra):
    """The ``kind`` family over the config's eps list, built from the
    config params that the kind reads plus ``extra``.  Unit solves run at
    the family's own ``eps * residual_tol``, so of the solver block only
    ``max_iterations`` reaches them."""
    params = {k: v for k, v in cfg["params"].items()
              if k in FAMILY_PARAMS[kind]}
    return build_family(kind, cfg["eps_list"],
                        {"n": cfg["n"], **params, **extra},
                        max_iterations=cfg["solver"]["max_iterations"],
                        workers=cfg["workers"])


def _calibration_grid(cfg):
    """The unit-scale 1D grid of the calibration: the domain and spacing
    of the config divided by its eps."""
    p = cfg["params"]
    eps = cfg["eps_list"][0]
    spacing = eps / p["spacing_per_eps"]
    return make_half_space_grid(1, p["domain_length"] / eps, spacing / eps,
                                1.0)[0]


def _hoelder_interior(grid, eps):
    """The region of the interior Hoelder quotient on a member's physical
    grid: the nodes farther than 2 eps from every face."""
    return interior_region_mask(grid, 2.0 * eps)


def run_tanh_calibration(cfg):
    p = cfg["params"]
    eps = cfg["eps_list"][0]
    x0 = p["interface_position"]

    gu = _calibration_grid(cfg)
    y = gu.axis_coords(0)
    profile = np.tanh((y - x0 / eps) / math.sqrt(2.0))
    scfg = SolveConfig(residual_tol=1e-10 if eps >= 0.05 else 1e-9)
    res = solve_half_space(np.asarray(profile[0] - 1.0), 1.0,
                           standard_potential(), gu, scfg, initial=profile)

    gp = gu.scaled(eps)
    raw = ScalarField(gp, np.tanh((gp.axis_coords(0) - x0)
                                  / (math.sqrt(2.0) * eps)), res.field.roles)
    relaxed = ScalarField(gp, res.field.values, res.field.roles)
    e_raw = EnergyBreakdown.of(raw, eps)
    e_rel = EnergyBreakdown.of(relaxed, eps)
    S_raw, W_raw = e_raw.S_eps, e_raw.W_eps
    S_rel, W_rel = e_rel.S_eps, e_rel.W_eps

    assertions = [
        _check("calibration.s_eps_sampled",
               "diffuse perimeter of the sampled optimal profile is 1",
               S_raw, "<=", 1.01),
        _check("calibration.s_eps_sampled_lo", "sampled perimeter lower bound",
               S_raw, ">=", 0.99),
        _check("calibration.s_eps_relaxed",
               "diffuse perimeter of the relaxed stationary profile",
               S_rel, "<=", 1.01),
        _check("calibration.s_eps_relaxed_lo", "relaxed perimeter lower bound",
               S_rel, ">=", 0.99),
        _check("calibration.w_eps",
               "curvature energy of the stationary profile is numerically zero",
               W_rel, "<=", 1e-4),
    ]
    rows = [_row("tanh_calibration", 1, eps, F_unit=res.final_energy,
                 S_eps=S_rel, W_eps=W_rel, sup_u=float(relaxed.values.max()),
                 residual=res.residual, iterations=res.iterations),
            _row("tanh_calibration", 1, eps, theta_or_omega="sampled",
                 S_eps=S_raw, W_eps=W_raw, sup_u=float(raw.values.max()))]
    fields = [("calibration_relaxed", relaxed), ("calibration_sampled", raw)]
    return rows, assertions, fields


def run_unbounded(cfg):
    p = cfg["params"]
    eps_list = cfg["eps_list"]
    fam = _family(cfg, "unbounded")

    sups = [lp_norm(m.field, "inf") for m in fam.members]
    S = [m.energy.S_eps for m in fam.members]
    W = [m.energy.W_eps for m in fam.members]
    peak = fam.members[0].certificates["base_peak"]
    slope = float(np.polyfit(np.log(eps_list), np.log(S), 1)[0])
    lo, hi = p["slope_window"]

    assertions = [
        _check("unbounded.sup_increasing",
               "sup-norms grow strictly along the sweep",
               min(np.diff(sups)), ">", 0.0),
        _check("unbounded.sup_floor",
               "each sup-norm clears 1 + theta/2 times the base peak",
               min(s - (1 + m.parameter / 2 * peak)
                   for s, m in zip(sups, fam.members)), ">=", 0.0),
        _check("unbounded.mass_decreasing",
               "diffuse masses decrease strictly",
               max(np.diff(S)), "<", 0.0),
        _check("unbounded.mass_slope_hi",
               "log-log mass slope against eps stays in the window",
               slope, "<=", hi),
        _check("unbounded.mass_slope_lo", "mass slope lower edge",
               slope, ">=", lo),
        _check("unbounded.willmore_zero",
               "curvature energy vanishes for every member",
               max(W), "<=", 1e-6),
    ]
    rows, fields = _family_outputs(cfg, fam, "unbounded")
    return rows, assertions, fields


def run_boundary_atom(cfg):
    p = cfg["params"]
    n = cfg["n"]
    S_target = p["S"]
    fam = _family(cfg, "boundary_atom")
    origin = tuple([0.0] * n)
    report = concentration_scan(fam, origin, p["probe_radii"])
    R1 = p["concentration_radius"]
    ratios = report.ratios_for(R1)
    outside = [r.mass_outside_sqrt_eps / r.total_mass for r in report.rows]

    mass_err = max(abs(m.energy.S_eps - S_target) / S_target
                   for m in fam.members)
    two_sided, trace_margin = _f_bound_margins(fam)
    tol2 = 2.0 * cfg["solver"]["residual_tol"]
    theta_slope = np.polyfit(np.log([1 / m.eps for m in fam.members]),
                             np.log([m.parameter for m in fam.members]), 1)[0]

    assertions = [
        _check("atom.mass_pinned",
               "every diffuse mass sits within 2% of the target",
               mass_err, "<=", 0.02),
        _check("atom.concentration_increasing",
               "ball-mass ratio at the fixed radius grows monotonically",
               min(np.diff(ratios)), ">", 0.0),
        _check("atom.concentration_final",
               "final concentration ratio reaches 0.95",
               ratios[-1], ">=", 0.95),
        _check("atom.tail_decreasing",
               "mass outside the sqrt(eps) ball decreases monotonically",
               max(np.diff(outside)), "<", 0.0),
        _check("atom.tail_final", "final tail fraction below 0.05",
               outside[-1], "<=", 0.05),
        _check("atom.two_sided_bound",
               "energy-vs-theta pairs obey the square/fourth-power envelope",
               two_sided, "<=", tol2),
        _check("atom.trace_lower_bound",
               "every cached energy clears the squared boundary trace norm",
               trace_margin, ">=", 0.0),
        _check("atom.willmore_zero", "curvature energy vanishes members-wide",
               max(m.energy.W_eps for m in fam.members), "<=", 1e-6),
        _check("atom.theta_polynomial",
               "theta grows at most polynomially in 1/eps (finite fitted "
               "log-log slope)",
               theta_slope, "<=", 8.0),
    ]
    r1, r2 = (float(p["probe_radii"][0]),
              float(p["probe_radii"][min(1, len(p["probe_radii"]) - 1)]))
    columns = [{"mass_total": crow.total_mass,
                "mass_in_R1": crow.ball_masses[r1],
                "mass_in_R2": crow.ball_masses[r2],
                "mass_outside_Reps": crow.mass_outside_sqrt_eps}
               for crow in report.rows]
    rows, fields = _family_outputs(cfg, fam, "boundary_atom", columns)
    return rows, assertions, fields


def _f_bound_margins(fam):
    """Worst two-sided-bound violation (relative) and worst trace-bound
    margin (relative) across all cached (theta, f) pairs of the family."""
    worst_pair = -np.inf
    worst_trace = np.inf
    for m in fam.members:
        pairs = m.certificates["f_pairs"]
        trace_sq = m.certificates["trace_norm_sq"]
        for th, fv in pairs:
            worst_trace = min(worst_trace,
                              (fv - th * th * trace_sq) / max(fv, 1e-300))
        for th1, f1 in pairs:
            for th2, f2 in pairs:
                if th1 == th2:
                    continue
                r = th2 / th1
                bound = max(r * r, r ** 4) * f1
                worst_pair = max(worst_pair, (f2 - bound) / max(bound, 1e-300))
    return worst_pair, worst_trace


def run_hausdorff_levelset(cfg):
    p = cfg["params"]
    n = cfg["n"]
    fam = _family(cfg, "hausdorff_levelset")

    band = p["level_band"]
    origin = np.zeros(n)
    sup_excess = max(lp_norm(m.field, "inf") - 1.0 for m in fam.members)
    distances = []
    counts = []
    for m in fam.members:
        cells = level_set(m.field, (-band, band))
        counts.append(cells.count())
        if cells.is_empty:
            distances.append(np.inf)
        else:
            distances.append(hausdorff_distance(cells, origin))
    S = [m.energy.S_eps for m in fam.members]

    assertions = [
        _check("hausdorff.range", "fields stay inside [-1, 1] up to 1e-6",
               sup_excess, "<=", 1e-6),
        _check("hausdorff.level_set_nonempty",
               "the mid-range level band is hit at every eps",
               min(counts), ">", 0.0),
        _check("hausdorff.distance",
               "level-set cells sit within the distance_factor * eps ball",
               max(d - p["distance_factor"] * m.eps
                   for d, m in zip(distances, fam.members)), "<=", 0.0),
        _check("hausdorff.mass_to_zero",
               "total masses decrease strictly toward zero",
               max(np.diff(S)), "<", 0.0),
        _check("hausdorff.willmore_zero", "curvature energies vanish",
               max(m.energy.W_eps for m in fam.members), "<=", 1e-6),
    ]
    rows, fields = _family_outputs(cfg, fam, "hausdorff")
    return rows, assertions, fields


def run_hoelder_blowup(cfg):
    p = cfg["params"]
    gamma = p["gamma"]
    fam = _family(cfg, "hoelder_blowup")

    scaled_boundary = []
    interior_raw = []
    columns = []
    for m in fam.members:
        g = m.field.grid
        # the wall strip: the first three node layers along x_n
        strip = np.zeros(g.shape, dtype=bool)
        strip[..., :3] = True
        qb = hoelder_quotient(m.field, m.eps, gamma, strip)
        interior = _hoelder_interior(g, m.eps)
        qi = hoelder_quotient(m.field, m.eps, gamma, interior, mode="dyadic")
        scaled_boundary.append(m.eps ** gamma * qb.quotient)
        interior_raw.append(qi.quotient)
        columns.append({"hoelder_boundary": qb.quotient,
                        "hoelder_interior": qi.quotient})

    variation = ((max(interior_raw) - min(interior_raw)) / max(interior_raw)
                 if max(interior_raw) > 0 else 0.0)
    assertions = [
        _check("hoelder.boundary_divergence",
               "scaled boundary quotients grow strictly along the sweep",
               min(np.diff(scaled_boundary)), ">", 0.0),
        _check("hoelder.interior_stable",
               "interior quotients on the shrunken domain stay flat",
               variation, "<", p["interior_variation_tol"]),
        _check("hoelder.willmore_zero", "curvature energies vanish",
               max(m.energy.W_eps for m in fam.members), "<=", 1e-6),
    ]
    rows, fields = _family_outputs(cfg, fam, "hoelder", columns)
    return rows, assertions, fields


def run_oscillation_atom(cfg):
    p = cfg["params"]
    fam = _family(cfg, "oscillation_atom")

    S_prime, delta = p["S_prime"], p["delta"]
    m0 = fam.members[0]
    semi = m0.certificates["seminorm"]
    diri = m0.certificates["dirichlet_energy"]
    floor = 1.0 - 2.0 * delta
    min_u = min(m.certificates["min_u"] for m in fam.members)

    assertions = [
        _check("oscillation.seminorm_lo",
               "constructed trace seminorm reaches the target",
               semi, ">=", S_prime),
        _check("oscillation.seminorm_hi",
               "seminorm stays within 10% above the target",
               semi, "<=", 1.1 * S_prime),
        _check("oscillation.floor",
               "fields never dip below the potential floor",
               min_u, ">=", floor - 1e-6),
        _check("oscillation.dirichlet_bound",
               "gradient energy dominates 0.9 times the trace seminorm",
               diri, ">=", 0.9 * semi),
        _check("oscillation.willmore_zero", "curvature energies vanish",
               max(m.energy.W_eps for m in fam.members), "<=", 1e-6),
    ]
    rows, fields = _family_outputs(cfg, fam, "oscillation")
    return rows, assertions, fields


def run_neumann_layer(cfg):
    p = cfg["params"]
    n = cfg["n"]
    eps_list = cfg["eps_list"]
    masses = []
    rows = []
    fields = []
    for i, eps in enumerate(eps_list):
        u = neumann_layer_field(eps, L=p["L"],
                                interfaces=tuple(p["interfaces"]),
                                bump_amp=p["bump_amp"],
                                amp_power=p["amp_power"])
        # S_eps, W_eps and the excess mass from one pass over the density
        # slabs, with no full-size density array
        energy = EnergyBreakdown.of(u, eps, theta=1.0)
        masses.append(energy.excess_mass)
        v = u.values
        rows.append(_row("neumann_layer", n, eps,
                         S_eps=energy.S_eps, W_eps=energy.W_eps,
                         boundary_layer_mass=energy.excess_mass,
                         sup_u=max(float(v.max()), -float(v.min()))))
        if i == len(eps_list) - 1:
            fields.append(("neumann_layer_finest", u))
        # drop this member's field before the next, finer one is built
        del u, v
    if all(m > 0 for m in masses):
        exponent = float(np.polyfit(np.log(eps_list), np.log(masses), 1)[0])
    else:
        # an empty excess set at some eps leaves no scaling to fit
        exponent = -np.inf
    assertions = [
        _check("neumann.layer_exponent",
               "excess-set mass scales at least like eps^1.8 over the sweep",
               exponent, ">=", p["exponent_floor"]),
        _check("neumann.layer_nonempty",
               "the excess set carries positive mass at every eps",
               min(masses), ">", 0.0),
    ]
    return rows, assertions, fields


def run_penalty_zero(cfg):
    p = cfg["params"]
    eps_list = cfg["eps_list"]
    eps0 = eps_list[0]
    offsets = {e: p["offset_scale"] * (e / eps0) for e in eps_list}
    fam = _family(cfg, "boundary_atom", rel_offsets=offsets)
    # the area-penalized functional W_eps + eps^(-sigma) (S_eps - S)^2
    S, sigma = float(p["S"]), p["sigma"]
    pen = [m.energy.W_eps + m.eps ** (-sigma) * (m.energy.S_eps - S) ** 2
           for m in fam.members]
    assertions = [
        _check("penalty.monotone",
               "penalized energies decrease strictly along the sweep",
               max(np.diff(pen)), "<", 0.0),
        _check("penalty.final", "final penalized energy at most 1e-4",
               pen[-1], "<=", 1e-4),
    ]
    columns = [{"F_eps_penalized": f} for f in pen]
    rows, fields = _family_outputs(cfg, fam, "penalty_zero", columns)
    return rows, assertions, fields


def _family_keys(kind: str) -> dict:
    """The family parameters a config may set, with the family defaults:
    every key of ``FAMILY_PARAMS[kind]`` except ``n`` (a top-level config
    key) and the switches that are off by default, which runners set."""
    return {k: v for k, v in FAMILY_PARAMS[kind].items()
            if k != "n" and v is not None}


#: Each experiment's run function, the dimensions it runs in, and its
#: defaults.  An experiment whose default sweep has several eps values
#: compares its members, so a config of it needs at least two.
_EXPERIMENTS = {
    "tanh_calibration": (run_tanh_calibration, (1,), {
        "n": 1, "eps_list": [0.1],
        "params": {"domain_length": 10.0, "spacing_per_eps": 8.0,
                   "interface_position": 5.0}}),
    "unbounded": (run_unbounded, (1, 2, 3), {
        "n": 2, "eps_list": [0.1, 0.05, 0.025],
        "params": {**_family_keys("unbounded"), "slope_window": [0.3, 0.7]}}),
    "boundary_atom": (run_boundary_atom, (1, 2, 3), {
        "n": 2, "eps_list": [0.2, 0.1, 0.05],
        "params": {**_family_keys("boundary_atom"),
                   "probe_radii": [0.25, 0.1], "concentration_radius": 0.25}}),
    # at n = 1 the hausdorff_levelset and hoelder_blowup data pin the whole
    # face to -1, so the one interface floats between the faces and the
    # solve stalls
    "hausdorff_levelset": (run_hausdorff_levelset, (2, 3), {
        "n": 2, "eps_list": [0.1, 0.05, 0.025],
        "params": {**_family_keys("hausdorff_levelset"), "level_band": 0.25,
                   "distance_factor": 8.0}}),
    "hoelder_blowup": (run_hoelder_blowup, (2, 3), {
        "n": 2, "eps_list": [0.2, 0.1, 0.05],
        "params": {**_family_keys("hoelder_blowup"), "gamma": 0.5,
                   "interior_variation_tol": 0.2}}),
    "oscillation_atom": (run_oscillation_atom, (2, 3), {
        "n": 2, "eps_list": [0.1],
        "params": _family_keys("oscillation_atom")}),
    "neumann_layer": (run_neumann_layer, (2,), {
        "n": 2, "eps_list": [0.064, 0.032, 0.016, 0.008],
        "params": {"L": 2.4, "interfaces": [0.7, 1.7], "bump_amp": 0.5,
                   "amp_power": 1.5, "exponent_floor": 1.8}}),
    "penalty_zero": (run_penalty_zero, (1, 2, 3), {
        "n": 2, "eps_list": [0.2, 0.1, 0.05],
        "params": {**_family_keys("boundary_atom"), "sigma": 1.0,
                   "offset_scale": 1e-3}}),
}

EXPERIMENTS = tuple(_EXPERIMENTS)
DEFAULTS = {name: defaults for name, (_, _, defaults) in _EXPERIMENTS.items()}
# run() looks each experiment up here, not in _EXPERIMENTS:
# perfbench/tracing.py wraps every value of this dict as its span
RUNNERS = {name: fn for name, (fn, _, _) in _EXPERIMENTS.items()}


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _csv_text(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _strict(record: dict) -> dict:
    """The record with each non-finite float written as its name ("inf",
    "-inf" or "nan"), which strict JSON parsers accept."""
    return {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in record.items()}


def render_summary(summary_doc) -> str:
    lines = [f"experiment: {summary_doc['experiment']}",
             f"overall: {'PASS' if summary_doc['passed'] else 'FAIL'}", ""]
    for a in summary_doc["assertions"]:
        status = "PASS" if a["passed"] else "FAIL"
        lines.append(f"[{status}] {a['id']}: {float(a['value']):.6g} "
                     f"{a['comparator']} {float(a['threshold']):.6g}  "
                     f"({a['description']})")
    return "\n".join(lines) + "\n"


def run(config: dict) -> VerificationSummary:
    """Validate, execute and emit one experiment run.

    Raises ValueError on an invalid config.  Returns the verification
    summary; all artifacts are written under ``config['output_dir']``.
    """
    errors = validate(config)
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))
    cfg = expand_config(config)

    rows, assertions, fields = RUNNERS[cfg["experiment"]](cfg)
    summary = VerificationSummary.of(cfg["experiment"], assertions)

    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    os.makedirs(os.path.join(out, "fields"), exist_ok=True)
    # each file's digest is taken from the bytes as they are written
    digests = {}

    def write_text(name, text):
        path = os.path.join(out, name)
        digests[path] = write_hashed(path, text.encode("utf-8"))

    write_text("sweep.csv", _csv_text(rows))
    for name, fld in fields:
        digests.update(save_field(fld, os.path.join(out, "fields", name)))

    summary_doc = {
        "experiment": cfg["experiment"],
        "passed": summary.passed,
        "assertions": [_strict(asdict(a)) for a in assertions],
        "config": {k: cfg[k] for k in
                   ("experiment", "n", "eps_list", "solver", "params", "seed")},
        "conventions": {
            "normalization_constant_c0": c0(),
            "seminorm_constant": "harmonic-extension normalization, "
                                 "1/(2 pi) for 1D faces, 1/(4 pi) for 2D",
            "mass_values": "S_eps columns use the 1/c0-normalized diffuse "
                           "perimeter; F_unit is the raw unit-scale energy",
        },
    }
    write_text("summary.json",
               json.dumps(summary_doc, indent=2, sort_keys=True,
                          allow_nan=False) + "\n")
    write_text("summary.txt", render_summary(summary_doc))

    manifest = {"files": {os.path.relpath(f, out): d
                          for f, d in digests.items()}}
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
