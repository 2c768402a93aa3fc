"""Boundary-data families and epsilon-indexed phase-field constructions.

Each family solves the unit-scale problem once per epsilon and reads the
solution as ``u_eps(x) = u_unit(x / eps)`` on the physical grid, the exact
``eps``-scaled image of the unit grid.  Node ``i`` of one is node ``i`` of
the other, so there is no transport step: a member's field shares the
values array of its unit solve, and the discrete stationarity defect of
the physical field is the unit-solve residual divided by eps.  Unit solves
therefore run at residual tolerance ``eps * residual_tol``, which makes
the certified bound

    W_eps(u_eps) <= residual_tol^2 * volume / (c0 * eps)

hold for the computed curvature energy by construction.

Family kinds
------------
``unbounded``          boundary bumps ``theta_eps * h`` with
                       ``theta_eps = eps^-theta_exponent`` and
                       ``eps^(n-1) theta_eps^4 -> 0``; sup-norms blow up
                       while all energies vanish.
``boundary_atom``      ``theta_eps`` tuned so the diffuse mass is exactly
                       S for every eps; the mass concentrates at one
                       boundary point.
``hausdorff_levelset`` data ``1 - h`` with ``h(0) = 2``; fields stay in
                       [-1, 1] and every mid-range level set survives near
                       the origin at scale eps.
``hoelder_blowup``     data ``1 - h(omega_eps x)``, ``omega_eps = eps^-1/2``,
                       on a blow-up window
                       ``eps * [-B, B]^(n-1) x [0, B*eps]``; boundary
                       Hoelder quotients at scale eps grow without bound.
``oscillation_atom``   oscillatory data ``1 - h`` with ``0 <= h <= delta``
                       and large trace seminorm, solved with the
                       floor-modified potential.

Every member of every kind goes through one pipeline: the kind's unit
solve maps eps to a solve on its unit grid, and ``build_family`` reads it
as the physical member.  ``FAMILY_PARAMS`` lists, for each kind, every
parameter its unit solve reads with its default; ``build_family`` raises
``ValueError`` on any other key.  Of the solver settings, the family
layer takes only the iteration cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import (
    EnergyBreakdown,
    Potential,
    ScalarField,
    c0,
    dirichlet_part,
    standard_potential,
    modified_floor_potential,
)
from .grid import (Grid, NeumannZero, face_coords, face_radii,
                   make_half_space_grid)
from .solver import SolveConfig, SolveResult, solve_half_space

__all__ = [
    "BoundaryData",
    "FamilyMember",
    "CounterexampleFamily",
    "BracketFailureError",
    "ResolutionExhaustedError",
    "bump",
    "f_of_theta",
    "find_theta_for_mass",
    "build_family",
    "h_half_seminorm",
    "seminorm_constant",
    "build_oscillating_boundary",
    "neumann_layer_field",
    "FAMILY_PARAMS",
    "BUMP_SHAPES",
]

#: The base profiles ``bump`` can sample.
BUMP_SHAPES = ("exp_decay", "compact_bump")


class BracketFailureError(RuntimeError):
    """The energy-vs-theta curve cannot reach the requested target below
    the theta ceiling THETA_MAX (grid or truncation radius too small)."""


class ResolutionExhaustedError(RuntimeError):
    """The boundary grid cannot resolve the oscillation frequency needed
    to reach the requested seminorm; refine the spacing."""


# --------------------------------------------------------------------------
# boundary data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryData:
    """Samples of a boundary function on the flat-face node lattice.

    ``coords`` holds one coordinate array per tangential axis (empty tuple
    in dimension one, where the face is a single point).  The optional
    ``envelope = (C_h, rate)`` certifies ``|h| <= C_h exp(-rate |x|)`` and
    is verified by a pointwise scan at construction, as is the exact
    vanishing of the samples outside ``support_radius``.
    """

    coords: tuple
    samples: np.ndarray
    spacing: float
    envelope: tuple[float, float] | None = None
    support_radius: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        object.__setattr__(self, "coords",
                           tuple(np.asarray(c, dtype=float) for c in self.coords))
        if self.samples.shape != tuple(len(c) for c in self.coords):
            raise ValueError("samples shape does not match face coordinates")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("boundary samples must be finite")
        r = self.radii()
        if self.envelope is not None:
            C_h, rate = self.envelope
            if np.any(np.abs(self.samples) > C_h * np.exp(-rate * r) + 1e-12):
                raise ValueError("envelope certificate fails a pointwise scan")
        if self.support_radius is not None:
            outside = r > self.support_radius
            if np.any(self.samples[outside] != 0.0):
                raise ValueError("samples must vanish exactly outside the "
                                 "support radius")

    def radii(self) -> np.ndarray:
        return face_radii(self.coords)

    def scaled(self, factor: float) -> "BoundaryData":
        env = None
        if self.envelope is not None:
            env = (abs(factor) * self.envelope[0], self.envelope[1])
        return BoundaryData(self.coords, factor * self.samples, self.spacing,
                            env, self.support_radius, dict(self.meta))

    @property
    def boundary_dim(self) -> int:
        return len(self.coords)


def _window(q2):
    """The smooth window ``exp(1 - 1/(1 - q2))`` where the squared radius
    ratio ``q2`` is below 1 and 0 elsewhere, written into ``q2`` (into a
    0-d array of it where ``q2`` is a scalar, as on the point face of a 1D
    grid)."""
    q2 = np.asarray(q2)
    ins = q2 < 1.0
    inside = np.exp(1.0 - 1.0 / (1.0 - q2[ins]))
    q2.fill(0.0)
    q2[ins] = inside
    return q2


def bump(grid: Grid, theta: float, shape: str = "exp_decay",
         width: float = 1.0, amplitude: float = 1.0) -> BoundaryData:
    """``theta`` times a base profile centred at the origin, sampled on the
    flat face of ``grid``; the profile vanishes outside radius ``width``.

    ``shape`` is ``"exp_decay"`` (``amplitude * e^-|x|`` under the smooth
    window ``exp(1 - 1/(1 - (|x|/width)^2))``; carries the envelope
    certificate ``(theta * amplitude, 1)``) or ``"compact_bump"`` (the
    window alone, peak ``amplitude`` at the origin).
    """
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    if shape not in BUMP_SHAPES:
        raise ValueError(f"unknown bump shape {shape!r}")
    coords = face_coords(grid)
    r = face_radii(coords)
    window = _window((r / width) ** 2)
    if shape == "exp_decay":
        base = amplitude * np.exp(-r) * window
        envelope = (theta * amplitude, 1.0)
    else:
        base = amplitude * window
        envelope = None
    return BoundaryData(coords, theta * base, grid.spacing, envelope,
                        support_radius=width)


# --------------------------------------------------------------------------
# the map theta -> F(u_theta)
# --------------------------------------------------------------------------

def f_of_theta(theta: float, base: BoundaryData, potential: Potential,
               grid: Grid, cfg: SolveConfig,
               cache: dict[float, SolveResult] | None = None) -> float:
    """Minimal unit-scale energy for boundary data ``theta * base``.

    ``cache`` maps each theta solved so far to its solve.  When one is
    supplied, a cached theta is not solved again, a new one is
    warm-started from the nearest cached theta, and its solve is recorded.
    Each family member or mass search owns its cache.
    """
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    initial = None
    if cache:
        if theta in cache:
            return cache[theta].final_energy
        initial = cache[min(cache, key=lambda t: abs(t - theta))].field.values
    result = solve_half_space(theta * base.samples, 1.0, potential, grid, cfg,
                              initial=initial)
    if cache is not None:
        cache[theta] = result
    return result.final_energy


#: Relative accuracy of the theta root-find (a ``rel_offset`` must stay
#: strictly inside it), and the ceiling of its bracket.
THETA_REL_TOL = 5e-3
THETA_MAX = 1e4


def find_theta_for_mass(target: float, base: BoundaryData,
                        potential: Potential, grid: Grid, cfg: SolveConfig,
                        cache: dict[float, SolveResult] | None = None,
                        rel_offset: float = 0.0) -> float:
    """Theta with ``f(theta) = target``, a unit-scale energy (``c0 S
    eps^(1-n)`` for diffuse mass S), to relative accuracy THETA_REL_TOL.

    The root is found by bracketing with doublings up to THETA_MAX
    (justified by the growth bound ``f(2 theta) <= 16 f(theta)``) followed
    by a safeguarded secant iteration on the strictly increasing cached
    map.  ``rel_offset`` shifts the aim to ``target (1 + rel_offset)`` and
    must stay below THETA_REL_TOL; it gives penalty-schedule experiments a
    deterministic landing point inside the contractual tolerance band.
    """
    if not target > 0:
        raise ValueError(f"target must be positive, got {target!r}")
    if abs(rel_offset) >= THETA_REL_TOL:
        raise ValueError("rel_offset must be smaller than THETA_REL_TOL")
    aim = target * (1.0 + rel_offset)
    if rel_offset:
        inner_tol = max(abs(rel_offset) / 10.0, 1e-12)
    else:
        inner_tol = THETA_REL_TOL / 2.0
    cache = cache if cache is not None else {}

    def f(th):
        return f_of_theta(th, base, potential, grid, cfg, cache)

    lo, f_lo = 1.0, f(1.0)
    if f_lo >= aim:
        hi, f_hi = lo, f_lo
        while f_lo >= aim:
            lo *= 0.5
            if lo < 1e-8:
                raise BracketFailureError("target energy below reach of any "
                                          "positive theta")
            f_lo = f(lo)
    else:
        hi = 2.0
        f_hi = f(hi)
        while f_hi < aim:
            lo, f_lo = hi, f_hi
            hi *= 2.0
            if hi > THETA_MAX:
                raise BracketFailureError(
                    f"f(theta) cannot reach {aim:.4g} below the ceiling "
                    f"THETA_MAX = {THETA_MAX}")
            f_hi = f(hi)

    best_th, best_err = (lo, abs(f_lo - aim)) \
        if abs(f_lo - aim) < abs(f_hi - aim) else (hi, abs(f_hi - aim))
    for _ in range(80):
        if best_err <= inner_tol * target:
            break
        th = lo + (aim - f_lo) * (hi - lo) / (f_hi - f_lo)
        th = min(max(th, lo + 0.02 * (hi - lo)), hi - 0.02 * (hi - lo))
        f_th = f(th)
        err = abs(f_th - aim)
        if err < best_err:
            best_th, best_err = th, err
        if f_th < aim:
            lo, f_lo = th, f_th
        else:
            hi, f_hi = th, f_th

    if abs(f(best_th) - target) > THETA_REL_TOL * target:
        raise BracketFailureError(
            f"secant landed {abs(f(best_th) - target):.3g} away from "
            f"the target {target:.6g}")
    return best_th


# --------------------------------------------------------------------------
# families
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyMember:
    eps: float
    parameter: float | None
    unit_result: SolveResult
    field: ScalarField
    energy: EnergyBreakdown
    certificates: dict


@dataclass(frozen=True)
class CounterexampleFamily:
    kind: str
    members: tuple[FamilyMember, ...]
    params: dict


def _member_from_solve(eps: float, parameter, result: SolveResult,
                       tol_phys: float, extra_certs=None) -> FamilyMember:
    grid = result.field.grid
    phys_grid = grid.scaled(eps)
    phys = ScalarField(phys_grid, result.field.values, result.field.roles)
    energy = EnergyBreakdown.of(phys, eps)
    volume = phys_grid.num_nodes * phys_grid.cell_measure
    w_bound = tol_phys ** 2 * volume / (c0() * eps)
    book = eps ** (grid.n - 1) * result.final_energy / c0()
    certs = {
        "willmore_bound": w_bound,
        "willmore_ok": energy.W_eps <= w_bound,
        "mass_bookkeeping_rel": abs(energy.S_eps - book) / max(abs(book), 1e-300),
        "sup_u": float(np.max(phys.values)),
        "min_u": float(np.min(phys.values)),
    }
    if extra_certs:
        certs.update(extra_certs)
    return FamilyMember(eps, parameter, result, phys, energy, certs)


def build_family(kind: str, eps_list, params: dict,
                 max_iterations: int = 400) -> CounterexampleFamily:
    """Construct one counterexample family over ``eps_list``, a non-empty,
    strictly decreasing sequence of finite positive eps values.

    ``params`` may set any key of ``FAMILY_PARAMS[kind]``; the rest keep
    their defaults, and any other key raises ValueError.  Unit solves run
    at ``eps * params["residual_tol"]`` and stop with NonConvergenceError
    after ``max_iterations`` iterations.

    Members are built one after the other, in the order of ``eps_list``,
    on the calling thread.
    """
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}")
    unit_solve, defaults = _FAMILIES[kind]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {kind} params {unknown}; expected keys "
                         f"from {sorted(defaults)}")
    params = {**defaults, **params}
    eps_list = tuple(float(e) for e in eps_list)
    if not eps_list:
        raise ValueError("eps_list must be non-empty")
    if any(e <= 0 or not math.isfinite(e) for e in eps_list):
        raise ValueError("eps values must be finite and positive")
    if not all(b < a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    tol_phys = float(params["residual_tol"])

    def build_one(eps):
        result, parameter, extra_certs = unit_solve(
            eps, params, SolveConfig(eps * tol_phys, max_iterations))
        return _member_from_solve(eps, parameter, result, tol_phys,
                                  extra_certs)

    members = _map_members(build_one, eps_list)
    return CounterexampleFamily(kind, tuple(members), params)


def _map_members(fn, eps_list) -> list:
    """``[fn(eps) for eps in eps_list]``, in order on the calling thread.
    ``perfbench/tracing.py`` wraps it as the span of one family member."""
    return [fn(eps) for eps in eps_list]


def _half_space_unit_grid(n: int, R: float, unit_spacing: float) -> Grid:
    m = max(4, round(R / unit_spacing))
    return make_half_space_grid(n, m * unit_spacing, unit_spacing, 1.0)[0]


def _unbounded(eps, p, cfg):
    n, a = int(p["n"]), float(p["theta_exponent"])
    if not 4 * a < n - 1:
        raise ValueError(f"unbounded family needs theta_exponent below "
                         f"(n - 1) / 4 = {(n - 1) / 4}, so that "
                         f"eps^(n-1) theta^4 vanishes; got {a!r}")
    theta = eps ** -a
    g = _half_space_unit_grid(n, float(p["L"]) / eps, float(p["unit_spacing"]))
    base = bump(g, 1.0, shape=p["base_shape"],
                amplitude=float(p["base_amplitude"]))
    res = solve_half_space(theta * base.samples, 1.0, standard_potential(),
                           g, cfg)
    return res, theta, {"base_peak": float(np.max(base.samples))}


def _boundary_atom(eps, p, cfg):
    S = float(p["S"])
    if S <= 0:
        raise ValueError("boundary_atom needs S > 0")
    offsets = p["rel_offsets"]
    if offsets is not None and eps not in offsets:
        raise ValueError(f"rel_offsets has no offset for eps {eps!r}")
    n = int(p["n"])
    g = _half_space_unit_grid(n, float(p["L"]) / eps, float(p["unit_spacing"]))
    base = bump(g, 1.0, shape="exp_decay",
                amplitude=float(p["base_amplitude"]),
                width=float(p["base_support"]))
    # the theta -> energy cache is grid-specific, hence per member
    cache = {}
    th = find_theta_for_mass(
        c0() * S * eps ** (1 - n), base, standard_potential(), g, cfg,
        cache=cache,
        rel_offset=0.0 if offsets is None else float(offsets[eps]))
    return cache[th], th, {
        "f_pairs": sorted((t, r.final_energy) for t, r in cache.items()),
        "trace_norm_sq": _trace_norm_sq(base)}


def _trace_norm_sq(base: BoundaryData) -> float:
    """Discrete boundary L2 norm squared of the base samples."""
    return float(np.sum(base.samples ** 2)) * base.spacing ** base.boundary_dim


def _hausdorff_levelset(eps, p, cfg):
    g = _half_space_unit_grid(int(p["n"]), float(p["L"]) / eps,
                              float(p["unit_spacing"]))
    base = bump(g, 1.0, shape="compact_bump", amplitude=2.0)
    if abs(float(np.max(base.samples)) - 2.0) > 1e-9:
        raise ValueError("hausdorff base bump must peak at exactly 2")
    return (solve_half_space(-base.samples, 1.0, standard_potential(), g, cfg),
            None, None)


def _hoelder_grid(n: int, eps: float, window, points_per_unit_scale):
    """The unit grid of the hoelder_blowup member at eps, of half-width
    ``window``, and its data frequency ``omega = eps^-1/2``."""
    B = float(window)
    omega = eps ** -0.5
    m = int(math.ceil(float(points_per_unit_scale) * omega * B))
    return make_half_space_grid(n, B, B / m, 1.0)[0], omega


def _hoelder_blowup(eps, p, cfg):
    g, omega = _hoelder_grid(int(p["n"]), eps, p["window"],
                             p["points_per_unit_scale"])
    # data 1 - h(omega x): sample the peak-2 bump at frequency omega
    base = bump(g, 1.0, shape="compact_bump", amplitude=2.0, width=1.0 / omega)
    return (solve_half_space(-base.samples, 1.0, standard_potential(), g, cfg),
            omega, None)


def _oscillation_atom(eps, p, cfg):
    delta = float(p["delta"])
    g = _half_space_unit_grid(int(p["n"]), float(p["R"]),
                              float(p["unit_spacing"]))
    data = build_oscillating_boundary(float(p["S_prime"]), delta, g)
    res = solve_half_space(-data.samples, 1.0,
                           modified_floor_potential(delta), g, cfg)
    return res, data.meta["frequency"], {
        "seminorm": data.meta["seminorm"],
        "dirichlet_energy": dirichlet_part(res.field)}


#: Each family kind's unit solve, a function ``(eps, params, solve config)
#: -> (unit solve, parameter, extra certificates)``, and every parameter it
#: reads, with its default.  ``n`` is the dimension and ``residual_tol`` the
#: physical-defect tolerance of the curvature certificate; ``rel_offsets``
#: (the mass-target offset of each eps, keyed by eps) defaults to None,
#: which means off.
_FAMILIES = {
    "unbounded": (_unbounded, {
        "n": 2, "residual_tol": 1e-6, "L": 0.5, "unit_spacing": 1 / 16,
        "base_shape": "compact_bump", "base_amplitude": 3.0,
        "theta_exponent": 0.125}),
    "boundary_atom": (_boundary_atom, {
        "n": 2, "residual_tol": 1e-6, "S": 1.0, "L": 1.0,
        "unit_spacing": 1 / 16, "base_amplitude": 0.5, "base_support": 4.0,
        "rel_offsets": None}),
    "hausdorff_levelset": (_hausdorff_levelset, {
        "n": 2, "residual_tol": 1e-6, "L": 0.5, "unit_spacing": 1 / 16}),
    "hoelder_blowup": (_hoelder_blowup, {
        "n": 2, "residual_tol": 1e-6, "window": 12.0,
        "points_per_unit_scale": 6.0}),
    "oscillation_atom": (_oscillation_atom, {
        "n": 2, "residual_tol": 1e-6, "S_prime": 0.1, "delta": 0.15,
        "R": 2.0, "unit_spacing": 1 / 128}),
}

#: Every parameter each family kind reads, with its default.
FAMILY_PARAMS = {kind: params for kind, (_, params) in _FAMILIES.items()}


# --------------------------------------------------------------------------
# trace seminorm and oscillating data
# --------------------------------------------------------------------------

def seminorm_constant(boundary_dim: int) -> float:
    """Normalization of the squared trace seminorm.

    Chosen so the seminorm equals the Dirichlet integral of the harmonic
    extension (hence lower-bounds the Dirichlet integral of every
    extension): 1/(2 pi) for a one-dimensional face, 1/(4 pi) for a
    two-dimensional face.  The convention is recorded in all outputs.
    """
    if boundary_dim == 1:
        return 1.0 / (2.0 * math.pi)
    if boundary_dim == 2:
        return 1.0 / (4.0 * math.pi)
    raise ValueError(f"trace seminorm needs a 1D or 2D face, got dimension "
                     f"{boundary_dim}")


def h_half_seminorm(bd: BoundaryData) -> float:
    """Squared half-order trace seminorm of compactly supported face data.

    Double sum over distinct node pairs of
    ``c_d |h(x) - h(y)|^2 / |x - y|^(d+1)`` times the squared cell measure,
    where d is the face dimension; the diagonal is excluded.  On 1D and 2D
    faces alike the pair sum is regrouped by node offset and the
    per-offset pieces come from one FFT autocorrelation (same summands,
    O(N log N)); the result is deterministic for fixed inputs.
    """
    d = bd.boundary_dim
    measure = bd.spacing ** d
    return (seminorm_constant(d) * _pair_sum_uniform(bd.samples, bd.spacing)
            * measure * measure)


def _pair_sum_uniform(vals: np.ndarray, spacing: float) -> float:
    """``sum_{i != j} (v_i - v_j)^2 / (|i - j| spacing)^(d+1)`` over the
    nodes of a uniform d-dimensional box, grouped by offset ``m = j - i``:

        S_m = sum_i (v_{i+m} - v_i)^2 = A(m) + A(-m) - 2 C(m),

    with C the autocorrelation of v (one zero-padded FFT pair) and A(m)
    the sum of v^2 over the nodes i with i + m in the box.  As
    ``S_{-m} = S_m``, only offsets with ``m_0 >= 0`` are formed and those
    with ``m_0 > 0`` count twice.  Each S_m is clipped at zero against
    round-off."""
    v = np.asarray(vals, dtype=float)
    axes = tuple(range(v.ndim))
    size = [1 << int(np.ceil(np.log2(2 * n))) for n in v.shape]
    fv = np.fft.rfftn(v, size, axes)
    corr = np.fft.irfftn(fv * np.conj(fv), size, axes)
    offsets = [np.arange(1 - n, n) for n in v.shape]
    offsets[0] = np.arange(v.shape[0])
    a_pos = a_neg = v * v
    for axis, m in enumerate(offsets):
        lead, trail = np.maximum(-m, 0), np.maximum(m, 0)
        a_pos = _trimmed_sums(a_pos, axis, lead, trail)
        a_neg = _trimmed_sums(a_neg, axis, trail, lead)
    wrapped = np.ix_(*[m % k for m, k in zip(offsets, size)])
    s_m = np.maximum(a_pos + a_neg - 2.0 * corr[wrapped], 0.0)
    grids = np.ix_(*offsets)
    dist = np.sqrt(sum(g * g for g in grids)) * spacing
    weighted = np.where(grids[0] > 0, 2.0, 1.0) * s_m
    terms = np.divide(weighted, dist ** (v.ndim + 1),
                      out=np.zeros_like(weighted), where=dist > 0)
    return float(np.sum(terms))


def _trimmed_sums(w: np.ndarray, axis: int, lead: np.ndarray,
                  trail: np.ndarray) -> np.ndarray:
    """Sums of ``w`` along ``axis`` without its first ``lead`` and last
    ``trail`` entries, one per entry of ``lead``/``trail``, which replace
    that axis.  Each is the axis total less the two cut-off ends, so a
    short cut carries the rounding of the total, not of a long prefix."""
    head = np.insert(np.cumsum(w, axis=axis), 0, 0.0, axis=axis)
    tail = np.insert(np.cumsum(np.flip(w, axis), axis=axis), 0, 0.0,
                     axis=axis)
    return (np.sum(w, axis=axis, keepdims=True)
            - np.take(head, lead, axis=axis) - np.take(tail, trail, axis=axis))


#: Start frequency of the oscillating data, the fewest face nodes per
#: wavelength it may reach, and the relative band its seminorm lands in.
OSC_BASE_FREQUENCY = 6.0
OSC_MIN_NODES_PER_WAVELENGTH = 16.0
OSC_BAND = 1.1


def build_oscillating_boundary(S_prime: float, delta: float,
                               grid: Grid) -> BoundaryData:
    """Oscillatory face data with ``0 <= h <= delta``, support in the unit
    ball and squared trace seminorm in ``[S_prime, OSC_BAND * S_prime]``.

    The oscillation frequency doubles from ``OSC_BASE_FREQUENCY`` until the
    discrete seminorm reaches S_prime (vertical growth is capped by delta,
    so the seminorm is driven by faster oscillations); overshoot is removed
    by scaling the samples with a constant <= 1.  Raises
    ResolutionExhaustedError when a wavelength the target needs spans fewer
    than ``OSC_MIN_NODES_PER_WAVELENGTH`` face nodes.
    """
    if S_prime <= 0:
        raise ValueError("S_prime must be positive")
    from .energy import MAX_FLOOR_DELTA
    if not (0.0 < delta < MAX_FLOOR_DELTA):
        raise ValueError(f"delta must lie in (0, {MAX_FLOOR_DELTA:.6f})")
    coords = face_coords(grid)
    if not coords:
        raise ValueError("oscillating data needs a face of dimension >= 1")

    window = _window(face_radii(coords) ** 2)

    x0 = coords[0]
    sh = [1] * len(coords)
    sh[0] = -1
    x_ax = x0.reshape(sh)

    k = OSC_BASE_FREQUENCY
    k_max = 2.0 * math.pi / (OSC_MIN_NODES_PER_WAVELENGTH * grid.spacing)
    while True:
        if k > k_max:
            raise ResolutionExhaustedError(
                f"frequency {k:.1f} exceeds the resolvable "
                f"{k_max:.1f} at spacing {grid.spacing}; refine the boundary "
                "grid to reach the requested seminorm")
        samples = delta * window * (1.0 + np.sin(k * x_ax)) / 2.0
        semi = h_half_seminorm(BoundaryData(coords, samples, grid.spacing,
                                            support_radius=1.0))
        if semi >= S_prime:
            break
        k *= 2.0

    scale = 1.0
    if semi > OSC_BAND * S_prime:
        scale = math.sqrt(0.5 * (1.0 + OSC_BAND) * S_prime / semi)
        samples = scale * samples
        semi = h_half_seminorm(BoundaryData(coords, samples, grid.spacing,
                                            support_radius=1.0))
    if not (S_prime <= semi <= OSC_BAND * S_prime * (1 + 1e-9)):
        raise ResolutionExhaustedError(
            f"could not land the seminorm in [{S_prime}, "
            f"{OSC_BAND * S_prime}]; got {semi}")
    return BoundaryData(coords, samples, grid.spacing, support_radius=1.0,
                        meta={"frequency": k, "scale": scale,
                              "seminorm": semi})


# --------------------------------------------------------------------------
# zero-Neumann comparison class
# --------------------------------------------------------------------------

def neumann_layer_field(eps: float, L: float = 2.4,
                        interfaces: tuple[float, float] = (0.7, 1.7),
                        bump_amp: float = 0.5,
                        amp_power: float = 1.5) -> ScalarField:
    """Stripe profile between two flat interfaces plus a small plateau
    perturbation, with zero-Neumann face roles.

    The profile is constant along the tangential axis (exact zero normal
    difference at those faces) and exponentially flat at the normal faces.
    The perturbation is a pair of smooth bumps of amplitude
    ``bump_amp * eps^amp_power`` supported inside the +1 plateau, which
    push the field above 1 on a fixed region; the diffuse mass of the
    overshoot then scales like the squared amplitude over eps.  Each side
    has ``round(L / (eps / 8))`` cells.
    """
    z1, z2 = interfaces
    m = round(L / (eps / 8.0))
    h = L / m
    g = Grid((m + 1, m + 1), h, (0.0, 0.0))
    x, z = g.axis_coords(0), g.axis_coords(1)
    s2 = math.sqrt(2.0)
    values = np.empty(g.shape)
    values[:] = (np.tanh((z - z1) / (s2 * eps)) - np.tanh((z - z2) / (s2 * eps))
                 - 1.0)

    # The bumps vanish off their discs, where a full-grid sum would add
    # exactly zero: evaluate each one on the bounding box of its own disc
    # and add it in place, so no temporary is larger than a disc's box.
    zc = 0.5 * (z1 + z2)

    def plateau_bump(box, cx, w):
        # the window of the disc, built in the storage of its squared
        # radius ratios so that one box-size array is live
        q2 = (x[box[0], None] - cx) ** 2 + (z[None, box[1]] - zc) ** 2
        q2 /= w ** 2
        return _window(q2)

    # (centre x, radius, weight) of each disc
    discs = ((L / 3.0, 0.3, 1.0), (2.0 * L / 3.0, 0.35, 0.7))
    terms = []
    for cx, w, weight in discs:
        ix = np.flatnonzero(np.abs(x - cx) < w)
        iz = np.flatnonzero(np.abs(z - zc) < w)
        if ix.size and iz.size:
            box = (slice(ix[0], ix[-1] + 1), slice(iz[0], iz[-1] + 1))
            term = plateau_bump(box, cx, w)
            term *= weight
            terms.append((box, term))
    if len(terms) == 2:
        # where the boxes meet, sum the two bumps before scaling, as the
        # formula amp * (b0 + 0.7 b1) does, and add that sum only once
        (b0, t0), (b1, t1) = terms
        ov = tuple(slice(max(p.start, q.start), min(p.stop, q.stop))
                   for p, q in zip(b0, b1))
        if all(s.start < s.stop for s in ov):
            in0 = tuple(slice(s.start - p.start, s.stop - p.start)
                        for s, p in zip(ov, b0))
            in1 = tuple(slice(s.start - q.start, s.stop - q.start)
                        for s, q in zip(ov, b1))
            t0[in0] += t1[in1]
            t1[in1] = 0.0
    amp = bump_amp * eps ** amp_power
    for box, term in terms:
        term *= amp
        values[box] += term
    roles = {(a, s): NeumannZero() for a in range(2) for s in ("low", "high")}
    return ScalarField(g, values, roles)
