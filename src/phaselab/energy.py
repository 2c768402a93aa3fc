"""Double-well potential, discrete differential operators and the diffuse
energies with their localized density fields.

Definitions (all with the standard well ``W(s) = (s^2 - 1)^2 / 4`` and the
normalization ``c0 = integral of sqrt(2 W) over (-1, 1) = 2 sqrt(2) / 3``):

* ``modica_mortola``  : the scaled perimeter energy
  ``S_eps(u) = (1/c0) * sum_cells [ (eps/2) |grad u|^2 + W(u)/eps ] h^n``
* ``willmore_eps``    : the scaled curvature energy
  ``W_eps(u) = (1/(c0 eps)) * sum_cells ( eps lap(u) - W'(u)/eps )^2 h^n``
* ``half_space_energy``: the unit-scale energy
  ``F(u) = sum_cells [ |grad u|^2 / 2 + W(u) ] h^n``  (no 1/c0 factor)

The area-penalized ``W_eps + eps^(-sigma) (S_eps - S)^2`` is formed by its
one user, the ``penalty_zero`` runner.  ``laplacian`` stays as the
whole-grid reference that the tests check the slab densities against.

``density_fields`` returns per-cell densities whose region sums are the
energies up to summation order.  Gradients are centered in the interior
and one-sided second order at faces.  Second differences are centered in
the interior; a NeumannZero face closes them with the mirror ghost, and a
Dirichlet face layer gets none.  The curvature density is the squared
defect of the discrete stationarity equation; it is set to zero on
Dirichlet face layers, where no equation is imposed (the continuum
density there sits on a node layer of measure O(h), which the cell-sum
quadrature is free to drop at its accuracy order).

The densities are evaluated in slabs of at most ``SLAB_NODES`` nodes,
each a run of axis-0 layers that reads one neighbouring layer on either
side; only the grid's own first and last layers get the face closures.
Every node sees the same arithmetic whatever the slab size, so the
densities are bit-identical to a one-slab evaluation.  ``W'(s)`` enters
the curvature density as ``s (s^2 - 1)``, which multiplies instead of
taking a generic power.

Summation order: the energies (``modica_mortola``, ``willmore_eps``,
``EnergyBreakdown.of`` and its excess mass) never build a full-size
density array.  Each slab's densities are summed pairwise by ``np.sum``,
and the per-slab partials are combined with ``math.fsum`` in slab order.
The slabs are fixed by the grid and ``SLAB_NODES`` alone, so energies are
bit-reproducible for fixed inputs on a given platform, whatever number of
threads the slabs are mapped over.  On a grid that fits in one slab they
equal ``np.sum`` of the ``density_fields`` arrays bit for bit; on larger
grids the two orders agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import (
    LOW,
    HIGH,
    DirichletConstant,
    DirichletData,
    Grid,
    NeumannZero,
    check_roles,
)

__all__ = [
    "Potential",
    "standard_potential",
    "modified_floor_potential",
    "ScalarField",
    "EnergyBreakdown",
    "c0",
    "laplacian",
    "grad_squared",
    "modica_mortola",
    "willmore_eps",
    "density_fields",
    "half_space_energy",
    "dirichlet_part",
    "barrier_profile",
    "supersolution_margin",
]

#: Upper bound on the floor parameter delta of the modified potential;
#: below it, W'' (1 - 2 delta) > 0, so W' stays monotone on the clamped range.
MAX_FLOOR_DELTA = (1.0 - 1.0 / math.sqrt(3.0)) / 2.0


def c0() -> float:
    """Normalizing constant ``2 sqrt(2) / 3`` of the 1D optimal profile."""
    return 2.0 * math.sqrt(2.0) / 3.0


@dataclass(frozen=True)
class Potential:
    """Double well ``W(s) = (s^2-1)^2/4``, optionally clamped to a constant
    floor below ``1 - 2 delta`` (then W' and W'' vanish on the clamped part).
    """

    floor_delta: float | None = None

    def __post_init__(self):
        d = self.floor_delta
        if d is not None and not (0.0 < d < MAX_FLOOR_DELTA):
            raise ValueError(
                f"floor delta must lie in (0, {MAX_FLOOR_DELTA:.6f}), got {d}")

    @property
    def kind(self) -> str:
        return "standard" if self.floor_delta is None else "modified_floor"

    @property
    def floor_level(self) -> float | None:
        return None if self.floor_delta is None else 1.0 - 2.0 * self.floor_delta

    def value(self, s):
        s = np.asarray(s, dtype=float)
        w = (s * s - 1.0) ** 2 / 4.0
        if self.floor_delta is not None:
            lvl = self.floor_level
            w = np.where(s <= lvl, (lvl * lvl - 1.0) ** 2 / 4.0, w)
        return w if w.ndim else float(w)

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        d = s ** 3 - s
        if self.floor_delta is not None:
            d = np.where(s < self.floor_level, 0.0, d)
        return d if d.ndim else float(d)

    def second_derivative(self, s):
        s = np.asarray(s, dtype=float)
        d2 = 3.0 * s * s - 1.0
        if self.floor_delta is not None:
            d2 = np.where(s < self.floor_level, 0.0, d2)
        return d2 if d2.ndim else float(d2)


def standard_potential() -> Potential:
    return Potential()


def modified_floor_potential(delta: float) -> Potential:
    return Potential(floor_delta=delta)


STANDARD = Potential()


# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """Nodal samples of a scalar function together with its face roles:
    every face is Dirichlet (``DirichletData`` or ``DirichletConstant``) or
    ``NeumannZero``, and the role sets the face closure of ``laplacian``
    and the curvature density."""

    grid: Grid
    values: np.ndarray
    roles: dict

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite everywhere")
        check_roles(self.grid, self.roles)

    def with_values(self, values) -> "ScalarField":
        return ScalarField(self.grid, values, self.roles)


# --------------------------------------------------------------------------
# discrete operators
# --------------------------------------------------------------------------

def _at(ndim: int, axis: int, index) -> tuple:
    idx = [slice(None)] * ndim
    idx[axis] = index
    return tuple(idx)


def _layer_block(values: np.ndarray, axis: int, lo: int, hi: int | None):
    """Number of layers along axis, the end hi, and an empty output for the
    layers lo <= i < hi."""
    m = values.shape[axis]
    hi = m if hi is None else hi
    shape = list(values.shape)
    shape[axis] = hi - lo
    return m, hi, np.empty(shape)


def _axis_gradient(values: np.ndarray, axis: int, h: float,
                   lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Centered differences in the interior, one-sided second order at the
    two face layers, on the layers lo <= i < hi along axis (default: all).

    Only the grid's own first and last layers get the face stencil; a
    block's edge layers read their neighbours from ``values``.
    """
    at = partial(_at, values.ndim, axis)
    m, hi, g = _layer_block(values, axis, lo, hi)
    a, b = max(lo, 1), min(hi, m - 1)
    if a < b:
        mid = g[at(slice(a - lo, b - lo))]
        np.subtract(values[at(slice(a + 1, b + 1))],
                    values[at(slice(a - 1, b - 1))], out=mid)
        mid /= 2.0 * h
    for face, step, sign in ((0, 1, +1.0), (m - 1, -1, -1.0)):
        if lo <= face < hi:
            u0, u1, u2 = (values[at(face + k * step)] for k in range(3))
            g[at(face - lo)] = sign * (-3.0 * u0 + 4.0 * u1 - u2) / (2.0 * h)
    return g


def grad_squared(u: ScalarField) -> np.ndarray:
    out = np.zeros(u.grid.shape)
    for a in range(u.grid.n):
        g = _axis_gradient(u.values, a, u.grid.spacing)
        out += g * g
    return out


def second_difference(values: np.ndarray, axis: int, h: float, lo: int,
                      hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """The centred second difference ``(u[i+1] - 2 u[i] + u[i-1]) / h^2``
    along axis at the layers lo <= i < hi (1 <= lo, hi <= m - 1), written
    in place into out (allocated when None)."""
    at = partial(_at, values.ndim, axis)
    out = np.multiply(values[at(slice(lo, hi))], 2.0, out=out)
    np.subtract(values[at(slice(lo + 1, hi + 1))], out, out=out)
    out += values[at(slice(lo - 1, hi - 1))]
    out /= h * h
    return out


def interior_laplacian(values: np.ndarray, h: float,
                       work: np.ndarray | None = None) -> np.ndarray:
    """Centred Laplacian at the interior nodes (1..m-2 on every axis), with
    the face layers entering only as neighbours; ``work`` is an optional
    interior-shaped buffer for the per-axis terms."""
    inner = tuple(slice(1, m - 1) for m in values.shape)
    out = None
    for a, m in enumerate(values.shape):
        view = values[inner[:a] + (slice(None),) + inner[a + 1:]]
        if out is None:
            out = second_difference(view, a, h, 1, m - 1)
        else:
            out += second_difference(view, a, h, 1, m - 1, work)
    return out


def _axis_second(values: np.ndarray, axis: int, h: float, role_low,
                 role_high, lo: int = 0, hi: int | None = None):
    """Second differences along one axis with role-dependent face closure,
    on the layers lo <= i < hi along axis (default: all).

    Interior nodes use the standard centered stencil on the stored values
    (prescribed boundary values enter automatically through the face
    layers).  At a NeumannZero face the missing neighbor is the mirror
    ghost, ``(2 u1 - 2 u0) / h^2``; a Dirichlet face layer carries no
    equation and reads 0.  As in ``_axis_gradient``, only the grid's own
    faces get a face closure.
    """
    at = partial(_at, values.ndim, axis)
    m, hi, d = _layer_block(values, axis, lo, hi)
    h2 = h * h
    a, b = max(lo, 1), min(hi, m - 1)
    if a < b:
        second_difference(values, axis, h, a, b,
                          out=d[at(slice(a - lo, b - lo))])
    for face, step, role in ((0, 1, role_low), (m - 1, -1, role_high)):
        if lo <= face < hi:
            if isinstance(role, NeumannZero):
                u0, u1 = values[at(face)], values[at(face + step)]
                d[at(face - lo)] = (2.0 * u1 - 2.0 * u0) / h2
            else:
                d[at(face - lo)] = 0.0
    return d


def laplacian(u: ScalarField) -> ScalarField:
    """Three/five/seven-point Laplacian; at a NeumannZero face the mirror
    closure, and 0 on Dirichlet face layers, as in ``residual_field``."""
    out = np.zeros(u.grid.shape)
    for a in range(u.grid.n):
        out += _axis_second(u.values, a, u.grid.spacing,
                            u.roles[(a, LOW)], u.roles[(a, HIGH)])
    return u.with_values(out)


# --------------------------------------------------------------------------
# energies and densities
# --------------------------------------------------------------------------

#: Nodes per slab of the density kernel.  The slab-sized temporaries of
#: the stencils stay small next to the field and mostly in cache, and each
#: numpy call on a slab runs long enough for threads mapped over the slabs
#: to overlap: on a 2-core Xeon, 1 << 15 left a second thread no gain on
#: the neumann_layer sweep, where 1 << 16 gave most of it.
SLAB_NODES = 1 << 16


def _slabs(u: ScalarField, eps: float) -> list[tuple[int, int]]:
    """The axis-0 layer ranges (lo, hi) of the density slabs of u; they
    depend on the grid and ``SLAB_NODES`` only."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    m = u.grid.shape[0]
    step = max(1, SLAB_NODES // (u.values.size // m))
    return [(lo, min(lo + step, m)) for lo in range(0, m, step)]


def _slab_densities(u: ScalarField, eps: float, lo: int, hi: int):
    """(mu, alpha) of ``density_fields`` on the axis-0 layers lo <= i < hi."""
    g, v, roles = u.grid, u.values, u.roles
    h, c = g.spacing, c0()
    s = v[lo:hi]
    gsq = _axis_gradient(v, 0, h, lo, hi)
    gsq *= gsq
    for a in range(1, g.n):
        ga = _axis_gradient(s, a, h)
        gsq += ga * ga
    # in-place steps, each rounding as in the formulas beside them
    t = s * s
    t -= 1.0
    w = t * t                          # W(s) = t^2 / 4
    w /= 4.0
    w /= eps
    gsq *= eps / 2.0
    gsq += w                           # (eps/2) |grad u|^2 + W(s)/eps
    mu = np.divide(gsq, c, out=gsq)
    del w
    lap = _axis_second(v, 0, h, roles[(0, LOW)], roles[(0, HIGH)], lo, hi)
    for a in range(1, g.n):
        lap += _axis_second(s, a, h, roles[(a, LOW)], roles[(a, HIGH)])
    t *= s                             # W'(s) = s t
    t /= eps
    lap *= eps
    lap -= t                           # eps lap(u) - W'(s)/eps
    lap *= lap
    alpha = np.divide(lap, c * eps, out=lap)
    for (axis, side), role in roles.items():
        if isinstance(role, (DirichletData, DirichletConstant)):
            face = 0 if side == LOW else g.shape[axis] - 1
            if axis > 0:
                alpha[_at(g.n, axis, face)] = 0.0
            elif lo <= face < hi:
                alpha[face - lo] = 0.0
    return mu, alpha


def _densities(u: ScalarField, eps: float):
    """(mu, alpha) arrays of ``density_fields``, evaluated slab by slab."""
    mu = np.empty(u.grid.shape)
    alpha = np.empty(u.grid.shape)
    for lo, hi in _slabs(u, eps):
        mu[lo:hi], alpha[lo:hi] = _slab_densities(u, eps, lo, hi)
    return mu, alpha


def map_ordered(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, on up to ``workers`` threads when there
    are several items; the result keeps the order of items."""
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def _energy_sums(u: ScalarField, eps: float, theta: float | None = None,
                 workers: int = 1) -> tuple:
    """Cell sums of mu and alpha, and of mu over ``{|u| >= theta}`` (None
    without theta), without a full-size density array.

    Each slab is summed pairwise by ``np.sum``; the slab partials are
    combined with ``math.fsum`` in slab order, so the result does not depend
    on ``workers``, the number of threads the slabs are mapped over.
    """
    def partials(bounds):
        lo, hi = bounds
        mu, alpha = _slab_densities(u, eps, lo, hi)
        excess = None
        if theta is not None:
            s = u.values[lo:hi]
            excess = np.sum(mu[(s >= theta) | (s <= -theta)])
        return np.sum(mu), np.sum(alpha), excess

    parts = map_ordered(partials, _slabs(u, eps), workers)
    mu_sum = math.fsum(p[0] for p in parts)
    alpha_sum = math.fsum(p[1] for p in parts)
    excess_sum = None if theta is None else math.fsum(p[2] for p in parts)
    return mu_sum, alpha_sum, excess_sum


def density_fields(u: ScalarField, eps: float):
    """(mass density, curvature density) whose cell sums are the energies."""
    mu, alpha = _densities(u, eps)
    return u.with_values(mu), u.with_values(alpha)


def modica_mortola(u: ScalarField, eps: float) -> float:
    """Diffuse perimeter ``S_eps(u)``."""
    return _energy_sums(u, eps)[0] * u.grid.cell_measure


def willmore_eps(u: ScalarField, eps: float) -> float:
    """Diffuse curvature energy ``W_eps(u)``."""
    return _energy_sums(u, eps)[1] * u.grid.cell_measure


def half_space_energy(u: ScalarField) -> float:
    """Unit-scale energy ``F(u)``, no 1/c0 normalization."""
    w = STANDARD.value(u.values)
    dens = 0.5 * grad_squared(u) + w
    return float(np.sum(dens)) * u.grid.cell_measure


def dirichlet_part(u: ScalarField) -> float:
    """``sum |grad u|^2 h^n`` (no 1/2), the trace-energy comparator."""
    return float(np.sum(grad_squared(u))) * u.grid.cell_measure


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-epsilon energy record of one field.

    ``excess_mass`` is the diffuse mass ``sum of mu over {|u| >= theta}``
    times the cell measure, set when ``of`` is given a threshold theta.
    """

    epsilon: float
    S_eps: float
    W_eps: float
    E_eps: float
    excess_mass: float | None = None

    @classmethod
    def of(cls, u: ScalarField, eps: float, *, theta: float | None = None,
           workers: int = 1) -> "EnergyBreakdown":
        """The record of u at eps, from one pass over the density slabs on
        up to ``workers`` threads."""
        mu_sum, alpha_sum, excess = _energy_sums(u, eps, theta, workers)
        cell = u.grid.cell_measure
        s = mu_sum * cell
        w = alpha_sum * cell
        return cls(eps, s, w, s + w, None if excess is None else excess * cell)


# --------------------------------------------------------------------------
# explicit barrier 1 + exp(-|x|)
# --------------------------------------------------------------------------

def barrier_profile(grid: Grid):
    """The radial barrier ``psi = 1 + exp(-|x|)`` with its analytic Laplacian
    and the analytic value of W'(psi).

    Returns (psi, lap_psi, wprime_psi) as nodal arrays.  Away from the
    origin, ``lap_psi = (1 + (1-n)/|x|) exp(-|x|)`` and
    ``wprime_psi = (2 + 3 exp(-|x|) + exp(-2|x|)) exp(-|x|)``; the
    supersolution inequality ``lap_psi <= wprime_psi`` holds pointwise.
    """
    r = grid.node_radii()
    e = np.exp(-r)
    with np.errstate(divide="ignore", invalid="ignore"):
        lap = (1.0 + (1.0 - grid.n) / r) * e
    lap[r == 0] = np.nan
    wp = (2.0 + 3.0 * e + e * e) * e
    return 1.0 + e, lap, wp


def supersolution_margin(grid: Grid) -> float:
    """Minimum of ``W'(psi) - lap(psi)`` over nodes with ``|x| >= 1``
    (analytic formulas).  Nonnegative means the barrier certificate holds."""
    r = grid.node_radii()
    _, lap, wp = barrier_profile(grid)
    sel = r >= 1.0
    if not sel.any():
        raise ValueError("no nodes at or beyond radius 1")
    return float(np.min((wp - lap)[sel]))
