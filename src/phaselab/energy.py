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
one user, the ``penalty_zero`` runner.  ``grad_squared`` and ``laplacian``
stay as the whole-grid references that the tests check the slab densities
against.

Every stencil is built from two unscaled per-axis primitives,
``centred_difference`` and ``neighbour_sum``; the solver's operator and
residual use the same neighbour sum.  ``density_fields`` returns per-cell
densities whose region sums are the energies up to summation order.  The
curvature density is the squared defect of the discrete stationarity
equation; it is set to zero on Dirichlet face layers, where no equation
is imposed (the continuum density there sits on a node layer of measure
O(h), which the cell-sum quadrature is free to drop at its accuracy
order).

The densities are evaluated in slabs of at most ``SLAB_NODES`` nodes,
each a run of axis-0 layers that reads one neighbouring layer on either
side; only the grid's own first and last layers get the face closures.
Each slab takes one pass per primitive and axis and one multiply by a
folded constant per density term (see ``_slab_densities``).  Every node sees
the same arithmetic whatever the slab size, so the densities are
bit-identical to a one-slab evaluation.

Summation order: the energies (``modica_mortola``, ``willmore_eps``,
``EnergyBreakdown.of`` and its excess mass) never build a full-size
density array.  Each slab's densities are summed pairwise by ``np.sum``,
and the per-slab partials are combined with ``math.fsum`` in slab order.
The slabs are fixed by the grid and ``SLAB_NODES`` alone, so energies are
bit-reproducible for fixed inputs on a given platform.  On a grid that
fits in one slab they equal ``np.sum`` of the ``density_fields`` arrays
bit for bit; on larger grids the two orders agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import LOW, HIGH, Grid, NeumannZero, check_roles

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
    every face is ``Dirichlet`` or ``NeumannZero``, and the role sets the
    face closure of ``laplacian`` and the curvature density.  A role holds
    no face values; those are the field's own values on the face layer."""

    grid: Grid
    values: np.ndarray
    roles: dict

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}")
        # a finite sum proves every value finite; only an infinite or NaN
        # sum (also from finite values that overflow) needs the node check
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.sum(self.values)
        if not (np.isfinite(total) or np.isfinite(self.values).all()):
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


def centred_difference(values: np.ndarray, axis: int, out: np.ndarray,
                       lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Write the unscaled centred difference ``u[i+1] - u[i-1]`` along axis
    at the layers lo <= i < hi (default: all) into out; ``1/(2h)`` times it
    is the gradient component.  At the grid's own first and last layers it
    becomes the one-sided ``+-(4 u1 - 3 u0 - u2)``, u_k being the k-th layer
    inward; a block's edge layers read their neighbours from ``values``."""
    at = partial(_at, values.ndim, axis)
    m = values.shape[axis]
    hi = m if hi is None else hi
    a, b = max(lo, 1), min(hi, m - 1)
    if a < b:
        np.subtract(values[at(slice(a + 1, b + 1))],
                    values[at(slice(a - 1, b - 1))],
                    out=out[at(slice(a - lo, b - lo))])
    for face, step, sign in ((0, 1, 1.0), (m - 1, -1, -1.0)):
        if lo <= face < hi:
            u0, u1, u2 = (values[at(face + k * step)] for k in range(3))
            out[at(face - lo)] = sign * (4.0 * u1 - 3.0 * u0 - u2)
    return out


def neighbour_sum(values: np.ndarray, axis: int, out: np.ndarray,
                  lo: int = 0, hi: int | None = None, roles=None) -> None:
    """Add the unscaled neighbour sum ``u[i+1] + u[i-1]`` along axis at the
    layers lo <= i < hi (default: all) into out; the sums over the axes,
    less ``2n u``, over h^2 are the discrete Laplacian.  At the grid's own
    faces the face roles close it: the mirror ghost gives ``2 u1`` at a
    NeumannZero face, and a Dirichlet face layer reads ``2 u0``, so that
    the axis adds nothing to the Laplacian of a layer with no equation.
    Layers in 1..m-2 need no roles."""
    at = partial(_at, values.ndim, axis)
    m = values.shape[axis]
    hi = m if hi is None else hi
    a, b = max(lo, 1), min(hi, m - 1)
    if a < b:
        mid = out[at(slice(a - lo, b - lo))]
        mid += values[at(slice(a + 1, b + 1))]
        mid += values[at(slice(a - 1, b - 1))]
    for face, step, side in ((0, 1, LOW), (m - 1, -1, HIGH)):
        if lo <= face < hi:
            role = roles[(axis, side)]
            ghost = face + step if isinstance(role, NeumannZero) else face
            out[at(face - lo)] += 2.0 * values[at(ghost)]


def equation_layers(shape: tuple, roles=None) -> tuple:
    """Per-axis slices of the nodes that carry an equation: layers 1..m-2,
    and 1..m-1 on an axis whose high face is NeumannZero (its last layer
    is closed by the mirror ghost).  No roles means Dirichlet faces."""
    return tuple(slice(1, m if roles and isinstance(roles[(a, HIGH)],
                                                    NeumannZero) else m - 1)
                 for a, m in enumerate(shape))


def interior_neighbour_sum(values: np.ndarray, out: np.ndarray,
                           roles=None) -> None:
    """Add the neighbour sums of all axes at the ``equation_layers`` nodes
    into the out of their shape; the Dirichlet face layers enter only as
    neighbours."""
    inner = equation_layers(values.shape, roles)
    for a, s in enumerate(inner):
        neighbour_sum(values[inner[:a] + (slice(None),) + inner[a + 1:]], a,
                      out, 1, s.stop, roles)


def grad_squared(u: ScalarField) -> np.ndarray:
    """``|grad u|^2`` at every node, from ``centred_difference`` on each
    axis."""
    out, g = np.zeros(u.grid.shape), np.empty(u.grid.shape)
    for a in range(u.grid.n):
        out += np.square(centred_difference(u.values, a, g), out=g)
    out *= 0.25 / (u.grid.spacing * u.grid.spacing)
    return out


def laplacian(u: ScalarField) -> ScalarField:
    """Three/five/seven-point Laplacian from ``neighbour_sum`` on each axis:
    the mirror closure at a NeumannZero face, and no term from the normal
    axis on a Dirichlet face layer."""
    g = u.grid
    out = u.values * (-2.0 * g.n)
    for a in range(g.n):
        neighbour_sum(u.values, a, out, roles=u.roles)
    out *= 1.0 / (g.spacing * g.spacing)
    return u.with_values(out)


# --------------------------------------------------------------------------
# energies and densities
# --------------------------------------------------------------------------

#: Nodes per slab of the density kernel.  The three slab buffers stay
#: small next to the field and mostly in cache, and each numpy call on a
#: slab runs long enough to pay for its dispatch.  On a 2-vCPU Xeon, one
#: energy pass over a 2401 x 2401 field (median of 7) took 127, 102, 105
#: and 112 ms at 1 << 14, 15, 16 and 17.  The slabs fix the summation
#: order of every energy, and no size wins by more than the noise, so
#: 1 << 16 stays.
SLAB_NODES = 1 << 16


def _slabs(u: ScalarField, eps: float) -> list[tuple[int, int]]:
    """The axis-0 layer ranges (lo, hi) of the density slabs of u; they
    depend on the grid and ``SLAB_NODES`` only."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    m = u.grid.shape[0]
    step = max(1, SLAB_NODES // (u.values.size // m))
    return [(lo, min(lo + step, m)) for lo in range(0, m, step)]


def _slab_densities(u: ScalarField, eps: float, lo: int, hi: int,
                    mu: np.ndarray, alpha: np.ndarray, t: np.ndarray) -> None:
    """Write (mu, alpha) of ``density_fields`` on the axis-0 layers
    lo <= i < hi into the slab buffers mu and alpha, with t for scratch.
    With D_a the centred difference, N the neighbour sums over the axes and
    ``t = s^2 - 1``,

        mu    = eps/(8 h^2 c0) sum_a D_a^2 + 1/(4 eps c0) t^2
        alpha = eps/(c0 h^4) (N - s (2n + (h/eps)^2 t))^2

    (``s t = W'(s)``), one multiply by a folded constant per density term.
    """
    g, v, roles = u.grid, u.values, u.roles
    h, n, c = g.spacing, g.n, c0()
    s = v[lo:hi]
    centred_difference(v, 0, mu, lo, hi)
    mu *= mu
    for a in range(1, n):
        centred_difference(s, a, alpha)
        alpha *= alpha
        mu += alpha
    mu *= eps / (8.0 * h * h * c)
    np.multiply(s, s, out=t)
    t -= 1.0
    np.multiply(t, t, out=alpha)
    alpha *= 1.0 / (4.0 * eps * c)
    mu += alpha
    t *= -(h / eps) ** 2
    t -= 2.0 * n
    np.multiply(t, s, out=alpha)
    neighbour_sum(v, 0, alpha, lo, hi, roles)
    for a in range(1, n):
        neighbour_sum(s, a, alpha, roles=roles)
    alpha *= alpha
    alpha *= eps / (c * h ** 4)
    for (axis, side), role in roles.items():    # zero Dirichlet layers
        face = 0 if side == LOW else g.shape[axis] - 1
        if not isinstance(role, NeumannZero) and (axis or lo <= face < hi):
            alpha[_at(n, axis, face if axis else face - lo)] = 0.0


def _densities(u: ScalarField, eps: float):
    """(mu, alpha) arrays of ``density_fields``, evaluated slab by slab."""
    mu = np.empty(u.grid.shape)
    alpha = np.empty(u.grid.shape)
    slabs = _slabs(u, eps)
    scratch = np.empty_like(mu[:slabs[0][1]])
    for lo, hi in slabs:
        _slab_densities(u, eps, lo, hi, mu[lo:hi], alpha[lo:hi],
                        scratch[:hi - lo])
    return mu, alpha


def _energy_sums(u: ScalarField, eps: float,
                 theta: float | None = None) -> tuple:
    """Cell sums of mu and alpha, and of mu over ``{|u| >= theta}`` (None
    without theta), without a full-size density array.

    Each slab is summed pairwise by ``np.sum``; the slab partials are
    combined with ``math.fsum`` in slab order.
    """
    mu_parts, alpha_parts, excess_parts = [], [], []
    for lo, hi in _slabs(u, eps):
        mu, alpha, t = np.empty((3, hi - lo) + u.grid.shape[1:])
        _slab_densities(u, eps, lo, hi, mu, alpha, t)
        mu_parts.append(np.sum(mu))
        alpha_parts.append(np.sum(alpha))
        if theta is not None:
            excess_parts.append(
                np.sum(mu[np.abs(u.values[lo:hi], out=t) >= theta]))
    excess = None if theta is None else math.fsum(excess_parts)
    return math.fsum(mu_parts), math.fsum(alpha_parts), excess


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
    def of(cls, u: ScalarField, eps: float, *,
           theta: float | None = None) -> "EnergyBreakdown":
        """The record of u at eps, from one pass over the density slabs."""
        mu_sum, alpha_sum, excess = _energy_sums(u, eps, theta)
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
