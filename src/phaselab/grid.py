"""Uniform tensor grids on boxes and truncated half-spaces.

The computational domains are axis-aligned boxes in dimension n = 1, 2, 3,
sampled on uniform node lattices.  A truncated half-space is the box
``[-R, R]^(n-1) x [0, R]`` whose flat face ``x_n = 0`` carries prescribed
boundary values and whose remaining faces carry the constant far-field
value.  A face role names only the closure of a face, ``Dirichlet`` or
``NeumannZero``; the face values live in the field's own array.  Fields
live on nodes; each node owns a quadrature cell of measure ``spacing**n``,
so sums of nodal densities times the cell measure are the discrete
integrals used throughout.

Grid node coordinates are always computed as ``origin + index * spacing``
(one multiplication per node, no accumulated summation).  Face data are
sampled by ``face_coords`` instead: a tangential axis centred on 0 takes
``(index - M) * spacing``, which is exactly odd about its centre node M, so
radial face data are bitwise mirror-symmetric and the solver can fold them.
``tail_bound`` stays as the reference the tests check the truncation error
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Grid",
    "Dirichlet",
    "NeumannZero",
    "GridBudgetError",
    "face_coords",
    "face_radii",
    "half_space_roles",
    "make_half_space_grid",
    "tail_bound",
    "grid_to_dict",
    "grid_from_dict",
    "roles_to_dict",
    "roles_from_dict",
]

LOW, HIGH = "low", "high"

#: Cap on the node count of every grid; exceeding it signals resource
#: exhaustion at construction time rather than an OOM later.
DEFAULT_CELL_BUDGET = 8_000_000


class GridBudgetError(ValueError):
    """Requested grid exceeds ``DEFAULT_CELL_BUDGET`` nodes."""


@dataclass(frozen=True)
class Grid:
    """Uniform node lattice on an axis-aligned box.

    Attributes
    ----------
    shape : tuple of int
        Nodes per axis, each >= 3, at most ``DEFAULT_CELL_BUDGET`` in all.
    spacing : float
        Uniform mesh width, finite and > 0.
    origin : tuple of float
        Finite physical coordinate of node ``(0, ..., 0)``.
    """

    shape: tuple[int, ...]
    spacing: float
    origin: tuple[float, ...]

    def __post_init__(self):
        if not 0 < self.spacing < math.inf:
            raise ValueError("spacing must be positive and finite, got "
                             f"{self.spacing}")
        if not all(map(math.isfinite, self.origin)):
            raise ValueError(f"origin must be finite, got {self.origin}")
        if len(self.shape) != len(self.origin):
            raise ValueError("shape and origin must have equal length")
        if not 1 <= len(self.shape) <= 3:
            raise ValueError(f"dimension must be 1, 2 or 3, got {len(self.shape)}")
        if any(m < 3 for m in self.shape):
            raise ValueError(f"every axis needs at least 3 nodes, got {self.shape}")
        total = math.prod(self.shape)
        if total > DEFAULT_CELL_BUDGET:
            raise GridBudgetError(f"grid would need {total} nodes, exceeding "
                                  f"the budget {DEFAULT_CELL_BUDGET}")

    @property
    def n(self) -> int:
        return len(self.shape)

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_measure(self) -> float:
        return self.spacing ** self.n

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + np.arange(self.shape[axis]) * self.spacing

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*(self.axis_coords(a) for a in range(self.n)), indexing="ij")

    def node_radii(self, center: Iterable[float] | None = None) -> np.ndarray:
        """Euclidean distance of every node from ``center`` (default: 0).

        A region is a boolean node mask.  The ball of radius R about
        ``center`` is ``node_radii(center) < R``: membership is strict, so
        a radius-0 ball is empty even when its center lies on a node.
        """
        center = np.zeros(self.n) if center is None else np.asarray(center, dtype=float)
        if center.shape != (self.n,):
            raise ValueError(f"center has shape {center.shape}, the grid "
                             f"needs shape ({self.n},)")
        return face_radii(tuple(self.axis_coords(a) - center[a]
                                for a in range(self.n)))

    def scaled(self, factor: float) -> "Grid":
        """Image of the grid under ``x -> factor * x`` (same node count)."""
        return Grid(self.shape, self.spacing * factor,
                    tuple(o * factor for o in self.origin))

    def extent(self, axis: int) -> tuple[float, float]:
        return (self.origin[axis],
                self.origin[axis] + (self.shape[axis] - 1) * self.spacing)


# --------------------------------------------------------------------------
# face roles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Dirichlet:
    """The face layer is data: no equation is solved there, and its values
    are the field's own values on that layer."""


@dataclass(frozen=True)
class NeumannZero:
    """Zero normal derivative, closed by the mirror ghost."""


def check_roles(grid: Grid, roles: dict) -> None:
    """Every face has exactly one role, Dirichlet or NeumannZero."""
    expected = {(a, s) for a in range(grid.n) for s in (LOW, HIGH)}
    if set(roles) != expected:
        raise ValueError(f"roles must cover exactly the faces {sorted(expected)}")
    for role in roles.values():
        if not isinstance(role, (Dirichlet, NeumannZero)):
            raise TypeError(f"unknown role {role!r}")


# --------------------------------------------------------------------------
# half-space construction and truncation estimates
# --------------------------------------------------------------------------

def make_half_space_grid(n: int, R: float, spacing: float, far_value: float):
    """Truncated half-space ``[-R, R]^(n-1) x [0, R]`` with face roles.

    Every face is Dirichlet.  ``far_value`` is not stored: the face values
    live in the field, and ``solve_half_space`` writes its own far value on
    every face layer and the trace on the ``x_n = 0`` layer.

    Returns
    -------
    (Grid, dict)
        The grid and its face-role map.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"n must be 1, 2 or 3, got {n}")
    if not 0 < spacing < math.inf:
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    if not 0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    if R < 4 * spacing:
        raise ValueError(f"R = {R} is below the minimum 4 * spacing = {4 * spacing}")

    m = R / spacing
    m_int = round(m)
    if abs(m - m_int) > 1e-9 * max(1.0, m):
        raise ValueError(f"R/spacing = {m} is not an integer; the box cannot "
                         "be gridded uniformly")

    shape = tuple([2 * m_int + 1] * (n - 1) + [m_int + 1])
    origin = tuple([-R] * (n - 1) + [0.0])
    grid = Grid(shape, float(spacing), origin)
    return grid, half_space_roles(grid)


def half_space_roles(grid: Grid) -> dict:
    """Face roles of a truncated half-space: every face is Dirichlet."""
    return {(a, s): Dirichlet() for a in range(grid.n) for s in (LOW, HIGH)}


def face_coords(grid: Grid) -> tuple:
    """Coordinates of the flat face ``x_n = 0``, one array per tangential
    axis.

    An axis of ``2M + 1`` nodes centred on 0 (``origin == -M * spacing`` to
    rounding) takes ``(index - M) * spacing``, exactly odd about node M;
    ``origin + index * spacing`` is not when the spacing is not a power of
    two.  Any other axis keeps ``grid.axis_coords``.
    """
    coords = []
    for a in range(grid.n - 1):
        M, rem = divmod(grid.shape[a] - 1, 2)
        half = M * grid.spacing
        if rem == 0 and abs(grid.origin[a] + half) <= 1e-12 * half:
            coords.append((np.arange(grid.shape[a]) - M) * grid.spacing)
        else:
            coords.append(grid.axis_coords(a))
    return tuple(coords)


def face_radii(coords: tuple) -> np.ndarray:
    """Distance from the origin of every node of a face lattice, given one
    coordinate array per tangential axis (zero for the point face of a
    one-dimensional grid)."""
    r2 = np.zeros(tuple(len(c) for c in coords))
    for a, coord in enumerate(coords):
        shape = [1] * len(coords)
        shape[a] = -1
        r2 = r2 + coord.reshape(shape) ** 2
    return np.sqrt(r2)


def tail_bound(n: int, R: float, theta: float = 1.0) -> float:
    """Energy outside the half-ball of radius R for exp-decaying solutions.

    ``max(theta^2, theta^4) * P_n(R) * exp(-2R)`` with
    ``P_n(R) exp(-2R) = 2 * integral_R^inf exp(-2r) r^(n-1) dr``.
    """
    if n == 1:
        poly = 1.0
    elif n == 2:
        poly = R + 0.5
    elif n == 3:
        poly = R * R + R + 0.5
    else:
        raise ValueError(f"n must be 1, 2 or 3, got {n}")
    return max(theta ** 2, theta ** 4) * poly * math.exp(-2.0 * R)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def grid_to_dict(grid: Grid) -> dict:
    return {
        "n": grid.n,
        "shape": list(grid.shape),
        "spacing": grid.spacing,
        "origin": list(grid.origin),
    }


def grid_from_dict(d: dict) -> Grid:
    return Grid(tuple(int(m) for m in d["shape"]), float(d["spacing"]),
                tuple(float(o) for o in d["origin"]))


_ROLE_KINDS = {"dirichlet": Dirichlet, "neumann_zero": NeumannZero}


def roles_to_dict(roles: dict) -> dict:
    kinds = {cls: kind for kind, cls in _ROLE_KINDS.items()}
    out = {}
    for (axis, side), role in roles.items():
        if type(role) not in kinds:
            raise TypeError(f"unknown role {role!r}")
        out[f"{axis}:{side}"] = {"role": kinds[type(role)]}
    return out


def roles_from_dict(d: dict) -> dict:
    roles = {}
    for key, spec in d.items():
        axis_s, side = key.split(":")
        kind = spec["role"]
        if kind not in _ROLE_KINDS:
            raise ValueError(f"unknown role kind {kind!r}")
        roles[(int(axis_s), side)] = _ROLE_KINDS[kind]()
    return roles
