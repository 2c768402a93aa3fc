"""Uniform tensor grids on boxes and truncated half-spaces.

The computational domains are axis-aligned boxes in dimension n = 1, 2, 3,
sampled on uniform node lattices.  A truncated half-space is the box
``[-R, R]^(n-1) x [0, R]`` whose flat face ``x_n = 0`` carries prescribed
boundary values and whose remaining faces carry the constant far-field
value.  Fields live on nodes; each node owns a quadrature cell of measure
``spacing**n``, so sums of nodal densities times the cell measure are the
discrete integrals used throughout.

Node coordinates are always computed as ``origin + index * spacing`` (one
multiplication per node, no accumulated summation).  ``tail_bound`` stays
as the reference the tests check the truncation error against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Grid",
    "DirichletData",
    "DirichletConstant",
    "NeumannZero",
    "GridBudgetError",
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
        Uniform mesh width, > 0.
    origin : tuple of float
        Physical coordinate of node ``(0, ..., 0)``.
    """

    shape: tuple[int, ...]
    spacing: float
    origin: tuple[float, ...]

    def __post_init__(self):
        if self.spacing <= 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
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
        r2 = np.zeros(self.shape)
        for a, x in enumerate(self.meshgrid()):
            r2 += (x - center[a]) ** 2
        return np.sqrt(r2)

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
class DirichletData:
    """Prescribed nodal values on one face (shape = tangential node shape)."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("Dirichlet face samples must be finite")


@dataclass(frozen=True)
class DirichletConstant:
    value: float


@dataclass(frozen=True)
class NeumannZero:
    pass


def check_roles(grid: Grid, roles: dict) -> None:
    """Every face has exactly one role, Dirichlet or NeumannZero, and data
    shapes match the face."""
    expected = {(a, s) for a in range(grid.n) for s in (LOW, HIGH)}
    if set(roles) != expected:
        raise ValueError(f"roles must cover exactly the faces {sorted(expected)}")
    for (axis, _side), role in roles.items():
        if not isinstance(role, (DirichletData, DirichletConstant, NeumannZero)):
            raise TypeError(f"unknown role {role!r}")
        if isinstance(role, DirichletData):
            face_shape = tuple(m for a, m in enumerate(grid.shape) if a != axis)
            if role.samples.shape != face_shape:
                raise ValueError(
                    f"face samples shape {role.samples.shape} does not match "
                    f"face shape {face_shape}")


def face_slice(grid: Grid, axis: int, side: str) -> tuple:
    idx = [slice(None)] * grid.n
    idx[axis] = 0 if side == LOW else grid.shape[axis] - 1
    return tuple(idx)


def apply_dirichlet(values: np.ndarray, grid: Grid, roles: dict) -> np.ndarray:
    """Overwrite Dirichlet face layers with their prescribed values."""
    out = values.copy()
    for (axis, side), role in roles.items():
        sl = face_slice(grid, axis, side)
        if isinstance(role, DirichletConstant):
            out[sl] = role.value
        elif isinstance(role, DirichletData):
            out[sl] = role.samples
    return out


# --------------------------------------------------------------------------
# half-space construction and truncation estimates
# --------------------------------------------------------------------------

def make_half_space_grid(n: int, R: float, spacing: float, far_value: float):
    """Truncated half-space ``[-R, R]^(n-1) x [0, R]`` with face roles.

    The ``x_n = 0`` face (last axis, low side) is marked as the data face
    with a zero placeholder trace; all other faces carry the constant
    far-field value.

    Returns
    -------
    (Grid, dict)
        The grid and its face-role map.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"n must be 1, 2 or 3, got {n}")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
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
    return grid, half_space_roles(grid, np.zeros(shape[:-1]), far_value)


def half_space_roles(grid: Grid, trace: np.ndarray, far_value: float) -> dict:
    """Face roles of a truncated half-space: ``trace`` on the flat face
    ``x_n = 0`` (last axis, low side), ``far_value`` on every other face."""
    roles = {(a, s): DirichletConstant(float(far_value))
             for a in range(grid.n) for s in (LOW, HIGH)}
    roles[(grid.n - 1, LOW)] = DirichletData(np.asarray(trace, dtype=float))
    return roles


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


def roles_to_dict(roles: dict) -> dict:
    out = {}
    for (axis, side), role in roles.items():
        key = f"{axis}:{side}"
        if isinstance(role, DirichletConstant):
            out[key] = {"role": "dirichlet_constant", "value": role.value}
        elif isinstance(role, DirichletData):
            out[key] = {"role": "dirichlet_data",
                        "shape": list(role.samples.shape),
                        "samples": role.samples.ravel().tolist()}
        elif isinstance(role, NeumannZero):
            out[key] = {"role": "neumann_zero"}
        else:
            raise TypeError(f"unknown role {role!r}")
    return out


def roles_from_dict(d: dict) -> dict:
    roles = {}
    for key, spec in d.items():
        axis_s, side = key.split(":")
        face = (int(axis_s), side)
        kind = spec["role"]
        if kind == "dirichlet_constant":
            roles[face] = DirichletConstant(float(spec["value"]))
        elif kind == "dirichlet_data":
            samples = np.asarray(spec["samples"], dtype=float).reshape(spec["shape"])
            roles[face] = DirichletData(samples)
        elif kind == "neumann_zero":
            roles[face] = NeumannZero()
        else:
            raise ValueError(f"unknown role kind {kind!r}")
    return roles
