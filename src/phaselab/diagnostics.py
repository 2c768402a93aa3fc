"""Region masses, concentration scans, level-set geometry, norms and
Hoelder quotients for epsilon-indexed families.

All analyses are read-only evaluations of the localized density fields;
weak-* statements like "the mass measure degenerates to an atom" are
operationalized as concentration ratios of ball masses and total-mass
trends over the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyBreakdown, ScalarField, density_fields
from .grid import Ball, Complement, Grid, Region, region_cells

__all__ = [
    "EmptySetError",
    "ConcentrationReport",
    "ConcentrationRow",
    "LevelSetCells",
    "HoelderProbe",
    "region_mass",
    "boundary_layer_mass",
    "concentration_scan",
    "level_set",
    "hausdorff_distance",
    "lp_norm",
    "hoelder_quotient",
    "interior_region_mask",
]


class EmptySetError(ValueError):
    """Hausdorff distance against an empty set; the empty case is a
    meaningful status and must be handled explicitly by the caller."""


def region_mass(density: ScalarField, region: Region) -> float:
    """Sum of the density over region cells times the cell measure."""
    mask = region_cells(density.grid, region)
    return float(np.sum(density.values[mask])) * density.grid.cell_measure


def boundary_layer_mass(u: ScalarField, eps: float,
                        theta: float = 1.0) -> float:
    """Diffuse mass of the excess set ``{|u| >= theta}``, theta >= 1: the
    mass density of u at eps summed over that set, without a full-size
    density array (``EnergyBreakdown.of`` with theta)."""
    if theta < 1.0:
        raise ValueError(f"theta must be >= 1, got {theta}")
    return EnergyBreakdown.of(u, eps, theta=theta).excess_mass


@dataclass(frozen=True)
class ConcentrationRow:
    eps: float
    total_mass: float
    ball_masses: dict
    ratios: dict
    mass_outside_sqrt_eps: float


@dataclass(frozen=True)
class ConcentrationReport:
    x0: tuple
    radii: tuple
    rows: tuple[ConcentrationRow, ...]
    atom_size_estimate: float

    def ratios_for(self, radius: float):
        return [row.ratios[radius] for row in self.rows]


def concentration_scan(family, x0, radii) -> ConcentrationReport:
    """Ball masses of the diffuse area measure around a boundary point.

    For every member and probe radius R, reports the mass in the physical
    ball B_R(x0), its ratio to the total mass, and the mass outside the
    shrinking ball of radius sqrt(eps) (the scaled blow-up window).  The
    atom estimate is the widest-ball mass of the finest member, the
    closest finite-eps stand-in for the limiting point mass.
    """
    x0 = tuple(float(v) for v in x0)
    radii = tuple(sorted(float(r) for r in radii))
    rows = []
    for member in family.members:
        u = member.field
        mu, _ = density_fields(u, member.eps)
        total = float(np.sum(mu.values)) * u.grid.cell_measure
        balls = {}
        ratios = {}
        for R in radii:
            m = region_mass(mu, Ball(x0, R))
            balls[R] = m
            ratios[R] = m / total if total > 0 else 0.0
        outside = region_mass(mu, Complement(Ball(x0, math.sqrt(member.eps))))
        rows.append(ConcentrationRow(member.eps, total, balls, ratios, outside))
    atom = rows[-1].ball_masses[radii[-1]] if rows else 0.0
    return ConcentrationReport(x0, radii, tuple(rows), atom)


# --------------------------------------------------------------------------
# level sets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelSetCells:
    """Dual cells (inter-node boxes) whose corner values straddle or enter
    the interval: cells with nodal min <= b and nodal max >= a."""

    grid: Grid
    interval: tuple[float, float]
    mask: np.ndarray

    @property
    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    def count(self) -> int:
        return int(self.mask.sum())

    def centers(self) -> np.ndarray:
        """(k, n) array of cell-center coordinates."""
        idx = np.argwhere(self.mask)
        h = self.grid.spacing
        origin = np.asarray(self.grid.origin)
        return origin + (idx + 0.5) * h


def level_set(u: ScalarField, interval) -> LevelSetCells:
    """Cells crossed by the band ``u in [a, b]`` with [a, b] inside (-1, 1)."""
    a, b = float(interval[0]), float(interval[1])
    if not (a <= b):
        raise ValueError("interval must be ordered")
    if not (-1.0 < a and b < 1.0):
        raise ValueError("interval must be compactly contained in (-1, 1)")
    mn = u.values
    mx = u.values
    for axis in range(u.grid.n):
        lo = [slice(None)] * u.grid.n
        hi = [slice(None)] * u.grid.n
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        mn = np.minimum(mn[tuple(lo)], mn[tuple(hi)])
        mx = np.maximum(mx[tuple(lo)], mx[tuple(hi)])
    return LevelSetCells(u.grid, (a, b), (mn <= b) & (mx >= a))


def _as_points(obj) -> np.ndarray:
    if isinstance(obj, LevelSetCells):
        return obj.centers()
    pts = np.asarray(obj, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    return pts


def hausdorff_distance(A, B, chunk: int = 4096) -> float:
    """Symmetric Hausdorff distance between two point clouds (or level-set
    cell collections via their centers).  Empty input raises EmptySetError.
    """
    pa, pb = _as_points(A), _as_points(B)
    if pa.size == 0 or pb.size == 0:
        raise EmptySetError("hausdorff_distance needs non-empty sets")
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(f"point dimensions differ: {pa.shape[1]} and "
                         f"{pb.shape[1]}")

    def directed(p, q):
        # squared distances summed axis by axis in place, as the Euclidean
        # metric sums them; sqrt is monotone and correctly rounded, so
        # taking it of the row minima alone gives the same bits
        worst = 0.0
        for start in range(0, len(p), chunk):
            block = p[start:start + chunk]
            d2 = np.subtract.outer(block[:, 0], q[:, 0])
            d2 *= d2
            for k in range(1, p.shape[1]):
                diff = np.subtract.outer(block[:, k], q[:, k])
                diff *= diff
                d2 += diff
            worst = max(worst, float(np.sqrt(d2.min(axis=1)).max()))
        return worst

    return max(directed(pa, pb), directed(pb, pa))


def lp_norm(u: ScalarField, p) -> float:
    """Discrete L^p norm with cell-measure weights; p = inf is the nodal
    max of |u|."""
    if p in (np.inf, math.inf, "inf"):
        return float(np.max(np.abs(u.values)))
    p = float(p)
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(np.sum(np.abs(u.values) ** p) * u.grid.cell_measure) ** (1.0 / p)


# --------------------------------------------------------------------------
# Hoelder quotients
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HoelderProbe:
    gamma: float
    scale: float
    quotient: float
    pair: tuple | None      # ((y coords), (z coords)) of the worst pair
    pair_distance: float | None
    offsets_mode: str


def interior_region_mask(grid: Grid, margin: float) -> np.ndarray:
    """Nodes at distance > margin from every face (the shrunken domain
    used for interior regularity probes)."""
    mask = np.ones(grid.shape, dtype=bool)
    for a in range(grid.n):
        coord = grid.axis_coords(a)
        lo, hi = grid.extent(a)
        sel = (coord - lo > margin) & (hi - coord > margin)
        sh = [1] * grid.n
        sh[a] = -1
        mask &= sel.reshape(sh)
    return mask


def _offsets(n: int, radius_steps: float, mode: str):
    """Integer node offsets with euclidean length <= radius_steps, one per
    +-pair (lexicographically positive representative)."""
    box = int(math.floor(radius_steps))
    r2 = radius_steps * radius_steps
    if mode == "exhaustive":
        out = []
        for off in np.ndindex(*((2 * box + 1,) * n)):
            o = tuple(v - box for v in off)
            if all(v == 0 for v in o):
                continue
            if o <= tuple([0] * n):     # lexicographic dedup of +-o
                continue
            if sum(v * v for v in o) <= r2:
                out.append(o)
        return out
    # dyadic ladder: axis and diagonal directions at power-of-two multiples
    dirs = []
    for off in np.ndindex(*((3,) * n)):
        o = tuple(v - 1 for v in off)
        if all(v == 0 for v in o) or o <= tuple([0] * n):
            continue
        dirs.append(o)
    out = []
    k = 1
    while k <= box:
        for d in dirs:
            o = tuple(k * v for v in d)
            if sum(v * v for v in o) <= r2:
                out.append(o)
        k *= 2
    return sorted(set(out))


def hoelder_quotient(u: ScalarField, eps: float, gamma: float,
                     region: Region | np.ndarray | None = None,
                     mode: str = "auto",
                     pair_budget: float = 2e8) -> HoelderProbe:
    """Worst quotient ``|u(y) - u(z)| / |y - z|^gamma`` over node pairs at
    distance <= eps with both endpoints in the region.

    The scan enumerates integer node offsets inside the eps-ball
    (exhaustive by default; a dyadic offset ladder is used when the
    exhaustive pair count would exceed the budget, and the mode actually
    used is reported on the probe).
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    g = u.grid
    if region is None:
        mask = np.ones(g.shape, dtype=bool)
    elif isinstance(region, np.ndarray):
        mask = region
    else:
        mask = region_cells(g, region)
    if not mask.any():
        raise ValueError("hoelder probe region is empty")

    radius_steps = eps / g.spacing * (1 + 1e-12)
    if radius_steps < 1.0:
        return HoelderProbe(gamma, eps, 0.0, None, None, "empty")
    if mode == "auto":
        n_off = (2 * math.floor(radius_steps) + 1) ** g.n / 2
        mode = "exhaustive" if n_off * mask.sum() <= pair_budget else "dyadic"

    best = 0.0
    best_pair = None
    best_dist = None
    vals = u.values
    for off in _offsets(g.n, radius_steps, mode):
        src = []
        dst = []
        for a, o in enumerate(off):
            m = g.shape[a]
            if o >= 0:
                src.append(slice(0, m - o))
                dst.append(slice(o, m))
            else:
                src.append(slice(-o, m))
                dst.append(slice(0, m + o))
        src, dst = tuple(src), tuple(dst)
        pm = mask[src] & mask[dst]
        if not pm.any():
            continue
        diff = np.abs(vals[dst] - vals[src])
        diff[~pm] = 0.0
        dist = g.spacing * math.sqrt(sum(o * o for o in off))
        q = float(diff.max()) / dist ** gamma
        if q > best:
            best = q
            flat = int(np.argmax(diff))
            idx = np.unravel_index(flat, diff.shape)
            y_idx = tuple(i + (s.start or 0) for i, s in zip(idx, src))
            z_idx = tuple(i + (s.start or 0) for i, s in zip(idx, dst))
            origin = np.asarray(g.origin)
            best_pair = (tuple(origin + np.asarray(y_idx) * g.spacing),
                         tuple(origin + np.asarray(z_idx) * g.spacing))
            best_dist = dist
    return HoelderProbe(gamma, eps, best, best_pair, best_dist, mode)
