"""Energy minimization for the stationary Allen-Cahn problem on truncated
half-space grids.

The discrete objective is the link-based form of the unit-scale energy,

    F_h(u) = h^n * [ sum_links ((u_j - u_i)/h)^2 / 2 + sum_nodes W(u_i) ],

whose gradient at interior nodes is exactly ``h^n (-lap_h(u) + W'(u))``
with the standard centered Laplacian.  Dirichlet nodes (the flat-face data
and the constant far field) are pinned exactly and never change during
iteration.

The descent scheme combines two ingredients:

* stabilized semi-implicit sweeps ``(s I - lap_h) u+ = s u - W'(u)`` with a
  stabilization shift ``s >= sup W''`` over the iterate range, which
  decrease F_h unconditionally and preserve the discrete comparison bounds
  (iterates stay in the interval spanned by the boundary data whenever the
  shifted explicit map is monotone), and
* safeguarded Newton polish steps on the same objective, accepted only if
  the energy does not increase, to drive the sup-norm residual of
  ``-lap_h(u) + W'(u)`` to solver-certificate levels.

The interior operator ``A = -lap_h`` (zero Dirichlet border) is applied
matrix-free as ``(2n/h^2) v - (1/h^2) sum of neighbours``, from the
neighbour sum of ``energy`` on a zero-bordered buffer: one pass for the
diagonal term and one per neighbour, with Newton's ``diag(d)`` folded
into the diagonal term.  The residual ``r`` at interior nodes takes the
same neighbour sum of the full array, so the Dirichlet data enter through
the face layers.  Along each axis an orthonormal discrete sine transform
diagonalizes ``A`` exactly (fast diagonalization, Lynch, Rice & Thomas
1964; Buzbee, Golub & Nielson 1970); one table, ``_AXIS_KINDS``, maps an
axis's two face roles to its type, eigenvalues and dense orthonormal
matrix.  So the semi-implicit step, in correction form
``u+ = u - (s I + A)^{-1} r``, costs one matrix product each way per axis
of at most ``DENSE_AXIS_MAX`` unknowns, and one forward and one inverse
``scipy.fft`` transform per type present on the longer axes; at the
sizes below that bound the product is faster than scipy.fft's per-call
dispatch, and ``scipy.fft`` is imported only for a problem with a long
axis.
Newton systems ``(A + diag(max(W'', 0))) d = -r`` are solved by ``cg``,
phaselab's own preconditioned conjugate-gradient loop (SciPy's recurrence,
bit for bit, on plain callables), at relative tolerance ``LINEAR_RTOL``,
preconditioned by the DST solve of ``A + mean(diag) I`` in float32
(inexact preconditioning, Golub & Ye 1999: CG's float64 recurrence and
stopping test fix the accuracy of the Newton step, the preconditioner
only its iteration count); only should CG fail is ``A`` assembled as a
sparse matrix, for a direct factorization.  The semi-implicit step, which
updates the iterate directly, keeps the exact float64 DST solve.
Newton steps start after ``NEWTON_BURN_IN`` semi-implicit iterations.
The stopping rule is the sup-norm residual on interior nodes.

Mirror-symmetric problems are solved on the folded half.  A tangential
axis with ``2M + 1`` nodes, on which the face data and the start field
both equal their flip, is cut to its nodes ``0..M``; the centre layer M
becomes a ``NeumannZero`` face, an unknown layer closed by the mirror
ghost (its neighbour sum reads ``2 u[M-1]``), and the solve mirrors its
result back to the full grid.  On a folded axis the 1D operator is
symmetric only in the inner product that gives the centre layer weight
1/2, so CG runs on ``y = D x`` with D = 1/sqrt(2) on the centre layer of
each folded axis: its operator ``D A D^{-1}`` is symmetric, and the
table's DST-III diagonalizes it along that axis, with eigenvalues
``(2 - 2 cos(pi (2j + 1) / (2M))) / h^2``, j = 0..M-1 (the symmetric
DST-I modes of the full axis).  The link energy gives a centre-layer
node, and a link lying in a centre layer, weight 1/2, and doubles the sum
per folded axis, so it stays the energy of the full field.  In 3D both
tangential axes fold, which quarters the unknowns.

``solve_half_space`` is the one entry point.  ``SolveConfig`` holds the
stopping rule (``residual_tol``, ``max_iterations``); the start field is
the ``initial`` argument, an array of nodal values on the grid (default:
the boundary extension ``far + (trace - far) e^(-x_n)``).  The face data
replace its face layers, so a previous solution on the same grid is a
warm start.  ``residual_field`` stays as the reference the tests check the
solver's residual against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .energy import (Potential, ScalarField, STANDARD, _at, equation_layers,
                     half_space_energy, interior_neighbour_sum)
from .grid import (HIGH, LOW, Dirichlet, Grid, NeumannZero, face_coords,
                   face_radii, half_space_roles)

__all__ = [
    "SolveConfig",
    "SolveResult",
    "NonConvergenceError",
    "InvalidBoundaryError",
    "solve_half_space",
    "residual_field",
    "uniqueness_check",
    "UniquenessReport",
    "comparison_check",
    "ComparisonReport",
    "boundary_extension",
    "LINEAR_RTOL",
    "NEWTON_BURN_IN",
]

#: Relative tolerance of the conjugate-gradient solve of each Newton
#: system; the semi-implicit systems are solved exactly.
LINEAR_RTOL = 1e-10
#: Semi-implicit iterations before the first Newton step.
NEWTON_BURN_IN = 2

SQRT2 = 2.0 ** 0.5
SQRT_HALF = 1.0 / SQRT2

#: Axes of at most this many unknowns are transformed by a product with
#: their dense DST matrix, longer ones by ``scipy.fft``.  Timed as 2D
#: shifted solves of k x k unknowns on a 2-core Xeon, one BLAS thread: the
#: product wins by 1.4-2.5x up to k = 95, where scipy.fft's per-call
#: dispatch costs as much as its kernel, and by up to 8x wherever 2(k + 1)
#: has a large prime factor; where it has none the two tie from k = 127 to
#: 191 in float64 (the product still wins 1.1-1.6x in float32) and the
#: product loses from about 223 on, since it does O(k) work per node
#: against the FFT's O(log k).
DENSE_AXIS_MAX = 144


def _sines(rows: np.ndarray, cols: np.ndarray, p: int) -> np.ndarray:
    """``sin(pi rows_i cols_j / p)`` for integers, looked up among the 2p
    values ``sin(pi n / p)`` by ``n = rows_i cols_j mod 2p``: the angles
    are reduced exactly, and a k x k matrix takes 2p sines, not k^2."""
    return np.sin(np.pi * np.arange(2 * p) / p)[np.outer(rows, cols) % (2 * p)]


def _dst1_matrix(k: int) -> np.ndarray:
    """The orthonormal DST-I of k points, ``sqrt(2/(k+1)) sin(pi i j/(k+1))``
    for i, j = 1..k."""
    i = np.arange(1, k + 1)
    return np.sqrt(2.0 / (k + 1)) * _sines(i, i, k + 1)


def _dst3_matrix(k: int) -> np.ndarray:
    """The orthonormal DST-III of k points, ``sqrt(2/k) sin(pi (2m+1) j/(2k))``
    for m = 0..k-1, j = 1..k, with the last column times 1/sqrt(2)."""
    q = np.sqrt(2.0 / k) * _sines(2 * np.arange(k) + 1, np.arange(1, k + 1),
                                  2 * k)
    q[:, -1] *= SQRT_HALF
    return q


#: Axis kind by the types of its (low, high) face roles: the type of the
#: orthonormal DST that diagonalizes its symmetrized 1D second difference,
#: the angles of its eigenvalues ``(2 - 2 cos(angle)) / h^2`` for k
#: unknowns, in that DST's order, and that DST's matrix for k unknowns
#: (its eigenbasis).  Forward transforms run in table order.
_AXIS_KINDS = {
    (Dirichlet, NeumannZero):
        (3, lambda k: np.pi * (2 * np.arange(k) + 1) / (2 * k), _dst3_matrix),
    (Dirichlet, Dirichlet):
        (1, lambda k: np.pi * np.arange(1, k + 1) / (k + 1), _dst1_matrix),
}


class InvalidBoundaryError(ValueError):
    """Boundary samples are not finite."""


class NonConvergenceError(RuntimeError):
    """Residual tolerance not reached within max_iterations.

    Carries the best iterate found so far in ``result``.
    """

    def __init__(self, result: "SolveResult"):
        super().__init__(
            f"no convergence: residual {result.residual:.3e} after "
            f"{result.iterations} iterations")
        self.result = result


@dataclass(frozen=True)
class SolveConfig:
    """Stopping rule of a solve: the sup-norm of the discrete
    ``-lap(u) + W'(u)`` over interior nodes must reach ``residual_tol``
    within ``max_iterations`` iterations."""

    residual_tol: float = 1e-9
    max_iterations: int = 400

    def __post_init__(self):
        if not self.residual_tol > 0:
            raise ValueError(
                f"residual_tol must be positive, got {self.residual_tol!r}")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative, got "
                             f"{self.max_iterations!r}")


@dataclass(frozen=True)
class SolveResult:
    field: ScalarField
    final_energy: float
    residual: float
    iterations: int
    energy_trace: tuple[float, ...]
    converged: bool


# --------------------------------------------------------------------------
# the interior operator
# --------------------------------------------------------------------------

def _defect(values: np.ndarray, h: float, potential: Potential,
            roles=None) -> np.ndarray:
    """``-lap_h(u) + W'(u)`` at the ``equation_layers`` nodes, in their
    shape, as ``(2n u - N) / h^2 + W'(u)`` with N the neighbour sum."""
    u = values[equation_layers(values.shape, roles)]
    out = u * (-2.0 * values.ndim)
    interior_neighbour_sum(values, out, roles)
    out *= -1.0 / (h * h)
    out += potential.derivative(u)
    return out


def _centre_weighted_sum(f: np.ndarray, axes: tuple) -> float:
    """Sum of f with weight 1/2 on the last layer of each axis in axes."""
    if not axes:
        return float(np.sum(f))
    a, rest = axes[0], axes[1:]
    return (_centre_weighted_sum(f, rest) - 0.5 * _centre_weighted_sum(
        f[_at(f.ndim, a, slice(-1, None))], rest))


class _DirichletProblem:
    """Unknown-node view of A = -lap_h with eliminated Dirichlet layers.

    ``dense`` holds (axis, DST matrix) per axis of at most
    ``DENSE_AXIS_MAX`` unknowns, and ``transforms`` (DST type, axes) per
    ``_AXIS_KINDS`` row present on the longer axes.  An axis whose high
    face is NeumannZero is folded: its last layer is the centre of a
    mirror-symmetric problem, an unknown layer closed by the mirror
    ghost.  ``matvec``, ``shifted_solve`` and ``sparse_matrix`` act
    on ``y = D x``, where D is 1/sqrt(2) on the centre layer of each folded
    axis, so that the operator ``S = D A D^{-1}`` is symmetric;
    ``weigh`` and ``unweigh`` apply D and its inverse."""

    def __init__(self, grid: Grid, roles: dict, potential: Potential):
        self.grid = grid
        self.roles = roles
        self.potential = potential
        self.h = grid.spacing
        self.inner = equation_layers(grid.shape, roles)
        self.int_shape = tuple(s.stop - 1 for s in self.inner)
        kinds = []
        for a in range(grid.n):
            pair = (type(roles[(a, LOW)]), type(roles[(a, HIGH)]))
            if pair not in _AXIS_KINDS:
                raise ValueError(
                    f"axis {a}: no spectral transform for the face roles "
                    f"({pair[0].__name__}, {pair[1].__name__})")
            kinds.append(_AXIS_KINDS[pair])
        self.dense = tuple((a, kinds[a][2](k))
                           for a, k in enumerate(self.int_shape)
                           if k <= DENSE_AXIS_MAX)
        long_axes = [a for a, k in enumerate(self.int_shape)
                     if k > DENSE_AXIS_MAX]
        self.transforms = tuple(
            (kind[0], axes) for kind in _AXIS_KINDS.values()
            if (axes := tuple(a for a in long_axes if kinds[a] is kind)))
        self.folded = tuple(a for a in range(grid.n)
                            if isinstance(roles[(a, HIGH)], NeumannZero))
        # eigenvalues of S: sum in axis order of (2 - 2 cos(angles)) / h^2
        lam = np.zeros(self.int_shape)
        for a, (k, (_, angles, _)) in enumerate(zip(self.int_shape, kinds)):
            lam = lam + ((2.0 - 2.0 * np.cos(angles(k))) / (self.h * self.h)
                         ).reshape((k,) + (1,) * (grid.n - 1 - a))
        self.eigenvalues = lam
        # dtype -> (s, s + eigenvalues in dtype) for the last shift s that
        # shifted_solve was given in that dtype; the semi-implicit shift and
        # the Newton preconditioner's shift alternate, one per dtype
        self._shifted = {}
        # dtype -> the dense matrices in that dtype
        self._dense_in = {}
        # zero-bordered buffer that matvec writes -D^{-1} v/h^2 into
        self._buf = np.zeros(grid.shape)
        # the centre weight 2n/h^2 of A's stencil
        self.centre = 2.0 * grid.n / (self.h * self.h)
        # each folded axis stands for two mirror halves that share the
        # centre layer
        self.measure = grid.cell_measure * 2 ** len(self.folded)

    def _centre_scaled(self, v: np.ndarray, factor: float) -> np.ndarray:
        """v with its centre layer on each folded axis times ``factor``
        (v itself when no axis is folded)."""
        if not self.folded:
            return v
        out = v.reshape(self.int_shape).copy()
        for a in self.folded:
            out[_at(out.ndim, a, -1)] *= factor
        return out.ravel()

    def weigh(self, x: np.ndarray) -> np.ndarray:
        """``D x``."""
        return self._centre_scaled(x, SQRT_HALF)

    def unweigh(self, y: np.ndarray) -> np.ndarray:
        """``D^{-1} y``."""
        return self._centre_scaled(y, SQRT2)

    def matvec(self, v: np.ndarray, diag) -> np.ndarray:
        """``(S + diag(d)) v`` matrix-free, as ``D ((2n/h^2 + d) D^{-1} v
        - (1/h^2) sum of neighbours of D^{-1} v)``: one pass for the
        diagonal term and one per neighbour, read from the zero-bordered
        buffer, and D on the centre layers only.  ``diag`` is
        ``2n/h^2 + d``; ``self.centre`` gives S v."""
        buf = self._buf[self.inner]
        np.multiply(v.reshape(self.int_shape), -1.0 / (self.h * self.h),
                    out=buf)
        out = np.multiply(diag, v)
        grid_out = out.reshape(self.int_shape)
        for a in self.folded:
            centre = _at(buf.ndim, a, -1)
            buf[centre] *= SQRT2
            grid_out[centre] *= SQRT2
        interior_neighbour_sum(self._buf, grid_out, self.roles)
        for a in self.folded:
            grid_out[_at(buf.ndim, a, -1)] *= SQRT_HALF
        return out

    def sparse_matrix(self) -> sp.csr_matrix:
        """S as the sparse Kronecker sum of 1D second differences, for the
        direct-solve fallback; on a folded axis the link to the centre
        reads -sqrt(2)."""
        A = None
        for a, k in enumerate(self.int_shape):
            off = np.full(k - 1, -1.0)
            if a in self.folded:
                off[-1] = -SQRT2
            T = sp.diags([off, np.full(k, 2.0), off], [-1, 0, 1]) \
                / (self.h * self.h)
            A = T if A is None else sp.kronsum(T, A)
        return A.tocsr()

    def interior(self, full_values: np.ndarray) -> np.ndarray:
        return full_values[self.inner].ravel()

    def embed(self, interior_vec: np.ndarray, full_values: np.ndarray) -> np.ndarray:
        out = full_values.copy()
        out[self.inner] = interior_vec.reshape(self.int_shape)
        return out

    def residual(self, full_values: np.ndarray) -> np.ndarray:
        return _defect(full_values, self.h, self.potential, self.roles).ravel()

    def link_energy(self, full_values: np.ndarray) -> float:
        """The link energy of the full mirrored field: a node or a link on
        the centre layer of a folded axis counts half, and the sum is
        doubled per folded axis."""
        h = self.h
        total = _centre_weighted_sum(self.potential.value(full_values),
                                     self.folded)
        for a in range(self.grid.n):
            d = np.diff(full_values, axis=a) / h
            total += 0.5 * _centre_weighted_sum(
                d * d, tuple(b for b in self.folded if b != a))
        return total * self.measure

    def shifted_solve(self, s: float, rhs: np.ndarray,
                      dtype=np.float64) -> np.ndarray:
        """Solve (s I + S) y = rhs by fast diagonalization, with the
        transforms and the division in ``dtype``: exact to rounding in
        float64, to float32 rounding in float32.  Returns float64 and
        leaves ``rhs`` unchanged.  Forward, one matrix product per
        ``dense`` axis, then one ``dstn`` per group of ``transforms``; back,
        the inverses in reverse order, the transposed matrix on a dense
        axis."""
        shift, shifted = self._shifted.get(dtype, (None, None))
        if s != shift:
            shifted = (s + self.eigenvalues).astype(dtype, copy=False)
            self._shifted[dtype] = (s, shifted)
        dense = self._dense_in.get(dtype)
        if dense is None:
            dense = self._dense_in[dtype] = tuple(
                (a, q.astype(dtype, copy=False)) for a, q in self.dense)
        r = rhs.reshape(self.int_shape).astype(dtype, copy=False)
        for a, q in dense:
            r = _along(q, r, a)
        if self.transforms:
            # scipy.fft loads scipy.special, about 170 ms of import, so only
            # a problem with a long axis imports it
            from scipy.fft import dstn, idstn
        for i, (t, axes) in enumerate(self.transforms):
            r = dstn(r, type=t, axes=axes, norm="ortho",
                     overwrite_x=bool(dense) or i > 0)
        r /= shifted
        for t, axes in reversed(self.transforms):
            r = idstn(r, type=t, axes=axes, norm="ortho", overwrite_x=True)
        for a, q in reversed(dense):
            r = _along(q.T, r, a)
        return r.ravel().astype(np.float64, copy=False)

    def newton_solve(self, w2: np.ndarray, rhs: np.ndarray,
                     rtol: float) -> np.ndarray:
        """Solve (A + diag(max(w2, 0))) x = rhs by CG at relative tolerance
        ``rtol`` on ``y = D x``, preconditioned by the DST solve of
        S + mean(diag) I; a sparse direct solve takes over if CG does not
        converge.

        The preconditioner is applied in float32, where the transforms move
        half the bytes and run faster than in float64.  CG needs from it only an
        approximation of the inverse system matrix, and float32 rounding
        perturbs that approximation by about 1e-7 relative (inexact
        preconditioning, Golub & Ye 1999).  The recurrence, the residual and
        the stopping test stay in float64, so ``x`` meets ``rtol`` as
        before; the rounding may cost an extra CG iteration."""
        d = np.maximum(w2, 0.0)
        diag = d + self.centre
        shift = float(np.mean(d))
        b = self.weigh(rhs)
        y, info = cg(lambda v: self.matvec(v, diag), b, rtol,
                     lambda v: self.shifted_solve(shift, v, np.float32))
        if info != 0:
            y = splu((self.sparse_matrix() + sp.diags(d)).tocsc()).solve(b)
        return self.unweigh(y)


def _along(q: np.ndarray, r: np.ndarray, axis: int) -> np.ndarray:
    """``q`` applied to every line of ``r`` along ``axis``, as one matrix
    product (batched over the axes before ``axis``)."""
    k = r.shape[axis]
    if axis == r.ndim - 1:
        return (r.reshape(-1, k) @ q.T).reshape(r.shape)
    return (q @ r.reshape(-1, k, math.prod(r.shape[axis + 1:]))
            ).reshape(r.shape)


def cg(matvec, b: np.ndarray, rtol: float, psolve):
    """Preconditioned conjugate gradients for ``A x = b`` from ``x = 0``,
    with ``matvec(v) = A v`` and ``psolve(r) = M^{-1} r`` for symmetric
    positive definite ``A`` and ``M``.

    Stops once ``||b - A x|| < rtol ||b||`` and returns ``(x, 0)``, or
    ``(x, 10 len(b))`` after that many iterations without.  The recurrence
    and its order of operations are those of ``scipy.sparse.linalg.cg`` at
    ``atol=0``, so the iterates are the same to the bit; unlike a
    ``LinearOperator``, the two callables are not probed on a zero vector.
    """
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b.copy(), 0
    atol = float(rtol) * float(bnrm2)
    x = np.zeros_like(b)
    r = b.copy()
    maxiter = 10 * len(b)
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = psolve(r)
        rho_cur = np.dot(r, z)
        if iteration > 0:
            p *= rho_cur / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho_cur / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
    return x, maxiter


def boundary_extension(grid: Grid, trace: np.ndarray, far_value: float) -> np.ndarray:
    """``far + (trace - far) * exp(-x_n)`` sampled on the grid."""
    z = grid.axis_coords(grid.n - 1)
    decay = np.exp(-z)
    t = np.asarray(trace, dtype=float)
    return far_value + (t - far_value)[..., np.newaxis] * decay


# --------------------------------------------------------------------------
# main solver
# --------------------------------------------------------------------------

def solve_half_space(h_samples: np.ndarray, far_value: float,
                     potential: Potential, grid: Grid,
                     cfg: SolveConfig | None = None,
                     initial: np.ndarray | None = None) -> SolveResult:
    """Minimize F over fields with trace ``far_value + h`` on the flat face.

    ``h_samples`` are the nodal samples of the boundary bump on the
    ``x_n = 0`` face (shape = tangential node shape; pass negated samples
    for the ``1 - h`` constructions).  All remaining faces are pinned to
    ``far_value``.  ``initial`` is the start field, an array of nodal
    values on ``grid`` whose face layers are replaced by the face data;
    None starts from the boundary extension.

    A tangential axis with an odd node count (at least 5) on which the data
    and the start field both equal their flip is folded: the solve runs on
    its nodes 0..M, the centre M a NeumannZero layer, and the result is
    mirrored back to the full grid.
    """
    cfg = cfg or SolveConfig()
    if not np.isfinite(far_value):
        raise InvalidBoundaryError(
            f"far_value must be finite, got {far_value!r}")
    h_arr = np.asarray(h_samples, dtype=float)
    if not np.all(np.isfinite(h_arr)):
        raise InvalidBoundaryError("boundary samples contain non-finite values")
    face_shape = tuple(grid.shape[:-1])
    if h_arr.shape != face_shape:
        raise InvalidBoundaryError(
            f"boundary samples shape {h_arr.shape} != face shape {face_shape}")
    trace = far_value + h_arr
    if initial is None:
        initial = boundary_extension(grid, trace, far_value)
    elif np.shape(initial) != grid.shape or not np.all(np.isfinite(initial)):
        raise ValueError("initial must be a finite array of the grid shape "
                         f"{grid.shape}, got shape {np.shape(initial)}")

    # the far value on every face layer, then the trace on x_n = 0, so the
    # nodes that layer shares with the other faces keep the trace
    start = np.asarray(initial, dtype=float).copy()
    for a in range(grid.n):
        start[(slice(None),) * a + (0,)] = far_value
        start[(slice(None),) * a + (-1,)] = far_value
    start[..., 0] = trace

    # the half of an axis keeps at least the 3 nodes of every Grid axis
    folded = tuple(a for a in range(grid.n - 1)
                   if grid.shape[a] % 2 == 1 and grid.shape[a] >= 5
                   and np.array_equal(h_arr, np.flip(h_arr, a))
                   and np.array_equal(start, np.flip(start, a)))
    half = tuple(slice(0, m // 2 + 1) if a in folded else slice(None)
                 for a, m in enumerate(grid.shape))
    u_full = start[half]
    roles = half_space_roles(grid)
    for a in folded:
        roles[(a, HIGH)] = NeumannZero()
    prob = _DirichletProblem(Grid(u_full.shape, grid.spacing, grid.origin),
                             roles, potential)

    def sup(r):
        return float(np.max(np.abs(r)))

    energy = prob.link_energy(u_full)
    trace_vals = [energy]
    r = prob.residual(u_full)
    res = sup(r)
    if res <= cfg.residual_tol:
        return _finish(grid, folded, u_full, trace_vals, res, 0, True)

    def shift_for(full):
        lo, hi = float(full.min()), float(full.max())
        w2 = max(potential.second_derivative(np.array([lo, hi, 0.0])).max(), 0.0)
        return w2 + 1.0

    s = shift_for(u_full)
    best = (res, u_full.copy())
    iterations = 0
    shift_retries = 0
    slack = lambda e: 10.0 * np.finfo(float).eps * max(1.0, abs(e))

    while iterations < cfg.max_iterations:
        tried_newton = False
        accepted = False
        u_int = prob.interior(u_full)

        if iterations >= NEWTON_BURN_IN:
            tried_newton = True
            delta = prob.newton_solve(potential.second_derivative(u_int), -r,
                                      LINEAR_RTOL)
            t = 1.0
            for _ in range(6):
                cand = prob.embed(u_int + t * delta, u_full)
                e_cand = prob.link_energy(cand)
                if e_cand <= energy + slack(energy):
                    u_full, energy, accepted = cand, e_cand, True
                    break
                t *= 0.5

        if not accepted:
            step = prob.unweigh(prob.shifted_solve(s, prob.weigh(r)))
            cand = prob.embed(u_int - step, u_full)
            e_cand = prob.link_energy(cand)
            if e_cand > energy + slack(energy):
                # shift too small for this range; enlarge and retry, but
                # stop once further stabilization cannot change the iterate
                shift_retries += 1
                if shift_retries > 60:
                    break
                s = max(2.0 * s, shift_for(cand))
                continue
            shift_retries = 0
            u_full, energy = cand, e_cand

        iterations += 1
        trace_vals.append(energy)
        r = prob.residual(u_full)
        res = sup(r)
        if res < best[0]:
            best = (res, u_full.copy())
        if res <= cfg.residual_tol:
            return _finish(grid, folded, u_full, trace_vals, res,
                           iterations, True)
        s_needed = shift_for(u_full)
        if s_needed > s:
            s = s_needed
        if tried_newton and not accepted and res <= 10 * cfg.residual_tol:
            # Newton stalls only at the floating-point floor of the energy,
            # where further steps cannot lower the residual; give up and
            # report the best iterate, which misses the tolerance.
            break

    res_b, u_b = best
    raise NonConvergenceError(
        _finish(grid, folded, u_b, trace_vals, res_b, iterations, False))


def _finish(grid, folded, u, trace_vals, res, iterations, converged):
    """The result on ``grid``, with u mirrored across the centre of each
    folded axis."""
    for a in folded:
        u = np.concatenate([u, np.flip(u, a)[_at(u.ndim, a, slice(1, None))]],
                           axis=a)
    fld = ScalarField(grid, u, half_space_roles(grid))
    return SolveResult(
        field=fld,
        final_energy=half_space_energy(fld),
        residual=res,
        iterations=iterations,
        energy_trace=tuple(trace_vals),
        converged=converged,
    )


# --------------------------------------------------------------------------
# residual and certified checks
# --------------------------------------------------------------------------

def residual_field(u: ScalarField, potential: Potential | None = None) -> ScalarField:
    """``-lap(u) + W'(u)`` at interior nodes, zero on all face layers."""
    out = np.zeros(u.grid.shape)
    out[tuple(slice(1, -1) for _ in u.grid.shape)] = \
        _defect(u.values, u.grid.spacing, potential or STANDARD)
    return u.with_values(out)


@dataclass(frozen=True)
class UniquenessReport:
    status: str                      # "unique", "distinct" or "not_applicable"
    sup_difference: float | None = None
    tolerance: float | None = None

    def __bool__(self):
        return self.status == "unique"


def uniqueness_check(h_samples: np.ndarray, potential: Potential, grid: Grid,
                     cfg: SolveConfig | None = None) -> UniquenessReport:
    """Solve from two different initial guesses, the constant far field 1
    and the boundary extension, and compare.

    Applicable when the problem sits in the range where W' is monotone:
    nonnegative boundary bumps with the standard potential (solutions stay
    >= 1), or any data with a floor-modified potential.  Otherwise the
    check reports ``not_applicable``.
    """
    cfg = cfg or SolveConfig()
    h_arr = np.asarray(h_samples, dtype=float)
    monotone = (potential.kind == "modified_floor") or np.all(h_arr >= 0.0)
    if not monotone:
        return UniquenessReport(status="not_applicable")

    r1 = solve_half_space(h_arr, 1.0, potential, grid, cfg,
                          initial=np.ones(grid.shape))
    r2 = solve_half_space(h_arr, 1.0, potential, grid, cfg)
    diff = float(np.max(np.abs(r1.field.values - r2.field.values)))
    tol = 10.0 * cfg.residual_tol
    return UniquenessReport(status="unique" if diff <= tol else "distinct",
                            sup_difference=diff, tolerance=tol)


@dataclass(frozen=True)
class ComparisonReport:
    theta: float
    max_violation: float
    tolerance: float
    passed: bool
    decay_max_violation: float | None = None


def comparison_check(theta: float, h_samples: np.ndarray,
                     potential: Potential, grid: Grid,
                     cfg: SolveConfig | None = None) -> ComparisonReport:
    """Check the scaled-comparison bound ``u_theta <= 1 + theta (u_1 - 1)``.

    Solves with data h and theta*h, then verifies the nodewise inequality
    up to ``3 (residual_tol + spacing)``.  When the base data satisfies
    ``h <= exp(-|x|)`` on the face, additionally reports the worst
    violation of the transferred decay envelope
    ``u_theta <= 1 + theta exp(-|x|) + 2 spacing``.
    """
    if theta < 1.0:
        raise ValueError(f"theta must be >= 1, got {theta}")
    cfg = cfg or SolveConfig()
    h_arr = np.asarray(h_samples, dtype=float)

    r1 = solve_half_space(h_arr, 1.0, potential, grid, cfg)
    rt = solve_half_space(theta * h_arr, 1.0, potential, grid, cfg)

    bound = 1.0 + theta * (r1.field.values - 1.0)
    tol = 3.0 * (cfg.residual_tol + grid.spacing)
    violation = float(np.max(rt.field.values - bound))
    passed = violation <= tol

    decay_violation = None
    face_r = face_radii(face_coords(grid))
    if np.all(h_arr <= np.exp(-face_r) + 1e-12):
        envelope = 1.0 + theta * np.exp(-grid.node_radii()) + 2.0 * grid.spacing
        decay_violation = float(np.max(rt.field.values - envelope))
        passed = passed and decay_violation <= 0.0
    return ComparisonReport(theta, violation, tol, passed, decay_violation)
