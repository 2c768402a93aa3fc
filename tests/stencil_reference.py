"""The per-axis loops, kept as the references that the tests hold the
bound code to, bit for bit: the neighbour-sum loop behind
``energy.neighbour_plan`` and ``energy.add_neighbours`` (one axis at a
time, the layers 1..m-2 first, then each face layer), and the per-axis
product loop behind the solver's ``shifted_solve``."""

import math

import numpy as np

from phaselab.grid import NeumannZero


def neighbour_sum(values, axis, out, lo=0, hi=None, roles=None):
    """Add the unscaled neighbour sum ``u[i+1] + u[i-1]`` along axis at the
    layers lo <= i < hi (default: all) into out.  At the grid's own faces
    the face roles close it: the mirror ghost gives ``2 u1`` at a
    NeumannZero face, and a Dirichlet face layer reads ``2 u0``.  Layers in
    1..m-2 need no roles."""
    def at(index):
        idx = [slice(None)] * values.ndim
        idx[axis] = index
        return tuple(idx)
    m = values.shape[axis]
    hi = m if hi is None else hi
    a, b = max(lo, 1), min(hi, m - 1)
    if a < b:
        mid = out[at(slice(a - lo, b - lo))]
        mid += values[at(slice(a + 1, b + 1))]
        mid += values[at(slice(a - 1, b - 1))]
    for face, step, side in ((0, 1, "low"), (m - 1, -1, "high")):
        if lo <= face < hi:
            role = roles[(axis, side)]
            ghost = face + step if isinstance(role, NeumannZero) else face
            out[at(face - lo)] += 2.0 * values[at(ghost)]


def along(q, r, axis, out):
    """``q`` applied to every line of ``r`` along ``axis`` by one matrix
    product, batched over the axes before it, into ``out`` (not r)."""
    k = r.shape[axis]
    if axis == r.ndim - 1:
        np.matmul(r.reshape(-1, k), q.T, out=out.reshape(-1, k))
    else:
        rest = math.prod(r.shape[axis + 1:])
        np.matmul(q, r.reshape(-1, k, rest), out=out.reshape(-1, k, rest))
    return out


def shifted_solve(prob, s, rhs, dtype=np.float64):
    """The per-axis product loop of the solver's fast-diagonalization solve
    of ``(s I + S) y = rhs`` on the problem ``prob``, in ``dtype``: forward,
    one ``along`` product per dense axis, alternating between two arrays,
    then one ``dstn`` per group of long axes; the division by the shifted
    eigenvalues; back, the inverses in reverse order.  In float32 rhs is
    first rounded into the second array.  Returns a new float64 vector."""
    shifted = (s + prob.eigenvalues).astype(dtype, copy=False)
    work = np.empty((2,) + prob.int_shape, dtype)
    r = rhs.reshape(prob.int_shape)
    if r.dtype != dtype:
        np.copyto(work[1], r)
        r = work[1]
    for i, (a, qs) in enumerate(prob.dense):
        r = along(qs[dtype][0], r, a, work[i % 2])
    if prob.transforms:
        from scipy.fft import dstn, idstn
    for i, (t, axes) in enumerate(prob.transforms):
        r = dstn(r, type=t, axes=axes, norm="ortho",
                 overwrite_x=bool(prob.dense) or i > 0)
    r /= shifted
    for t, axes in reversed(prob.transforms):
        r = idstn(r, type=t, axes=axes, norm="ortho", overwrite_x=True)
    for i, (a, qs) in enumerate(reversed(prob.dense), len(prob.dense)):
        r = along(qs[dtype][1], r, a, work[i % 2])
    return r.astype(np.float64).ravel()
