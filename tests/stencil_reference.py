"""The per-axis neighbour-sum loop, kept as the reference that the tests
hold ``energy.neighbour_plan`` and ``energy.add_neighbours`` to, bit for
bit: one axis at a time, the layers 1..m-2 first, then each face layer."""

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

